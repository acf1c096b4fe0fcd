"""Exact polynomial arithmetic, forms, and the small linear-algebra helpers."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from folindex.errors import InvalidInput
from folindex.polyring import (
    DiffForm,
    Poly,
    PolyMatrix,
    VectorField,
    char_poly_coeffs,
    contract,
    dual_form,
    field_from_dual,
    homogenize,
    jacobian,
    set_coordinate_one,
    translate_field,
    translate_to_origin,
    wedge,
)
from folindex.series import TruncSeries

from exterior import exterior_derivative


def rand_poly(rng, nvars, max_deg=3, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(max_deg + 1) for _ in range(nvars))
        terms[e] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return Poly(nvars, terms)


def test_construction_normalizes():
    p = Poly(2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert p.terms == {(1, 0): Fraction(1)}
    assert Poly.zero(3).is_zero()
    assert Poly.const(2, 5).constant_term() == 5
    x, y = Poly.variables(2)
    assert (x + y) - x == y
    assert Poly.monomial((2, 1), 3) == 3 * x ** 2 * y


def test_arithmetic_basics():
    x, y = Poly.variables(2)
    p = (x + y) ** 2
    assert p == x ** 2 + 2 * x * y + y ** 2
    assert p - p == Poly.zero(2)
    assert (p * 0).is_zero()
    assert p / 2 == p * Fraction(1, 2)
    assert 1 - x == Poly.const(2, 1) - x
    assert p(1, 2) == 9
    assert p(Fraction(1, 2), Fraction(1, 2)) == 1


def test_degree_views():
    x, y = Poly.variables(2)
    p = x ** 3 + y
    assert p.degree() == 3
    assert Poly.zero(2).degree() == -1
    assert not p.is_homogeneous()
    assert (x * y).is_homogeneous()
    assert p.homogeneous_part(3) == x ** 3
    assert p.homogeneous_part(2).is_zero()


def test_diff_and_leibniz():
    x, y = Poly.variables(2)
    assert (x ** 2 * y).diff(0) == 2 * x * y
    assert (x ** 2 * y).diff(1) == x ** 2
    rng = random.Random(11)
    for _ in range(20):
        p, q = rand_poly(rng, 2), rand_poly(rng, 2)
        for i in range(2):
            assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


def test_subst_matches_evaluation():
    rng = random.Random(23)
    for _ in range(15):
        p = rand_poly(rng, 2)
        g0, g1 = rand_poly(rng, 2, 2, 3), rand_poly(rng, 2, 2, 3)
        composed = p.subst([g0, g1])
        pt = (Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4)))
        assert composed(pt) == p(g0(pt), g1(pt))


X, Y = Poly.variables(2)


@pytest.mark.parametrize("call", [
    lambda: (Y ** 2 - X ** 3)(1),
    lambda: (Y ** 2 - X ** 3)((1, 2, 3)),
    lambda: (X + Y).subst([X]),
    lambda: X.subst([]),
], ids=["call-short", "call-long", "subst-short", "subst-none"])
def test_wrong_value_count_raises_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()


@pytest.mark.parametrize("values", [
    (0.5, 1),
    ("1", 1),
    (None, 1),
    (X, Poly.var(3, 0)),
    (X, TruncSeries.param(4)),
], ids=["float", "str", "none", "two-rings", "poly-and-series"])
def test_values_without_a_shared_exact_ring_raise_invalid_input(values):
    with pytest.raises(InvalidInput):
        (X * Y + 1).subst(values)
    with pytest.raises(InvalidInput):
        (X * Y + 1)(*values)


@pytest.mark.parametrize("point", [(1,), (1, 2, 3), (), (0.5, 1), (1, "2")],
                         ids=["short", "long", "empty", "float", "str"])
def test_translation_checks_the_point(point):
    with pytest.raises(InvalidInput):
        translate_to_origin(Y ** 2 - X ** 3, point)
    with pytest.raises(InvalidInput):
        translate_field(VectorField((X, Y)), point)


def test_substitution_keeps_the_value_ring():
    assert (X * Y + 3)(2, Fraction(1, 2)) == 4
    assert isinstance(Poly.zero(2)(1, 2), Fraction)
    assert isinstance((X + 1)(1, 2), Fraction)
    t = TruncSeries.param(5)
    assert (X * Y).subst([t, TruncSeries.param(3)]).order == 3
    assert Poly.zero(2).subst([Poly.var(3, 0)] * 2) == Poly.zero(3)
    assert (X ** 2).subst([Y, 1]) == Y ** 2
    assert translate_field(VectorField((X, Y)), (1, 2)) == VectorField(
        (X + 1, Y + 2))


def test_translate_round_trip():
    rng = random.Random(5)
    for _ in range(15):
        p = rand_poly(rng, 3)
        q = tuple(Fraction(rng.randrange(-4, 5)) for _ in range(3))
        back = translate_to_origin(translate_to_origin(p, q), tuple(-c for c in q))
        assert back == p
    x, y = Poly.variables(2)
    moved = translate_to_origin(x ** 2 + y, (1, 2))
    assert moved == x ** 2 + 2 * x + y + 3


def test_vector_field_apply():
    x, y = Poly.variables(2)
    v = VectorField((2 * x, 3 * y))
    assert v.apply(x ** 3 - y ** 2) == 6 * x ** 3 - 6 * y ** 2
    rng = random.Random(7)
    for _ in range(10):
        f, g = rand_poly(rng, 2), rand_poly(rng, 2)
        assert v.apply(f * g) == v.apply(f) * g + f * v.apply(g)


def test_jacobian_and_char_poly():
    x, y = Poly.variables(2)
    m = jacobian(VectorField((x ** 2, y)))
    assert m.rows[0][0] == 2 * x
    assert m.rows[0][1].is_zero()
    assert char_poly_coeffs(m) == [2 * x + 1, 2 * x]

    a = Poly.const(1, 0)
    one = Poly.const(1, 1)
    ident3 = PolyMatrix([[one if i == j else a for j in range(3)] for i in range(3)])
    assert char_poly_coeffs(ident3) == [Poly.const(1, 3), Poly.const(1, 3), one]


def test_char_poly_diag_is_elementary_symmetric():
    rng = random.Random(31)
    zero = Poly.zero(1)
    for _ in range(10):
        d = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(3)]
        m = PolyMatrix([[Poly.const(1, d[i]) if i == j else zero for j in range(3)]
                        for i in range(3)])
        e1 = d[0] + d[1] + d[2]
        e2 = d[0] * d[1] + d[0] * d[2] + d[1] * d[2]
        e3 = d[0] * d[1] * d[2]
        assert char_poly_coeffs(m) == [Poly.const(1, e1), Poly.const(1, e2),
                                       Poly.const(1, e3)]


def test_det_small():
    x, y = Poly.variables(2)
    m = PolyMatrix([[x, y], [y, x]])
    assert m.det() == x ** 2 - y ** 2
    one = Poly.const(2, 1)
    zero = Poly.zero(2)
    m3 = PolyMatrix([[one, zero, zero], [zero, x, zero], [zero, zero, y]])
    assert m3.det() == x * y


def test_contract_plane_convention():
    x, y = Poly.variables(2)
    v = VectorField((x ** 2, y ** 3))
    omega = dual_form(v)
    # i_v(dx ^ dy) = v1 dy - v2 dx
    assert omega.coefficient((1,)) == x ** 2
    assert omega.coefficient((0,)) == -(y ** 3)
    assert field_from_dual(omega) == v


def test_contract_squares_to_zero():
    rng = random.Random(13)
    for n in (2, 3, 4):
        for _ in range(6):
            v = VectorField(tuple(rand_poly(rng, n, 2, 3) for _ in range(n)))
            for q in range(2, n + 1):
                coeffs = {}
                idx = tuple(range(q))
                coeffs[idx] = rand_poly(rng, n, 2, 3)
                if q < n:
                    coeffs[tuple(range(1, q + 1))] = rand_poly(rng, n, 2, 3)
                w = DiffForm(n, q, coeffs)
                assert contract(contract(w, v), v).is_zero()


def test_wedge_signs():
    n = 2
    dx = DiffForm.dx(n, 0)
    dy = DiffForm.dx(n, 1)
    assert wedge(dx, dy) == DiffForm.volume(n)
    assert wedge(dy, dx) == -DiffForm.volume(n)
    assert wedge(dx, dx).is_zero()


def test_wedge_graded_commutativity():
    rng = random.Random(17)
    n = 4
    for _ in range(8):
        p = rng.choice((1, 2))
        q = rng.choice((1, 2))
        if p + q > n:
            continue
        a = DiffForm(n, p, {tuple(sorted(rng.sample(range(n), p))):
                            rand_poly(rng, n, 2, 2)})
        b = DiffForm(n, q, {tuple(sorted(rng.sample(range(n), q))):
                            rand_poly(rng, n, 2, 2)})
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        if (p * q) % 2:
            rhs = -rhs
        assert lhs == rhs


def test_exterior_derivative():
    x, y = Poly.variables(2)
    df = exterior_derivative(x ** 2 * y)
    assert df.coefficient((0,)) == 2 * x * y
    assert df.coefficient((1,)) == x ** 2
    # d(x dy) = dx ^ dy
    form = DiffForm(2, 1, {(1,): x})
    assert exterior_derivative(form) == DiffForm.volume(2)
    rng = random.Random(19)
    for _ in range(10):
        p = rand_poly(rng, 3)
        assert exterior_derivative(exterior_derivative(p)).is_zero()


def test_cartan_identity_on_functions():
    # i_v(df) = v(f)
    rng = random.Random(29)
    for _ in range(10):
        f = rand_poly(rng, 3)
        v = VectorField(tuple(rand_poly(rng, 3, 2, 3) for _ in range(3)))
        i_v_df = contract(exterior_derivative(f), v)
        assert i_v_df.coefficient(()) == v.apply(f)


def test_homogenize_and_dehomogenize():
    x, y = Poly.variables(2)
    p = x ** 3 - y ** 2
    h = homogenize(p, 3)
    assert h.is_homogeneous() and h.degree() == 3
    assert set_coordinate_one(h, 0) == p
    rng = random.Random(37)
    for _ in range(10):
        p = rand_poly(rng, 2)
        if p.is_zero():
            continue
        d = p.degree() + rng.randrange(3)
        assert set_coordinate_one(homogenize(p, d), 0) == p


def test_bad_inputs_are_rejected():
    with pytest.raises(InvalidInput):
        Poly(2, {(1,): Fraction(1)})
    with pytest.raises(TypeError):
        Poly.const(1, 0.5)
    x, y = Poly.variables(2)
    with pytest.raises(InvalidInput):
        x + Poly.var(3, 0)
    with pytest.raises(InvalidInput):
        VectorField((x,))
    with pytest.raises(InvalidInput):
        DiffForm(2, 1, {(1, 0): x})
    for k in (-1, Fraction(1, 2), 1.0):
        with pytest.raises(InvalidInput):
            x ** k
    # an exponent is an int >= 0: 2.5 printed as x^2, and milnor_number of
    # it ended in AttributeError
    for e in ((2.5, 0), (1.0, 0), (True, 0), (Fraction(2), 0), (-1, 0)):
        with pytest.raises(InvalidInput):
            Poly(2, {e: 1})
    # the degree is an int: 1.5 gave z + y
    for d in (1.5, 2.0, True, None):
        with pytest.raises(InvalidInput):
            homogenize(x + y, d)
    # an index and a ring size are ints: DiffForm(2, 1, {(0.5,): x}) was
    # built, its dual field dropped the coefficient and its repr raised
    # TypeError, and True passed as 1
    for call in (lambda: DiffForm(2, 1, {(0.5,): x}),
                 lambda: DiffForm(2, 1, {(True,): x}),
                 lambda: DiffForm.dx(2, 1.0),
                 lambda: DiffForm(2, True),
                 lambda: DiffForm(2.0, 1),
                 lambda: DiffForm(2, 1, {(0,): 1}),
                 lambda: Poly.var(2, True),
                 lambda: x.diff(True),
                 lambda: Poly(True, {}),
                 lambda: Poly(2.0)):
        with pytest.raises(InvalidInput):
            call()


@pytest.mark.parametrize("call, error", [
    (lambda x, a: x ** a, InvalidInput),
    (lambda x, a: Poly.const(2, a), TypeError),
    (lambda x, a: Poly.monomial((1, 0), a), TypeError),
], ids=["pow", "const", "monomial"])
def test_bool_is_refused_like_a_non_number(call, error):
    # a bool is an int to Python: x ** True was x, and True a coefficient 1
    x = Poly.var(2, 0)
    for a in ("2", True):
        with pytest.raises(error):
            call(x, a)


@pytest.mark.parametrize("call", [
    lambda x, y: Poly(-1),
    lambda x, y: Poly.var(2, 5),
    lambda x, y: Poly.var(2, -1),
    lambda x, y: x.diff(3),
    lambda x, y: x / 0,
    lambda x, y: VectorField((x, y)).apply(Poly.var(3, 0)),
    lambda x, y: PolyMatrix([[x, y], [x]]),
    lambda x, y: PolyMatrix([]),
    lambda x, y: PolyMatrix([[x, Poly.var(3, 0)]]),
    lambda x, y: PolyMatrix([[x, y]]).det(),
    lambda x, y: char_poly_coeffs(PolyMatrix([[x, y]])),
    lambda x, y: DiffForm(2, 3),
    lambda x, y: DiffForm.dx(2, 0) + DiffForm.volume(2),
    lambda x, y: DiffForm.dx(2, 0) * "x",
    lambda x, y: contract(DiffForm.from_poly(x), VectorField((x, y))),
    lambda x, y: contract(DiffForm.dx(2, 0), VectorField(Poly.variables(3))),
    lambda x, y: wedge(DiffForm.dx(2, 0), DiffForm.volume(2)),
    lambda x, y: wedge(DiffForm.dx(2, 0), x),
    lambda x, y: field_from_dual(x),
    lambda x, y: homogenize(x ** 2, 1),
    lambda x, y: set_coordinate_one(x, 2),
    lambda x, y: translate_to_origin(x, (True, 0)),
    lambda x, y: translate_to_origin(x, 5),
    lambda x, y: translate_field(VectorField((x, y)), (0, False)),
    lambda x, y: translate_field(VectorField((x, y)), None),
], ids=["ring-negative", "var-high", "var-negative", "diff-high",
        "divide-by-zero", "apply-ring", "matrix-ragged",
        "matrix-empty", "matrix-rings", "det-nonsquare", "charpoly-nonsquare",
        "form-degree-high", "form-add-degree",
        "form-scale-string", "contract-zero-form", "contract-ring",
        "wedge-degree-high", "wedge-poly", "dual-of-poly",
        "homogenize-low", "dehomogenize-high", "translate-bool",
        "translate-int", "translate-field-bool", "translate-field-none"])
def test_malformed_input_raises_invalid_input(call):
    # these were asserts: under python -O Poly.var(2, 5) returned 1,
    # DiffForm(2, 3) built a 3-form in the plane, and x.diff(3), a ragged
    # determinant and x / 0 raised IndexError or ZeroDivisionError
    with pytest.raises(InvalidInput):
        call(*Poly.variables(2))


def _polys(n):
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * n),
                     st.fractions(min_value=-5, max_value=5, max_denominator=4))
    return st.lists(term, max_size=5).map(lambda ts: Poly(n, dict(ts)))


def test_format_is_stable():
    x, y = Poly.variables(2)
    p = x ** 2 - 2 * x * y + Poly.const(2, 1)
    assert p.format() == "1 - 2*x*y + x^2"
    assert Poly.zero(2).format() == "0"
    v = VectorField((x, -y))
    assert dual_form(v).format() == "(y) dx + (x) dy"


_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda nm: st.tuples(
        _polys(nm[0]), st.lists(_polys(nm[1]), min_size=nm[0],
                                max_size=nm[0]),
        st.lists(_rationals, min_size=nm[1], max_size=nm[1]))))
def test_substitution_commutes_with_evaluation(case):
    p, qs, pt = case
    assert p.subst(qs)(pt) == p(*[q(pt) for q in qs])


_wide_rationals = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                            st.integers(1, 10 ** 6))


def _wide_polys(n):
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * n), _wide_rationals)
    return st.one_of(
        st.lists(term, max_size=6).map(lambda ts: Poly(n, dict(ts))),
        _wide_rationals.map(lambda c: Poly.const(n, c)))


def _factor_pairs(n):
    # random pairs, and pairs (p + r, p - r) whose cross terms cancel, such
    # as (x + 1)(x - 1)
    pairs = st.tuples(_wide_polys(n), _wide_polys(n))
    return st.one_of(pairs, pairs.map(lambda pr: (pr[0] + pr[1],
                                                  pr[0] - pr[1])))


def _schoolbook_product(p, q):
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in terms.items() if c}


_x, _y = Poly.variables(2)


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(_factor_pairs))
@example((_x + 1, _x - 1))
@example((Fraction(1, 2) * _x + _y, Fraction(1, 2) * _x - _y))
@example((_x, Poly.zero(2)))
@example((Poly.const(2, Fraction(1, 2)), Poly.const(2, Fraction(2, 3))))
def test_product_matches_the_schoolbook_fraction_product(pq):
    p, q = pq
    for prod in (p * q, q * p):
        assert prod.terms == _schoolbook_product(p, q)
        assert all(type(c) is Fraction and c for c in prod.terms.values())
        assert all(len(e) == p.nvars for e in prod.terms)


def _translation_cases(n):
    point = st.lists(st.fractions(min_value=-5, max_value=5,
                                  max_denominator=7), min_size=n, max_size=n)
    return st.tuples(_wide_polys(n), point)


@seed(20261020)
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(_translation_cases))
@example((Poly.zero(2), [Fraction(1, 2), Fraction(-2, 3)]))
@example((Fraction(1, 3) * _x ** 3 - _y, [0, 0]))
@example((_x ** 2 * _y - Fraction(3, 5) * _y ** 3 + 7,
          [Fraction(1, 2), Fraction(-3, 4)]))
@example((Poly.var(3, 1) ** 3 - Fraction(2, 9) * Poly.var(3, 0),
          [Fraction(-1, 3), 0, Fraction(5, 2)]))
def test_translation_is_the_shifted_substitution(case):
    # the binomial kernel against the one substitution kernel, and back
    # through -q at the same rational point
    p, q = case
    moved = translate_to_origin(p, q)
    assert moved == p.subst([v + c for v, c in
                             zip(Poly.variables(p.nvars), q)])
    assert all(type(c) is Fraction and c for c in moved.terms.values())
    assert translate_to_origin(moved, [-c for c in q]) == p
