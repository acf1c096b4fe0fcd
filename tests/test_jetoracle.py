"""Truncation oracle: integer ranks, naive dimensions, Euler characteristics."""

import ast
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from folindex import jetoracle
from folindex.errors import (
    InvalidInput,
    NotInvariant,
    NotLogarithmic,
    NotZeroDimensional,
    RouteConflict,
    TruncationNotStabilized,
)
from folindex.indices import homological_index, log_index
from folindex.jetoracle import (
    contraction_complex_euler,
    integer_rank,
    truncated_quotient_dim,
)
from folindex.localalgebra import (
    INFINITE,
    MonomialOrder,
    quotient_dim,
)
from folindex.polyring import (
    DiffForm,
    Poly,
    VectorField,
    contract,
    wedge,
)
from folindex.projective import ProjPoint, ProjectiveFoliation, run_global_check

from exterior import exterior_derivative


def _sparse(rows):
    """Dense integer rows as the sparse {column: int} rows integer_rank
    takes, with no zero entry."""
    return [{k: a for k, a in enumerate(r) if a} for r in rows]


def test_integer_rank():
    assert integer_rank([]) == 0
    assert integer_rank([{}, {}]) == 0
    assert integer_rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
    assert integer_rank([{0: 1, 1: 2}, {0: 2, 1: 5}]) == 2
    assert integer_rank([{0: 2}, {1: 3}, {0: 2, 1: 3},
                         {0: 1, 1: 1, 2: 1}]) == 3
    rng = random.Random(43)
    for _ in range(10):
        # random row-echelon matrix scrambled by row operations has known rank
        r, c = rng.randrange(1, 5), rng.randrange(1, 6)
        rank = min(r, c, rng.randrange(1, 5))
        base = [[0] * c for _ in range(r)]
        for i in range(rank):
            base[i][i] = rng.randrange(1, 5)
            for j in range(i + 1, c):
                base[i][j] = rng.randrange(-4, 5)
        rows = [row[:] for row in base]
        for _ in range(6):
            i, j = rng.randrange(r), rng.randrange(r)
            k = rng.randrange(-2, 3)
            if i != j:
                rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        assert integer_rank(_sparse(rows)) == rank
        assert integer_rank(_sparse(base)) == rank


def _fraction_pivots(rows, ncols):
    """Pivot columns of a Fraction echelon of dense rows, eliminated from
    the lowest column up: the lowest columns of the row space."""
    m = [[Fraction(a) for a in r] for r in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            t = m[i][col] / m[rank][col]
            m[i] = [a - t * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
    return pivots


def _fraction_rank(rows, ncols):
    return len(_fraction_pivots(rows, ncols))


@st.composite
def _matrices(draw):
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    base = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=7))
    rows = list(base)
    extras = draw(st.lists(st.tuples(st.sampled_from(("zero", "dup", "mult")),
                                     st.integers(0, 50), st.integers(-4, 4)),
                           max_size=5))
    for kind, i, k in extras:
        if kind == "zero" or not base:
            rows.append([0] * ncols)
        elif kind == "dup":
            rows.append(list(base[i % len(base)]))
        else:
            rows.append([k * a for a in base[i % len(base)]])
    order = draw(st.permutations(range(len(rows))))
    return ncols, [rows[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_integer_rank_sparse_and_fraction_agree(matrix):
    ncols, rows = matrix
    sparse = _sparse(rows)
    assert integer_rank(sparse) == _fraction_rank(rows, ncols)
    # the rows are stored as pivots and never changed
    assert sparse == _sparse(rows)


def test_oracle_imports_nothing_from_the_local_algebra():
    # the oracle is only an independent check while it shares no code with
    # the standard-basis engine
    tree = ast.parse(Path(jetoracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        for name in names:
            assert "localalgebra" not in name.split("."), ast.dump(node)


def test_truncated_quotient_dim_examples():
    x, y = Poly.variables(2)
    assert truncated_quotient_dim((x, y), 3) == (1, True)
    assert truncated_quotient_dim((3 * x ** 2, 2 * y), 4) == (2, True)
    assert truncated_quotient_dim((x,), 5) == (5, False)
    assert truncated_quotient_dim((y ** 2 - x ** 3, y), 6) == (3, True)


def test_truncated_quotient_dim_counts_only_the_origin():
    # zeros away from the origin are not part of the local algebra
    x, y = Poly.variables(2)
    assert truncated_quotient_dim((x * (1 + x), y), 10) == (1, True)
    assert truncated_quotient_dim((1 + x, y), 10) == (0, True)


def _random_plane_germ(rng):
    mons = [(a, b) for a in range(4) for b in range(4) if 0 < a + b <= 3]
    return tuple(Poly(2, {e: rng.randint(-3, 3)
                          for e in rng.sample(mons, rng.randint(1, 4))})
                 for _ in range(2))


def test_truncated_quotient_dim_agrees_with_standard_bases():
    rng = random.Random(5)
    checked = 0
    while checked < 21:
        gens = _random_plane_germ(rng)
        if any(g.is_zero() for g in gens):
            continue
        dim = quotient_dim(gens, MonomialOrder.local(2))
        if dim is INFINITE or dim > 12:
            continue
        assert truncated_quotient_dim(gens, dim + 5) == (dim, True), gens
        checked += 1


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(-4, 4)), max_size=4),
       st.integers(1, 4), st.integers(0, 1))
def test_truncated_quotient_dim_ignores_unit_factors(terms, const, which):
    # a unit is invertible modulo m^N, so it changes no generated ideal
    x, y = Poly.variables(2)
    unit = Poly(2, {(a, b): c for a, b, c in terms if a + b}) + const
    gens = [y ** 2 - x ** 3, x * y]
    scaled = list(gens)
    scaled[which] = unit * gens[which]
    for level in (4, 6):
        assert (truncated_quotient_dim(scaled, level)
                == truncated_quotient_dim(gens, level))


@st.composite
def _ideals(draw):
    """One to three nonzero integer polynomials of degree at most 3 in one
    to three variables, constant terms included."""
    n = draw(st.integers(1, 3))
    mons = [e for e in itertools.product(range(4), repeat=n) if sum(e) <= 3]
    terms = st.dictionaries(st.sampled_from(mons),
                            st.integers(-4, 4).filter(bool),
                            min_size=1, max_size=4)
    return [Poly(n, t) for t in draw(st.lists(terms, min_size=1,
                                              max_size=3))]


@seed(25)
@settings(max_examples=150, deadline=None)
@given(_ideals(), st.integers(1, 7))
def test_stabilized_means_the_next_level_agrees(gens, N):
    # both levels come from one elimination; the flag must still be the
    # comparison with a call at N + 1
    value, stabilized = truncated_quotient_dim(gens, N)
    assert stabilized == (value == truncated_quotient_dim(gens, N + 1)[0])


def test_euler_smooth_line():
    # the window matters here: a raw count stalls at 0 for every truncation
    x, y = Poly.variables(2)
    assert contraction_complex_euler(VectorField((x, y)), y) == 1
    assert contraction_complex_euler(VectorField((x, 2 * y)), y) == 1


def test_euler_plane_curves():
    x, y = Poly.variables(2)
    cusp = y ** 2 - x ** 3
    assert contraction_complex_euler(VectorField((2 * x, 3 * y)), cusp) == -1
    assert contraction_complex_euler(VectorField((2 * y, 3 * x ** 2)), cusp) == 0
    assert contraction_complex_euler(VectorField((-y, x)), x ** 2 + y ** 2) == 0


def test_euler_surfaces_in_space():
    x, y, z = Poly.variables(3)
    radial = VectorField((x, y, z))
    assert contraction_complex_euler(radial, x ** 2 + y ** 2 + z ** 2) == 2
    assert contraction_complex_euler(radial, x * y - z ** 2) == 2


@pytest.mark.parametrize("a, b, c", [(2, 2, 3), (2, 3, 3), (2, 3, 4)])
def test_oracle_on_brieskorn_surfaces(a, b, c):
    # the weighted Euler field on x^a + y^b + z^c has homological index
    # 1 + mu with mu = (a-1)(b-1)(c-1); its rows are not homogeneous
    x, y, z = Poly.variables(3)
    w = lcm(a, b, c)
    v = VectorField((w // a * x, w // b * y, w // c * z))
    report = homological_index(v, x ** a + y ** b + z ** c, oracle=True)
    assert report.value == 1 + (a - 1) * (b - 1) * (c - 1)
    assert [check[:2] for check in report.crosschecks] == [
        ("truncation-oracle", True)]


def test_non_isolated_zeros_on_a_surface_never_stabilize():
    # v vanishes on the plane x == 0, a component of f == 0, so with N
    # omitted the level doubles past its limit
    x, y, z = Poly.variables(3)
    q = Fraction(4, 3)
    f = x - q * x * y + q * x ** 2
    v = VectorField((Poly.zero(3), x * y - q * x * y ** 2 + q * x ** 2 * y,
                     -q * x + Fraction(7, 9) * x * y + q * x * y ** 2
                     - Fraction(28, 9) * x ** 2 - q * x ** 2 * y))
    with pytest.raises(TruncationNotStabilized):
        contraction_complex_euler(v, f)


@pytest.mark.parametrize("d, level", [(30, 33), (31, 34)])
def test_degrees_past_the_limit_build_no_level(monkeypatch, d, level):
    # the first level must exceed the degree buffer 1 + d by 2, which is
    # past _MAX_TRUNC here: the error names it before any complex is built
    x, y = Poly.variables(2)
    monkeypatch.setattr(jetoracle, "_Complex", None)
    with pytest.raises(TruncationNotStabilized, match="level %d," % level):
        homological_index(VectorField((2 * x, d * y)), x ** d + y ** 2,
                          oracle=True)


def test_euler_log_divisor():
    x, y = Poly.variables(2)
    assert contraction_complex_euler(VectorField((2 * x, 3 * y)), (0,)) == 0
    assert contraction_complex_euler(VectorField((2 * x, 3 * y)), (0, 1)) == 0
    assert contraction_complex_euler(VectorField((x ** 2, y)), (0,)) == 1
    # (x^3, y) along x == 0 divides to (x^2, y); a level is stabilized when
    # the colength recurs one level up
    assert contraction_complex_euler(VectorField((x ** 3, y)), (0,)) == 2
    assert truncated_quotient_dim((x ** 2, y), 1) == (1, False)
    assert truncated_quotient_dim((x ** 2, y), 2) == (2, True)


def test_euler_empty_divisor_is_poincare_hopf():
    x, y = Poly.variables(2)
    assert contraction_complex_euler(VectorField((y ** 2, -x ** 2)), ()) == 4
    assert contraction_complex_euler(VectorField((x, y)), ()) == 1


def test_tangency_and_divisor_guards():
    x, y = Poly.variables(2)
    with pytest.raises(NotInvariant):
        contraction_complex_euler(VectorField((x, x)), y)
    with pytest.raises(NotLogarithmic):
        contraction_complex_euler(VectorField((Poly.const(2, 1), y)), (0,))


def test_bad_oracle_input_raises_invalid_input():
    # checked by raising, not by assert, so python -O keeps the checks
    x, y = Poly.variables(2)
    v = VectorField((2 * x, 3 * y))
    with pytest.raises(InvalidInput):
        truncated_quotient_dim((), 4)
    with pytest.raises(InvalidInput):
        truncated_quotient_dim((x, Poly.var(3, 1)), 4)
    for divisor in ((5,), (-1,), (0, "x"), (0.5,), 5, ([0],), (True,)):
        with pytest.raises(InvalidInput):
            contraction_complex_euler(v, divisor)
    # below level 1 every quotient reads 0, which would pass as stabilized
    for level in (-1, 0, 2.5, "3", True, None):
        with pytest.raises(InvalidInput):
            truncated_quotient_dim((x, y), level)
    with pytest.raises(InvalidInput):
        contraction_complex_euler(v, Poly.zero(2))
    with pytest.raises(InvalidInput):
        contraction_complex_euler(v, Poly.var(3, 0))


def divisors(n):
    """Coordinate divisors of n variables, valid or not: collections of ints
    in [-1, n], bools, floats, strings and lists, or a non-iterable."""
    entry = st.one_of(st.integers(-1, n), st.booleans(),
                      st.floats(allow_nan=False), st.text(max_size=2),
                      st.lists(st.integers(0, n), max_size=2))
    return st.one_of(st.lists(st.integers(0, n - 1), max_size=4),
                     st.lists(st.integers(-1, n), max_size=4).map(tuple),
                     st.lists(entry, max_size=4),
                     st.one_of(st.integers(), st.floats(allow_nan=False),
                               st.none()))


def is_divisor(divisor, n):
    return (isinstance(divisor, (list, tuple))
            and all(type(i) is int and 0 <= i < n for i in divisor))


@seed(29)
@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(
    lambda n: st.tuples(st.just(n), divisors(n))))
def test_one_rule_checks_every_coordinate_divisor(case):
    # a field logarithmic along every coordinate hyperplane, so only the
    # divisor itself can be refused
    n, divisor = case
    xs = Poly.variables(n)
    v = VectorField(tuple(x * (k + 2 + xs[(k + 1) % n])
                          for k, x in enumerate(xs)))
    try:
        want = log_index(v, divisor).value
    except InvalidInput:
        assert not is_divisor(divisor, n)
        with pytest.raises(InvalidInput):
            contraction_complex_euler(v, divisor)
    else:
        assert is_divisor(divisor, n)
        assert contraction_complex_euler(v, divisor) == want
    # the same indices as homogeneous coordinates of P^n: a diagonal field
    # leaves all n + 1 coordinate hyperplanes invariant
    fol = ProjectiveFoliation.from_affine_field(
        VectorField(tuple((k + 1) * x for k, x in enumerate(xs))))
    points = [ProjPoint(tuple(int(i == k) for i in range(n + 1)))
              for k in range(n + 1)]
    if divisor and is_divisor(divisor, n + 1):
        run_global_check(fol, "log_bb", points=points, divisor=divisor)
    else:
        with pytest.raises(InvalidInput):
            run_global_check(fol, "log_bb", points=points, divisor=divisor)


def _form_row(cx, form):
    """Primitive integer row of a polyring form, in the columns of cx."""
    row = {cx.key(K, e): c
           for K, p in form.coeffs.items() for e, c in p.terms.items()}
    den = lcm(*(c.denominator for c in row.values()))
    ints = {k: int(c * den) for k, c in row.items()}
    g = gcd(*ints.values())
    return {k: a // g for k, a in ints.items()}


def _form_degree(form):
    return max((p.degree() for p in form.coeffs.values()), default=-1)


def _random_poly(rng, n, low=0, high=2, terms=3):
    mons = [e for e in itertools.product(range(high + 1), repeat=n)
            if low <= sum(e) <= high]
    return Poly(n, {e: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for e in rng.sample(mons, rng.randint(1, terms))})


def _row_id(row):
    return None if row is None else tuple(sorted(row.items()))


@pytest.mark.parametrize("n, level", [(2, 5), (3, 3)])
def test_rows_match_the_exterior_algebra(n, level):
    # the oracle builds its rows from integer terms; polyring's contract
    # and wedge and the reference exterior_derivative fix the signs they
    # must agree with.
    # Level N reads the basis forms whose row has degree below N or whose
    # |e| is below the window, and the relations of degree below N.
    rng = random.Random(7 + n)
    window = level - 1
    in_window_only = 0
    mons = [e for e in itertools.product(range(level), repeat=n)
            if sum(e) < level]
    for _ in range(4):
        w = VectorField(tuple(_random_poly(rng, n) for _ in range(n)))
        f = _random_poly(rng, n, 1, 3, 4)
        cx = jetoracle._Complex(
            jetoracle._integer_terms(w.components),
            jetoracle._integer_terms([f])[0], check=True)
        phi, rel = cx.rows(level, window)
        # the complex on a hypersurface has forms of degree below n
        assert phi[0] == []
        for j in range(1, n):
            want = {}
            for I in itertools.combinations(range(n), j):
                for e in mons:
                    image = contract(DiffForm(n, j, {I: Poly.monomial(e)}), w)
                    deg = max(sum(e), _form_degree(image))
                    if deg < level or sum(e) < window:
                        want[cx.key(I, e)] = (deg, _form_row(cx, image))
            assert len(phi[j]) == len(want)
            assert {k: (deg, row) for k, deg, row in phi[j]} == want
            in_window_only += sum(1 for deg, _ in want.values()
                                  if deg >= level)
        df = exterior_derivative(f)
        for j in range(n):
            forms = [DiffForm(n, j, {I: f * Poly.monomial(a)})
                     for I in itertools.combinations(range(n), j)
                     for a in mons]
            if j:
                forms += [wedge(df, DiffForm(n, j - 1, {J: Poly.monomial(a)}))
                          for J in itertools.combinations(range(n), j - 1)
                          for a in mons]
            want = Counter()
            for form in forms:
                if form.is_zero() or _form_degree(form) >= level:
                    continue
                pushed = None
                if j:
                    image = contract(form, w)
                    if _form_degree(image) < level:
                        pushed = _form_row(cx, image)
                want[_row_id(_form_row(cx, form)), _row_id(pushed)] += 1
            assert Counter((_row_id(row), _row_id(pushed))
                           for row, pushed in rel[j]) == want
    # some window rows reach the level, and are read all the same
    assert in_window_only


_nonzero_rationals = st.fractions(min_value=-6, max_value=6,
                                  max_denominator=7).filter(bool)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), _nonzero_rationals, _nonzero_rationals)
def test_euler_ignores_constant_factors(case, a, b):
    # the oracle scales v and f to integer terms, which needs exactly this
    x, y = Poly.variables(2)
    field, germ = [((2 * x, 3 * y), y ** 2 - x ** 3),
                   ((-y, x), x ** 2 + y ** 2),
                   ((x ** 2, y), (0,)),
                   ((2 * x, 3 * y + x * y), (0, 1)),
                   ((y ** 2, -x ** 2), ())][case]
    scaled_germ = b * germ if isinstance(germ, Poly) else germ
    assert (contraction_complex_euler(VectorField(tuple(a * c for c in field)),
                                      scaled_germ)
            == contraction_complex_euler(VectorField(field), germ))


def test_self_checks_raise_route_conflict(monkeypatch):
    # faults injected into the row builders must trip the self-checks
    x, y = Poly.variables(2)
    real_contraction = jetoracle._contraction_terms

    def patch_contraction(extra):
        def contraction(comps, I):
            out = real_contraction(comps, I)
            if len(I) == 1:
                out[((), extra)] = out.get(((), extra), 0) + 1
            return out
        monkeypatch.setattr(jetoracle, "_contraction_terms", contraction)

    # a term far above the level pushes the window past the boundary
    patch_contraction((40, 0))
    with pytest.raises(RouteConflict, match="window"):
        contraction_complex_euler(VectorField((2 * x, 3 * y)), y ** 2 - x ** 3)
    monkeypatch.setattr(jetoracle, "_contraction_terms", real_contraction)

    # relations built from the wrong differential, d(f + x), are not closed
    # under contraction
    real_wedge = jetoracle._wedge_df_terms

    def wedge_df(grad, J):
        dx = dict(grad[0])
        dx[(0, 0)] = dx.get((0, 0), 0) + 1
        return real_wedge([dx] + grad[1:], J)

    monkeypatch.setattr(jetoracle, "_wedge_df_terms", wedge_df)
    with pytest.raises(RouteConflict, match="relation span"):
        contraction_complex_euler(VectorField((2 * x, 3 * y)), y ** 2 - x ** 3)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(-5, 5)), max_size=5),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(-5, 5)), min_size=1, max_size=4))
def test_exact_division(p_terms, f_terms):
    p = Poly(2, {(a, b): c for a, b, c in p_terms})
    f = Poly(2, {(a, b): c for a, b, c in f_terms})
    assume(not f.is_zero())
    assert jetoracle._divide(p * f, f) == p
    if f.degree() > 0:
        assert jetoracle._divide(p * f + Poly.const(2, 1), f) is None


def test_non_reduced_curve_never_stabilizes():
    # on the double line the top homology keeps growing with the window
    x, y = Poly.variables(2)
    with pytest.raises(TruncationNotStabilized):
        contraction_complex_euler(VectorField((x, y)), y ** 2)


_sparse_rows = st.lists(st.dictionaries(st.integers(0, 9),
                                        st.integers(-5, 5).filter(bool),
                                        max_size=5), max_size=8)


@settings(max_examples=200, deadline=None)
@given(_sparse_rows, _sparse_rows)
def test_extending_a_copied_echelon(a, b):
    # an echelon of A, copied, extends to one of A + B and stays as it was
    pivots = {}
    integer_rank(a, pivots)
    before = {k: dict(row) for k, row in pivots.items()}
    assert integer_rank(b, dict(pivots)) == integer_rank(a + b)
    assert pivots == before


@settings(max_examples=300, deadline=None)
@given(_sparse_rows, _sparse_rows)
def test_echelon_contract(given_rows, rows):
    # fresh and extending the echelon of given_rows: the rank, the pivot
    # columns, which are the lowest columns of the row space whichever rows
    # become pivots, and inputs that stay as they were
    for start in ([], given_rows):
        inputs = [(row, dict(row)) for row in start + rows]
        pivots = {}
        integer_rank(start, pivots)
        stored = [(row, dict(row)) for row in pivots.values()]
        rank = integer_rank(rows, pivots)
        dense = [[row.get(k, 0) for k in range(10)] for row in start + rows]
        assert rank == _fraction_rank(dense, 10)
        assert sorted(pivots) == _fraction_pivots(dense, 10)
        # a pivot is a given row, stored as it is, or one the call built,
        # primitive
        for k, row in pivots.items():
            assert min(row) == k
            assert (gcd(*row.values()) == 1
                    or any(row is given for given in start + rows))
        assert all(row == before for row, before in inputs + stored)


def test_a_shorter_row_displaces_a_longer_pivot():
    # the shorter row takes column 0 as it is; the old pivot, reduced
    # against it, moves to column 1, primitive, and its own dict is left
    # alone
    longer, shorter = {0: 1, 1: 1, 2: 1}, {0: 2, 1: 4}
    pivots = {}
    assert integer_rank([longer], pivots) == 1
    assert pivots[0] is longer
    assert integer_rank([shorter], pivots) == 2
    assert pivots[0] is shorter
    assert pivots == {0: {0: 2, 1: 4}, 1: {1: -1, 2: 1}}
    assert longer == {0: 1, 1: 1, 2: 1} and shorter == {0: 2, 1: 4}


def test_given_rows_are_stored_without_a_gcd(monkeypatch):
    # most rows of an oracle complex are given primitive and reach an empty
    # column untouched; storing one takes no gcd
    calls = []
    primitive = jetoracle._primitive
    monkeypatch.setattr(jetoracle, "_primitive",
                        lambda row: calls.append(row) or primitive(row))
    rows = [{0: 2, 3: 4}, {1: 1, 2: -1}, {2: 6}, {4: -3, 5: 1}]
    pivots = {}
    assert integer_rank(rows, pivots) == 4
    assert calls == []
    assert all(pivots[min(row)] is row for row in rows)


@st.composite
def _form_rows(draw):
    n = draw(st.sampled_from((2, 3)))
    j = draw(st.integers(0, n - 1))
    forms = list(itertools.combinations(range(n), j))
    column = st.tuples(st.sampled_from(forms),
                       st.tuples(*[st.integers(0, 3)] * n))
    rows = draw(st.lists(st.dictionaries(column,
                                         st.integers(-4, 4).filter(bool),
                                         max_size=5), max_size=8))
    return n, rows


@settings(max_examples=150, deadline=None)
@given(_form_rows())
def test_pivot_count_at_high_degree_is_the_rank_there(case):
    # columns of higher degree come first in the key order, so the rows cut
    # down to the columns of degree >= w have as rank the pivots there
    n, forms = case
    cx = jetoracle._Complex([{}] * n, {}, check=False)
    rows = [{cx.key(K, e): c for (K, e), c in row.items()} for row in forms]
    pivots = {}
    integer_rank(rows, pivots)
    for w in range(3 * n + 2):
        high = [{k: c for k, c in row.items() if k % cx.base >= w}
                for row in rows]
        assert (sum(1 for k in pivots if k % cx.base >= w)
                == integer_rank(high)), w


def test_oracle_checks_the_unit_factor_probes():
    # the divided components are units at the origin; their zeros away from
    # it (x == -1 and the like) are not part of the local index
    x, y = xs = Poly.variables(2)
    rng = random.Random(11)
    fields = [((x * (1 + y), y * (2 + x)), (0,)),
              ((x * (1 + x), 2 * y), (0,))]
    for u_var, w_var, divisor in [(0, None, (0,)), (0, 0, (0,)),
                                  (0, 1, (0,)), (0, 1, (0, 1)),
                                  (1, 0, (0,)), (1, 0, (0, 1))]:
        a, b, c, d = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(4))
        w = c + d * xs[w_var] if w_var is not None else Poly.const(2, c)
        fields.append(((x * (a + b * xs[u_var]), y * w), divisor))
    for comps, divisor in fields:
        report = log_index(VectorField(comps), divisor, oracle=True)
        assert report.value == 0
        assert [c[:2] for c in report.crosschecks] == [
            ("truncation-oracle", True)], comps


def test_oracle_still_conflicts_on_a_unit_factor_hypersurface():
    # known defect: the hypersurface complex drops every product that
    # reaches the truncation degree, so it counts the zeros of 1 + x away
    # from the origin, although a unit factor changes no local index
    x, y = Poly.variables(2)
    v = VectorField(((1 + x) * 2 * x, (1 + x) * 3 * y))
    assert homological_index(v, y ** 2 - x ** 3).value == -1
    with pytest.raises(RouteConflict):
        homological_index(v, y ** 2 - x ** 3, oracle=True)


@st.composite
def _log_fields_and_units(draw):
    """A field logarithmic along a coordinate divisor D, and a unit
    c + linear terms with c != 0."""
    n = draw(st.sampled_from((2, 3)))
    xs = Poly.variables(n)
    mons = [e for e in itertools.product(range(3), repeat=n) if sum(e) <= 2]
    divisor = draw(st.sets(st.integers(0, n - 1), min_size=1))
    comps = [Poly(n, draw(st.dictionaries(st.sampled_from(mons),
                                          st.integers(-3, 3),
                                          min_size=1, max_size=3)))
             for _ in range(n)]
    unit = Poly(n, {e: draw(st.integers(-3, 3))
                    for e in mons if sum(e) == 1})
    unit += draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    return (VectorField(tuple(x * c if i in divisor else c
                              for i, (x, c) in enumerate(zip(xs, comps)))),
            tuple(sorted(divisor)), unit)


@settings(max_examples=40, deadline=None)
@given(_log_fields_and_units())
def test_oracle_log_index_ignores_unit_factors(case):
    v, divisor, unit = case
    try:
        want = log_index(v, divisor, oracle=True).value
    except NotZeroDimensional:
        assume(False)
    scaled = VectorField(tuple(unit * c for c in v.components))
    assert log_index(scaled, divisor, oracle=True).value == want
