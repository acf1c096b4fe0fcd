"""Local index computations against hand-computed values."""

import random
from fractions import Fraction

import pytest

from folindex import indices, localalgebra
from folindex.errors import (
    DegenerateDecomposition,
    DegenerateMinors,
    InvalidInput,
    NotInvariant,
    NotLogarithmic,
    NotZeroDimensional,
    ResourceCap,
    RouteConflict,
)
from folindex.indices import (
    cs_index,
    gsv_curve,
    gsv_pfaff_curve,
    homological_index,
    log_index,
    milnor_number,
    ph_index,
    radial_index,
    saito_decomposition,
    tangency_cofactor,
    tjurina_number,
    var_index,
)
from folindex.localalgebra import step_budget
from folindex.polyring import DiffForm, Poly, VectorField, dual_form
from folindex.series import BranchParam


def xy():
    return Poly.variables(2)


def branch_poly(*polys, order=12):
    return BranchParam.from_polys(polys, order)


def test_milnor():
    x, y = xy()
    assert milnor_number(x ** 3 - y ** 2).value == 2
    assert milnor_number(x ** 3 + y ** 3).value == 4
    moved = (x - 1) ** 3 - (y + 2) ** 2
    assert milnor_number(moved, point=(1, -2)).value == 2
    with pytest.raises(NotZeroDimensional):
        milnor_number(x ** 2)


def test_tjurina():
    x, y = xy()
    assert tjurina_number(x ** 3 - y ** 2).value == 2
    assert tjurina_number(x ** 4 + y ** 4).value == 9


def test_ph_index():
    x, y = xy()
    rep = ph_index(VectorField((y ** 2, -x ** 2)))
    assert rep.value == 4
    assert rep.crosschecks and all(ok for _, ok, _ in rep.crosschecks)
    assert ph_index(VectorField((x, Fraction(1, 2) * y))).value == 1
    with pytest.raises(NotZeroDimensional):
        ph_index(VectorField((x, x * y)))


def test_tangency_cofactor():
    x, y = xy()
    h = tangency_cofactor(VectorField((2 * x, 3 * y)), y ** 2 - x ** 3)
    assert h == Poly.const(2, 6)
    with pytest.raises(NotInvariant):
        tangency_cofactor(VectorField((x, x)), y)
    with pytest.raises(InvalidInput):
        tangency_cofactor(VectorField((x, y)), Poly.zero(2))
    with pytest.raises(InvalidInput):
        tangency_cofactor(VectorField((x, y)), Poly.var(3, 0))


def test_homological_index_plane():
    x, y = xy()
    cusp = y ** 2 - x ** 3
    rep = homological_index(VectorField((2 * x, 3 * y)), cusp, oracle=True)
    assert rep.value == -1
    assert all(ok for _, ok, _ in rep.crosschecks)
    assert homological_index(VectorField((-y, x)), x ** 2 + y ** 2).value == 0
    assert homological_index(VectorField((x, -y)), x * y).value == 0


def test_homological_index_space():
    X, Y, Z = Poly.variables(3)
    radial = VectorField((X, Y, Z))
    assert homological_index(radial, X ** 2 + Y ** 2 + Z ** 2).value == 2
    assert homological_index(radial, X * Y - Z ** 2).value == 2


def test_saito_decomposition():
    x, y = xy()
    cusp = y ** 2 - x ** 3
    triple = saito_decomposition(VectorField((2 * x, 3 * y)), cusp)
    assert triple.variant == "fy"
    assert triple.g == 2 * y
    assert triple.xi == 2 * x
    assert triple.eta == DiffForm(2, 1, {(0,): Poly.const(2, -6)})

    triple = saito_decomposition(VectorField((3 * x, 5 * y)), y)
    assert (triple.g, triple.xi) == (Poly.const(2, 1), 3 * x)
    assert triple.eta == DiffForm(2, 1, {(0,): Poly.const(2, -5)})

    ham = saito_decomposition(VectorField((2 * y, 3 * x ** 2)), cusp)
    assert ham.g == ham.xi == 2 * y
    assert ham.eta.is_zero()

    forced = saito_decomposition(VectorField((2 * x, 3 * y)), cusp, variant="fx")
    assert forced.g == -3 * x ** 2

    with pytest.raises(DegenerateDecomposition):
        saito_decomposition(VectorField((x, -y)), x * y)


def test_gsv_curve():
    x, y = xy()
    cusp = y ** 2 - x ** 3
    rep = gsv_curve(VectorField((2 * x, 3 * y)), cusp)
    assert rep.value == -1
    assert all(ok for _, ok, _ in rep.crosschecks)
    assert gsv_curve(VectorField((x, 2 * y)), y).value == 1
    assert gsv_curve(VectorField((-y, x)), x ** 2 + y ** 2).value == 0
    assert gsv_curve(VectorField((x + y, y - x)), x ** 2 + y ** 2).value == 0
    assert gsv_curve(VectorField((Poly.const(2, 1), 2 * x)), y - x ** 2).value == 0


def test_gsv_curve_computes_each_vanishing_order_once(monkeypatch):
    # two variants on the cusp, each with the orders of g and xi
    x, y = xy()
    calls = []
    real = indices.order_along_curve

    def counted(g, curve):
        calls.append(g)
        return real(g, curve)

    monkeypatch.setattr(indices, "order_along_curve", counted)
    assert gsv_curve(VectorField((2 * x, 3 * y)), y ** 2 - x ** 3).value == -1
    assert len(calls) == 4


def test_gsv_quasihomogeneous_family():
    x, y = xy()
    for p, q in ((2, 3), (2, 5), (3, 4)):
        v = VectorField((q * x, p * y))
        f = x ** p - y ** q
        rep = gsv_curve(v, f)
        assert rep.value == p + q - p * q
        assert all(ok for _, ok, _ in rep.crosschecks)


def test_cs_index():
    x, y = xy()
    cusp = y ** 2 - x ** 3
    t = Poly.var(1, 0)
    rep = cs_index(VectorField((2 * x, 3 * y)), cusp, branch_poly(t ** 2, t ** 3))
    assert rep.value == 6
    assert rep.crosschecks and all(ok for _, ok, _ in rep.crosschecks)

    rep = cs_index(VectorField((3 * x, 5 * y)), y, branch_poly(t, Poly.zero(1)))
    assert rep.value == Fraction(5, 3)

    rep = cs_index(VectorField((-3 * x, -y)), x - y ** 3, branch_poly(t ** 3, t))
    assert rep.value == 3

    with pytest.raises(NotInvariant):
        cs_index(VectorField((2 * x, 3 * y)), cusp, branch_poly(t, t))


def test_cs_index_translated_point():
    x, y = xy()
    f = (y + 2) ** 2 - (x - 1) ** 3
    v = VectorField((2 * (x - 1), 3 * (y + 2)))
    t = Poly.var(1, 0)
    br = branch_poly(t ** 2 + 1, t ** 3 - 2)
    rep = cs_index(v, f, br, point=(1, -2))
    assert rep.value == 6


def test_var_index():
    x, y = xy()
    cusp = y ** 2 - x ** 3
    t = Poly.var(1, 0)
    rep = var_index(VectorField((2 * x, 3 * y)), cusp, branch_poly(t ** 2, t ** 3))
    assert rep.value == 5
    # the parts are summed, not compared: nothing to report as a crosscheck
    assert rep.crosschecks == []


def test_radial_index():
    x, y = xy()
    cusp = y ** 2 - x ** 3
    rep = radial_index(VectorField((2 * x, 3 * y)), cusp)
    assert rep.value == 1
    assert rep.crosschecks == []
    X, Y, Z = Poly.variables(3)
    cone = X * Y - Z ** 2
    assert radial_index(VectorField((X, Y, Z)), cone).value == 1


def test_gsv_pfaff_curve():
    X, Y, Z = Poly.variables(3)
    v = VectorField((2 * X, 3 * Y, 5 * Z))
    rep = gsv_pfaff_curve(v, (Y, Z))
    assert rep.value == 1

    v2 = VectorField((X, 2 * Y, 3 * Z))
    rep = gsv_pfaff_curve(v2, (Y - X ** 2, Z))
    assert rep.value == 1
    assert rep.crosschecks and all(ok for _, ok, _ in rep.crosschecks)

    rep_form = gsv_pfaff_curve(dual_form(v2), (Y - X ** 2, Z))
    assert rep_form.value == 1

    with pytest.raises(DegenerateMinors):
        gsv_pfaff_curve(v2, (Y ** 2, Z))
    with pytest.raises(NotInvariant):
        gsv_pfaff_curve(VectorField((Y, X, Z)), (Y, Z))


@pytest.mark.parametrize("call", [
    lambda x, y: milnor_number(y ** 2 - x ** 3, point=(1,)),
    lambda x, y: tjurina_number(y ** 2 - x ** 3, point=(0, 0, 0)),
    lambda x, y: ph_index(VectorField((x, y)), point=(0,)),
    lambda x, y: gsv_curve(VectorField((2 * x, 3 * y)), y ** 2 - x ** 3,
                           point=(0, 0, 0)),
], ids=["milnor-short", "tjurina-long", "ph-short", "gsv-long"])
def test_point_of_the_wrong_length_raises_invalid_input(call):
    with pytest.raises(InvalidInput):
        call(*xy())


@pytest.mark.parametrize("call", [
    lambda x, y: saito_decomposition(VectorField((2 * x, 3 * y)),
                                     y ** 2 - x ** 3, variant="zz"),
    lambda x, y: saito_decomposition(VectorField(Poly.variables(3)),
                                     y ** 2 - x ** 3),
    lambda x, y: gsv_curve(VectorField(Poly.variables(3)), y ** 2 - x ** 3),
    lambda x, y: cs_index(VectorField((2 * x, 3 * y)), Poly.var(3, 0),
                          BranchParam.from_polys((Poly.var(1, 0),) * 2, 8)),
    lambda x, y: gsv_pfaff_curve(VectorField(Poly.variables(3)),
                                 (Poly.var(3, 1),)),
    lambda x, y: gsv_pfaff_curve(VectorField(Poly.variables(3)),
                                 (Poly.var(3, 1), y)),
    lambda x, y: gsv_pfaff_curve(VectorField(Poly.variables(3)),
                                 (Poly.var(3, 1), "z")),
], ids=["saito-variant", "saito-space", "gsv-space", "cs-space",
        "pfaff-short", "pfaff-plane-poly", "pfaff-no-poly"])
def test_malformed_arguments_raise_invalid_input(call):
    # these were asserts: under python -O the wrong variant returned the
    # auto variant and a short curve list raised IndexError
    with pytest.raises(InvalidInput):
        call(*xy())


def test_gsv_pfaff_curve_rejects_data_that_is_no_field():
    X, Y, Z = Poly.variables(3)
    for data in (X, (X, 2 * Y, 3 * Z), DiffForm(3, 1, {(0,): X})):
        with pytest.raises(InvalidInput):
            gsv_pfaff_curve(data, (Y - X ** 2, Z))


def test_log_index():
    x, y = xy()
    assert log_index(VectorField((2 * x, 3 * y)), (0,)).value == 0
    assert log_index(VectorField((2 * x, 3 * y)), (0, 1)).value == 0
    rep = log_index(VectorField((x ** 2, y)), (0,), oracle=True)
    assert rep.value == 1
    assert all(ok for _, ok, _ in rep.crosschecks)
    with pytest.raises(NotLogarithmic):
        log_index(VectorField((Poly.const(2, 1), y)), (0,))
    # a divisor index outside the ring is bad input, also under python -O
    for divisor in ((5,), (-1,), (0, "x"), (0.5,), 5, ([0],)):
        with pytest.raises(InvalidInput):
            log_index(VectorField((2 * x, 3 * y)), divisor, oracle=True)


def test_step_budget_caps_all_calls_of_an_index():
    # gsv on the cusp makes ten standard-basis and normal-form calls of at
    # most four steps each: every call fits in 10 steps, all of them do not
    x, y = xy()
    v, f = VectorField((2 * x, 3 * y)), y ** 2 - x ** 3
    with pytest.raises(ResourceCap), step_budget(10):
        gsv_curve(v, f)
    with step_budget(200):
        assert gsv_curve(v, f).value == -1
    assert gsv_curve(v, f).value == -1


# The twelve k = 3 germs of the benchmark's _draw_exps/_sqh_germ with
# random.Random(7), plane and space alternating: the pure powers x_i^a_i
# plus three terms above the Newton boundary, so mu == prod (a_i - 1).
# Before the highest corner, tjurina_number ran past 5 s on six of them.
K3_GERMS = (
    ((5, 6), {(0, 6): 1, (1, 5): 1, (3, 4): -3, (4, 4): 3, (5, 0): 1}),
    ((2, 3, 4), {(0, 0, 4): 1, (0, 2, 3): -3, (0, 3, 0): 1, (1, 1, 4): -3,
                 (2, 0, 0): 1, (2, 3, 0): -3}),
    ((4, 4), {(0, 4): 1, (1, 4): -3, (3, 2): 1, (3, 3): 3, (4, 0): 1}),
    ((2, 4, 4), {(0, 0, 4): 1, (0, 3, 2): -3, (0, 4, 0): 1, (1, 2, 3): 3,
                 (2, 0, 0): 1, (2, 1, 1): 1}),
    ((4, 6), {(0, 6): 1, (2, 4): 1, (3, 3): -3, (3, 5): -1, (4, 0): 1}),
    ((2, 4, 4), {(0, 0, 4): 1, (0, 4, 0): 1, (0, 4, 2): -3, (1, 2, 1): 1,
                 (2, 0, 0): 1, (2, 0, 4): 2}),
    ((3, 7), {(0, 7): 1, (1, 5): 2, (2, 3): 3, (3, 0): 1, (3, 2): 1}),
    ((3, 3, 4), {(0, 0, 4): 1, (0, 3, 0): 1, (2, 0, 2): -2, (2, 1, 2): 3,
                 (2, 3, 1): -2, (3, 0, 0): 1}),
    ((4, 4), {(0, 4): 1, (2, 4): 2, (3, 3): -1, (4, 0): 1, (4, 2): -1}),
    ((2, 2, 4), {(0, 0, 4): 1, (0, 2, 0): 1, (0, 2, 4): -2, (1, 2, 1): -1,
                 (2, 0, 0): 1, (2, 0, 1): 3}),
    ((6, 9), {(0, 9): 1, (1, 9): 3, (2, 7): 1, (6, 0): 1, (6, 4): 1}),
    ((3, 3, 4), {(0, 0, 4): 1, (0, 3, 0): 1, (2, 1, 1): 1, (3, 0, 0): 1,
                 (3, 0, 2): -3, (3, 3, 0): 3}),
)


@pytest.mark.parametrize("exps, terms", K3_GERMS)
def test_k3_germs_within_a_small_budget(exps, terms):
    f = Poly(len(exps), terms)
    mu = 1
    for a in exps:
        mu *= a - 1
    with step_budget(200):
        assert milnor_number(f).value == mu
        assert 1 <= tjurina_number(f).value <= mu


def test_saito_self_checks_raise_route_conflict(monkeypatch):
    # _saito_triple is called directly: tangency_cofactor divides too
    x, y = xy()
    v, f = VectorField((2 * x, 3 * y)), y ** 2 - x ** 3
    exact = indices.exact_divide
    monkeypatch.setattr(indices, "exact_divide", lambda p, g: None)
    with pytest.raises(RouteConflict, match="tangency guarantees"):
        indices._saito_triple(v, f, "fy")
    monkeypatch.setattr(indices, "exact_divide",
                        lambda p, g: exact(p, g) + x)
    with pytest.raises(RouteConflict, match="decomposition identity"):
        indices._saito_triple(v, f, "fx")


def _acceptance_moves():
    """The 25 invertible integer matrices of acceptance criterion 10."""
    rng = random.Random(17)
    out = []
    while len(out) < 25:
        a, b, c, d = (rng.randrange(-3, 4) for _ in range(4))
        if a * d - b * c:
            out.append((a, b, c, d))
    return out


def _moved_anchor(move, p=3, q=4):
    """y^p - x^q with (p x, q y) and the branch (t^p, t^q), moved by the
    linear change x = A x' for A = ((a, b), (c, d))."""
    a, b, c, d = move
    x, y = xy()
    t = Poly.var(1, 0)
    det = a * d - b * c
    inv = ((Fraction(d, det), Fraction(-b, det)),
           (Fraction(-c, det), Fraction(a, det)))
    sub = (a * x + b * y, c * x + d * y)
    f = (y ** p - x ** q).subst(sub)
    w = ((p * x).subst(sub), (q * y).subst(sub))
    v = VectorField(tuple(r[0] * w[0] + r[1] * w[1] for r in inv))
    br = BranchParam.from_polys(
        tuple(r[0] * t ** p + r[1] * t ** q for r in inv), 4 * p * q)
    return v, f, br


@pytest.mark.parametrize("move", _acceptance_moves(), ids=str)
def test_var_index_is_gsv_plus_cs_under_coordinate_changes(move):
    v, f, br = _moved_anchor(move)
    gsv = gsv_curve(v, f)
    cs = cs_index(v, f, br)
    var = var_index(v, f, br)
    assert (gsv.value, cs.value) == (3 + 4 - 12, 12)
    assert var.value == gsv.value + cs.value == 3 + 4
    assert var.method == "sum-of-parts" and var.crosschecks == []


def _counted_bases(monkeypatch):
    calls = []
    real = localalgebra.standard_basis

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(localalgebra, "standard_basis", counted)
    return calls


def test_var_index_shares_one_decomposition(monkeypatch):
    # four orders along the curve and the homological route's two
    # dimensions, once: gsv_curve makes 6 bases, cs_index 4, var_index 6
    v, f, br = _moved_anchor(_acceptance_moves()[2])
    calls = _counted_bases(monkeypatch)
    counts = []
    for call in (lambda: gsv_curve(v, f), lambda: cs_index(v, f, br),
                 lambda: var_index(v, f, br)):
        del calls[:]
        call()
        counts.append(len(calls))
    assert counts == [6, 4, 6]


def test_var_index_keeps_its_error_classes():
    x, y = xy()
    t = Poly.var(1, 0)
    axis = BranchParam.from_polys((t, 0 * t), 20)
    cusp_branch = BranchParam.from_polys((t ** 2, t ** 3), 20)
    # the node: both decomposition variants vanish along a branch
    with pytest.raises(DegenerateDecomposition):
        var_index(VectorField((x, -y)), x * y, axis)
    # the decomposition is checked before the truncation order
    with pytest.raises(DegenerateDecomposition):
        var_index(VectorField((x, -y)), x * y, axis, max_order=0)
    with pytest.raises(InvalidInput):
        var_index(VectorField((2 * x, 3 * y)), y ** 2 - x ** 3, cusp_branch,
                  max_order=0)
    with pytest.raises(NotInvariant):
        var_index(VectorField((x, x + y)), y ** 2 - x ** 3, cusp_branch)
    with pytest.raises(NotInvariant):
        var_index(VectorField((2 * x, 3 * y)), y ** 2 - x ** 3,
                  BranchParam.from_polys((t, t), 20))
    X, Y, Z = Poly.variables(3)
    with pytest.raises(InvalidInput):
        var_index(VectorField((X, Y, Z)), X * Y - Z ** 2,
                  BranchParam.from_polys((t, t, t), 20))
