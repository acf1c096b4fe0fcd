"""Local index computations against hand-computed values."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from folindex import indices, localalgebra, residues
from folindex.errors import (
    DegenerateDecomposition,
    FolindexError,
    DegenerateMinors,
    InvalidInput,
    NotInvariant,
    NotLogarithmic,
    NotZeroDimensional,
    ResourceCap,
    RouteConflict,
    TruncationNotStabilized,
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
from folindex.polyring import (
    DiffForm,
    Poly,
    VectorField,
    dual_form,
    field_from_dual,
)
from folindex.series import BranchParam, TruncSeries, moved, newton_lift


def xy():
    return Poly.variables(2)


def branch_poly(*polys, order=12):
    return BranchParam.from_polys(polys, order)


def branch_by_hand(*polys, order):
    """A hand-entered branch: known to order, with no lift."""
    return BranchParam(TruncSeries.from_poly(p, order) for p in polys)


def branch_lifted(*polys, order):
    """An extendable series branch: known to order, and re-lifted through
    its callback past it."""
    return BranchParam((TruncSeries.from_poly(p, order) for p in polys),
                       lift=lambda n: branch_lifted(*polys, order=n))


def test_milnor():
    x, y = xy()
    assert milnor_number(x ** 3 - y ** 2).value == 2
    assert milnor_number(x ** 3 + y ** 3).value == 4
    cusp_at = (x - 1) ** 3 - (y + 2) ** 2
    assert milnor_number(moved(cusp_at, (1, -2))).value == 2
    with pytest.raises(NotZeroDimensional):
        milnor_number(x ** 2)


def test_ph_index_at_a_regular_point():
    # the components generate the unit ideal: power bound 1
    x, y = xy()
    rep = ph_index(VectorField((1 + x, y)))
    assert rep.value == 0
    assert rep.crosschecks == [("jacobian-residue", True,
                                "residue 0 at power bound 1")]


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
    v = VectorField((2 * x, 3 * y))
    triple = saito_decomposition(v, cusp)
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

    # the fx variant, which the index routes check against the first
    fy, fx = indices._saito_variants(v, cusp, tangency_cofactor(v, cusp))
    assert fy == saito_decomposition(v, cusp) and fx.variant == "fx"
    assert fx.g == -3 * x ** 2

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
    rep = cs_index(*moved((v, f, br), (1, -2)))
    assert rep.value == 6


def test_var_index():
    x, y = xy()
    cusp = y ** 2 - x ** 3
    t = Poly.var(1, 0)
    rep = var_index(VectorField((2 * x, 3 * y)), cusp, branch_poly(t ** 2, t ** 3))
    assert rep.value == 5
    # the parts are summed, not compared: nothing to report as a crosscheck
    assert rep.crosschecks == []


def test_hand_entered_branch_is_read_to_its_own_order():
    # y vanishes to order 25 along (t^2, t^25), so the fx variant's residue
    # needs working order 51; the branch's own order is the ceiling
    x, y = xy()
    t = Poly.var(1, 0)
    v, f = VectorField((2 * x, 25 * y)), y ** 2 - x ** 25
    for order in (51, 60, 160):
        br = branch_by_hand(t ** 2, t ** 25, order=order)
        assert cs_index(v, f, br).value == 50
    with pytest.raises(TruncationNotStabilized):
        cs_index(v, f, branch_by_hand(t ** 2, t ** 25, order=50))


def test_branch_order_past_160_comes_from_the_germ():
    # y vanishes to order 101 along the branch, so the residue needs
    # working order 203; the germ's ceiling is 2 * 2 * 101 + 1
    x, y = xy()
    t = Poly.var(1, 0)
    v, f = VectorField((2 * x, 101 * y)), y ** 2 - x ** 101
    br = branch_poly(t ** 2, t ** 101)
    assert cs_index(v, f, br).value == 202
    assert var_index(v, f, br).value == 103


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 14).flatmap(lambda p: st.tuples(
    st.just(p), st.integers(p + 1, 15), st.integers(1, 45 // p)))
    .filter(lambda c: gcd(c[0], c[1]) == 1))
def test_cs_and_var_along_covers_of_quasihomogeneous_cusps(case):
    # (t^kp, t^kq) is a k-fold cover of the branch of y^p - x^q; a
    # hand-entered branch cut at the germ's ceiling 2 kp q + 1 suffices
    p, q, k = case
    x, y = xy()
    t = Poly.var(1, 0)
    v, f = VectorField((p * x, q * y)), y ** p - x ** q
    comps = (t ** (k * p), t ** (k * q))
    assert cs_index(v, f, branch_poly(*comps)).value == k * p * q
    var = var_index(v, f, branch_poly(*comps)).value
    assert var == p + q - p * q + k * p * q
    by_hand = branch_by_hand(*comps, order=2 * k * p * q + 1)
    assert cs_index(v, f, by_hand).value == k * p * q


def test_cs_and_var_along_a_newton_lift_branch():
    # the lifted branch is extendable: its ceiling comes from the germ
    x, y = xy()
    v, f = VectorField((x, 2 * y)), y - x ** 2
    br = newton_lift(f, 8)
    assert cs_index(v, f, br).value == 2
    assert var_index(v, f, br).value == 3
    assert gsv_curve(v, f).value == 1


def test_series_branches_moved_from_a_point():
    # the same germ written at (1, -2): an extendable branch re-lifts and
    # is moved again at each order, a hand-entered one is moved once
    x, y = xy()
    t = Poly.var(1, 0)
    at = (1, -2)
    v = VectorField((x - 1, 2 * (y + 2)))
    f = (y + 2) - (x - 1) ** 2

    def lifted_at(order):
        comps = newton_lift(y - x ** 2, order).comps
        return BranchParam((s + q for s, q in zip(comps, at)), lift=lifted_at)

    by_hand = branch_by_hand(1 + t, -2 + t ** 2, order=12)
    for br in (lifted_at(8), by_hand):
        assert cs_index(*moved((v, f, br), at)).value == 2


@pytest.mark.parametrize("comps, message", [
    ((1 + Poly.var(1, 0), Poly.var(1, 0) ** 2), "does not pass through"),
    ((Poly.zero(1), Poly.zero(1)), "is constant"),
], ids=["misses-the-point", "constant"])
def test_bad_polynomial_branch_is_not_invariant(comps, message):
    x, y = xy()
    with pytest.raises(NotInvariant, match=message):
        cs_index(VectorField((x, 2 * y)), y - x ** 2, branch_poly(*comps))


@pytest.mark.parametrize("comps, message", [
    ((1 + Poly.var(1, 0), Poly.var(1, 0) ** 2), "does not pass through"),
    ((Poly.zero(1), Poly.zero(1)), "is constant"),
    ((Poly.var(1, 0), Poly.var(1, 0)), "does not lie on the curve"),
], ids=["misses-the-point", "constant", "leaves-the-curve"])
def test_bad_series_branch_is_not_invariant(comps, message):
    # capped and extendable alike
    x, y = xy()
    for make in (branch_by_hand, branch_lifted):
        with pytest.raises(NotInvariant, match=message):
            cs_index(VectorField((x, 2 * y)), y - x ** 2,
                     make(*comps, order=12))


def test_polynomial_branch_is_checked_exactly():
    # both branches agree with a branch of the curve to order 20 and leave
    # it later; a branch given by polynomials is checked past any order
    x, y = xy()
    t = Poly.var(1, 0)
    with pytest.raises(NotInvariant, match="does not lie on the curve"):
        cs_index(VectorField((x, y)), y, branch_poly(t, t ** 25))
    with pytest.raises(NotInvariant, match="does not lie on the curve"):
        cs_index(VectorField((2 * x, 3 * y)), y ** 2 - x ** 3,
                 branch_poly(t ** 2, t ** 3 + t ** 30))


def test_branch_vanishing_past_order_20_is_lifted():
    # (t^21, t^30) is a threefold cover of the branch (t^7, t^10) and is
    # zero to order 20; a hand-entered copy is cut at the germ's ceiling
    # 2 kp q + 1
    x, y = xy()
    t = Poly.var(1, 0)
    v, f = VectorField((7 * x, 10 * y)), y ** 7 - x ** 10
    assert cs_index(v, f, branch_poly(t ** 7, t ** 10)).value == 70
    assert cs_index(v, f, branch_poly(t ** 21, t ** 30)).value == 210
    by_hand = branch_by_hand(t ** 21, t ** 30, order=2 * 21 * 10 + 1)
    assert cs_index(v, f, by_hand).value == 210
    # an extendable series branch is read for ord_t at its own order, 421,
    # and not cut to 20 first, where it is zero
    assert cs_index(v, f, branch_lifted(t ** 21, t ** 30, order=421)
                    ).value == 210
    # a twofold cover given at order 12, where it is zero, is lifted to 20
    assert cs_index(v, f, branch_lifted(t ** 14, t ** 20, order=12)
                    ).value == 140


def test_series_branch_is_checked_past_the_orders_it_vanishes_to():
    # along the regular field d/dx every xi is a unit and the residue is 0
    # at any order; the first working order is past ord_t(gamma) == 25, so
    # the check on the curve sees the t^30 that order 20 would not, for a
    # capped and an extendable branch alike
    x, y = xy()
    t = Poly.var(1, 0)
    v = VectorField((Poly.const(2, 1), Poly.zero(2)))
    for make in (branch_by_hand, branch_lifted):
        with pytest.raises(NotInvariant, match="does not lie on the curve"):
            cs_index(v, y, make(t ** 25, t ** 30, order=40))
        assert cs_index(v, y, make(t ** 25, 0 * t, order=40)).value == 0


def test_extendable_branch_is_checked_from_order_20():
    # an extendable branch given at order 12 is lifted to 20 before it is
    # checked, so the t^15 that leaves the parabola shows; a capped one is
    # read to its own order 12, below it
    x, y = xy()
    t = Poly.var(1, 0)
    v, f = VectorField((x, 2 * y)), y - x ** 2
    comps = (t, t ** 2 + t ** 15)
    with pytest.raises(NotInvariant, match="does not lie on the curve"):
        cs_index(v, f, branch_lifted(*comps, order=12))
    assert cs_index(v, f, branch_by_hand(*comps, order=12)).value == 2


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

    rep_form = gsv_pfaff_curve(field_from_dual(dual_form(v2)), (Y - X ** 2, Z))
    assert rep_form.value == 1

    with pytest.raises(DegenerateMinors):
        gsv_pfaff_curve(v2, (Y ** 2, Z))
    with pytest.raises(NotInvariant):
        gsv_pfaff_curve(VectorField((Y, X, Z)), (Y, Z))


@pytest.mark.parametrize("call", [
    lambda x, y: milnor_number(moved(y ** 2 - x ** 3, (1,))),
    lambda x, y: tjurina_number(moved(y ** 2 - x ** 3, (0, 0, 0))),
    lambda x, y: ph_index(moved(VectorField((x, y)), (0,))),
    lambda x, y: gsv_curve(*moved((VectorField((2 * x, 3 * y)),
                                   y ** 2 - x ** 3), (0, 0, 0))),
    lambda x, y: moved(dual_form(VectorField((2 * x, 3 * y))), (0, 0, 0)),
    lambda x, y: moved(DiffForm(2, 1), (0,)),
    lambda x, y: moved(branch_poly(Poly.var(1, 0) ** 2, Poly.var(1, 0) ** 3),
                       (0,)),
    lambda x, y: moved(branch_by_hand(Poly.var(1, 0) ** 2,
                                      Poly.var(1, 0) ** 3, order=8),
                       (0, 0, 0)),
    lambda x, y: moved(x, (True, 0)),
    lambda x, y: moved(x, 5),
    lambda x, y: moved(branch_poly(Poly.var(1, 0) ** 2, Poly.var(1, 0) ** 3),
                       (0, True)),
    lambda x, y: moved(branch_poly(Poly.var(1, 0) ** 2, Poly.var(1, 0) ** 3),
                       5),
    lambda x, y: branch_by_hand(Poly.var(1, 0) ** 2, Poly.var(1, 0) ** 3,
                                order=8).moved((False, 0)),
    lambda x, y: branch_by_hand(Poly.var(1, 0) ** 2, Poly.var(1, 0) ** 3,
                                order=8).moved(5),
], ids=["milnor-short", "tjurina-long", "ph-short", "gsv-long", "form-long",
        "zero-form-short", "branch-short", "series-branch-long", "poly-bool",
        "poly-not-a-point", "branch-bool", "branch-not-a-point",
        "series-branch-bool", "series-branch-not-a-point"])
def test_point_of_the_wrong_length_raises_invalid_input(call):
    # moved rejects a point that is not one of the data's space, for every
    # kind of data that has coordinates: a bool is no coordinate, and a
    # number is no point
    with pytest.raises(InvalidInput):
        call(*xy())


@pytest.mark.parametrize("call", [
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
    lambda x, y: gsv_pfaff_curve(VectorField((2 * x, 3 * y)),
                                 y ** 2 - x ** 3),
    lambda x, y: cs_index(VectorField((2 * x, 3 * y)), y ** 2 - x ** 3, 5),
    lambda x, y: cs_index(VectorField((2 * x, 3 * y)), y ** 2 - x ** 3,
                          None),
    lambda x, y: cs_index(VectorField((2 * x, 3 * y)), y ** 2 - x ** 3,
                          (Poly.var(1, 0) ** 2, Poly.var(1, 0) ** 3)),
    lambda x, y: var_index(VectorField((2 * x, 3 * y)), y ** 2 - x ** 3, 5),
    lambda x, y: var_index(VectorField((2 * x, 3 * y)), y ** 2 - x ** 3,
                           None),
    lambda x, y: var_index(VectorField((2 * x, 3 * y)), y ** 2 - x ** 3,
                           (Poly.var(1, 0) ** 2, Poly.var(1, 0) ** 3)),
], ids=["saito-space", "gsv-space", "cs-space",
        "pfaff-short", "pfaff-plane-poly", "pfaff-no-poly",
        "pfaff-bare-poly", "cs-branch-int", "cs-branch-none",
        "cs-branch-bare-polys", "var-branch-int", "var-branch-none",
        "var-branch-bare-polys"])
def test_malformed_arguments_raise_invalid_input(call):
    # these were asserts: under python -O a short curve list raised
    # IndexError
    with pytest.raises(InvalidInput):
        call(*xy())


def test_gsv_pfaff_curve_builds_one_curve_basis(monkeypatch):
    # the n - 1 tangency normal forms reduce against one corner basis of
    # the curve; every other basis is an order along the curve
    X, Y, Z = Poly.variables(3)
    curve = (Y - X ** 2, Z - X ** 3)
    calls = _counted_bases(monkeypatch)
    nf_bases = []
    real_nf = indices.normal_form

    def counted_nf(p, sb):
        nf_bases.append(sb)
        return real_nf(p, sb)
    monkeypatch.setattr(indices, "normal_form", counted_nf)
    assert gsv_pfaff_curve(VectorField((X, 2 * Y, 3 * Z)), curve).value == 1
    curve_only = [args for args in calls if tuple(args[0]) == curve]
    assert len(curve_only) == 1
    assert curve_only[0][2] is localalgebra.at_corner
    assert len(nf_bases) == 2 and nf_bases[0] is nf_bases[1]
    assert all(len(args[0]) == 3 for args in calls if args not in curve_only)


def test_gsv_pfaff_curve_rejects_data_that_is_no_field():
    X, Y, Z = Poly.variables(3)
    # a form, even the dual form of a field, is turned into its field by
    # the caller
    for data in (X, (X, 2 * Y, 3 * Z), DiffForm(3, 1, {(0,): X}),
                 dual_form(VectorField((X, 2 * Y, 3 * Z)))):
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
    for divisor in ((5,), (-1,), (0, "x"), (0.5,), 5, ([0],), (True,)):
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


def test_saito_self_checks_raise_route_conflict():
    # a wrong cofactor breaks the identity g * omega == xi * df + f * eta
    x, y = xy()
    v, f = VectorField((2 * x, 3 * y)), y ** 2 - x ** 3
    h = tangency_cofactor(v, f)
    with pytest.raises(RouteConflict, match="decomposition identity"):
        indices._saito_variants(v, f, h + x)


@pytest.mark.parametrize("command, steps", [
    (lambda v, f, b: gsv_curve(v, f), 17),
    (lambda v, f, b: cs_index(v, f, b), 11),
    (lambda v, f, b: var_index(v, f, b), 17),
    (lambda v, f, b: saito_decomposition(v, f), 11),
], ids=["gsv", "cs", "var", "saito_decomposition"])
def test_plane_germ_divides_once(command, steps):
    # on the cusp every step but one is a standard basis or normal form:
    # the tangency cofactor is the germ's only exact division
    x, y = xy()
    t = Poly.var(1, 0)
    v, f = VectorField((2 * x, 3 * y)), y ** 2 - x ** 3
    b = BranchParam.from_polys((t ** 2, t ** 3), 20)
    with step_budget(100) as budget:
        command(v, f, b)
    assert 100 - budget.remaining == steps


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
    """Count every standard basis, in whichever module calls it."""
    calls = []
    real = localalgebra.standard_basis

    def counted(*args):
        calls.append(args)
        return real(*args)
    for module in (localalgebra, indices, residues):
        monkeypatch.setattr(module, "standard_basis", counted)
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
    with pytest.raises(NotInvariant):
        var_index(VectorField((x, x + y)), y ** 2 - x ** 3, cusp_branch)
    with pytest.raises(NotInvariant):
        var_index(VectorField((2 * x, 3 * y)), y ** 2 - x ** 3,
                  BranchParam.from_polys((t, t), 20))
    X, Y, Z = Poly.variables(3)
    with pytest.raises(InvalidInput):
        var_index(VectorField((X, Y, Z)), X * Y - Z ** 2,
                  BranchParam.from_polys((t, t, t), 20))


def _outcome(call, *args):
    """The value of an index, or the class of the error it raises."""
    try:
        return call(*args).value
    except FolindexError as exc:
        return type(exc)


def _unit_anchor(name):
    """A plane curve, a field tangent to it and a branch of the curve."""
    x, y = xy()
    t = Poly.var(1, 0)
    return {"e6": (y ** 3 - x ** 4, (3 * x, 4 * y), (t ** 3, t ** 4)),
            "cusp": (y ** 2 - x ** 3, (2 * x, 3 * y), (t ** 2, t ** 3)),
            "node": (x * y, (x, -y), (t, Poly.zero(1)))}[name]


_units = st.tuples(st.sampled_from((-3, -2, -1, 1, 2, 3)),
                   st.lists(st.integers(-3, 3), min_size=5, max_size=5))


@seed(11)
@settings(max_examples=30, deadline=None)
@given(st.sampled_from(("e6", "cusp", "node")), _units)
def test_indices_ignore_unit_factors(anchor, unit):
    # a unit u(0) != 0 changes no local index: u v has the index of v, and
    # u f the Tjurina number of f, value or error class alike
    x, y = xy()
    f, comps, polys = _unit_anchor(anchor)
    c, (a, b, p, q, r) = unit
    u = c + a * x + b * y + p * x ** 2 + q * x * y + r * y ** 2
    v = VectorField(comps)
    uv = VectorField(tuple(u * comp for comp in comps))
    branch = branch_poly(*polys)
    for call, args, scaled in [
            (ph_index, (v,), (uv,)),
            (homological_index, (v, f), (uv, f)),
            (gsv_curve, (v, f), (uv, f)),
            (cs_index, (v, f, branch), (uv, f, branch)),
            (tjurina_number, (f,), (u * f,))]:
        assert _outcome(call, *scaled) == _outcome(call, *args), call


_rational_entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@seed(26)
@settings(max_examples=50, deadline=None)
@given(st.tuples(*[_rational_entries] * 4).filter(
    lambda m: m[0] * m[3] != m[1] * m[2]))
def test_indices_are_invariant_under_rational_coordinate_changes(matrix):
    # Under the linear change phi(x, y) == (a x + b y, c x + d y), the cusp
    # y^2 - x^3 becomes f o phi, the field (2x, 3y) becomes Dphi^-1 (v o phi)
    # and the branch (t^2, t^3) becomes phi^-1 o (t^2, t^3); mu, PH, GSV,
    # CS and the c_1^2 residue stay 2, 1, -1, 6 and 25/6.
    a, b, c, d = matrix
    det = a * d - b * c
    x, y = xy()
    t = Poly.var(1, 0)
    phi = (a * x + b * y, c * x + d * y)
    inv = ((d / det, -b / det), (-c / det, a / det))
    f = (y ** 2 - x ** 3).subst(phi)
    w = ((2 * x).subst(phi), (3 * y).subst(phi))
    v = VectorField(tuple(r[0] * w[0] + r[1] * w[1] for r in inv))
    branch = branch_poly(*(r[0] * t ** 2 + r[1] * t ** 3 for r in inv))
    assert milnor_number(f).value == 2
    assert ph_index(v).value == 1
    assert gsv_curve(v, f).value == -1
    assert cs_index(v, f, branch).value == 6
    c1_squared = residues.PhiSpec(2, [(1, (2, 0))])
    assert residues.baum_bott_residue(v, c1_squared).value == Fraction(25, 6)


@seed(32)
@settings(max_examples=30, deadline=None)
@given(st.tuples(*[_rational_entries] * 4).filter(
    lambda m: m[0] * m[3] != m[1] * m[2]),
       st.integers(0, 1), _rational_entries.filter(bool),
       st.integers(21, 60))
def test_exact_branch_leaving_the_curve_past_every_working_order(
        matrix, i, c, k):
    # the cusp y^2 - x^3 with (2x, 3y) under a rational linear change and
    # its branch phi^-1 o (t^2, t^3), one component moved by c t^k: the
    # residue reads order 20 alone, where the moved branch still agrees
    # with the curve, so a copy capped at 20 gives the cusp's 6; the exact
    # branch is checked on the curve past every order and is refused
    a, b, cc, d = matrix
    det = a * d - b * cc
    x, y = xy()
    t = Poly.var(1, 0)
    phi = (a * x + b * y, cc * x + d * y)
    inv = ((d / det, -b / det), (-cc / det, a / det))
    f = (y ** 2 - x ** 3).subst(phi)
    w = ((2 * x).subst(phi), (3 * y).subst(phi))
    v = VectorField(tuple(r[0] * w[0] + r[1] * w[1] for r in inv))
    comps = [r[0] * t ** 2 + r[1] * t ** 3 for r in inv]
    assert cs_index(v, f, branch_poly(*comps)).value == 6
    comps[i] = comps[i] + c * t ** k
    assert cs_index(v, f, branch_by_hand(*comps, order=20)).value == 6
    with pytest.raises(NotInvariant, match="does not lie on the curve"):
        cs_index(v, f, branch_poly(*comps))


@seed(30)
@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5).flatmap(lambda p: st.tuples(
    st.just(p), st.integers(p + 1, 6), st.integers(1, 4)))
    .filter(lambda c: gcd(c[0], c[1]) == 1),
       st.tuples(*[_rational_entries] * 4).filter(
           lambda m: m[0] * m[3] != m[1] * m[2]),
       st.integers(1, 60))
@example((5, 6, 4), (1, 0, 0, 1), 40)
def test_moved_covers_give_one_value_along_every_branch_kind(case, matrix,
                                                             given):
    # (t^kp, t^kq) is a k-fold cover of the branch of y^p - x^q; moved by a
    # rational linear change with (p x, q y), it gives CS kpq and Var
    # p + q - pq + kpq alike as an exact branch, as a series branch capped
    # at the germ's ceiling 2 kp q + 1, and as an extendable series branch
    # given at any order
    p, q, k = case
    a, b, c, d = matrix
    det = Fraction(a * d - b * c)
    x, y = xy()
    t = Poly.var(1, 0)
    phi = (a * x + b * y, c * x + d * y)
    inv = ((d / det, -b / det), (-c / det, a / det))
    f = (y ** p - x ** q).subst(phi)
    w = ((p * x).subst(phi), (q * y).subst(phi))
    v = VectorField(tuple(r[0] * w[0] + r[1] * w[1] for r in inv))
    comps = tuple(r[0] * t ** (k * p) + r[1] * t ** (k * q) for r in inv)
    for br in (branch_poly(*comps),
               branch_by_hand(*comps, order=2 * k * p * q + 1),
               branch_lifted(*comps, order=given)):
        assert cs_index(v, f, br).value == k * p * q
        assert var_index(v, f, br).value == p + q - p * q + k * p * q


@seed(27)
@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(p, q) for p in (2, 3, 4) for q in (2, 3, 4, 5)]
                       + ["hamiltonian", "node"]),
       st.one_of(st.just((1, 0, 0, 1)), st.tuples(
           *[_rational_entries] * 4).filter(
               lambda m: m[0] * m[3] != m[1] * m[2])),
       _units)
@example("node", (1, 0, 0, 1), (1, [0, 0, 0, 0, 0]))
@example("node", (1, 0, 0, 1), (-2, [1, 3, -1, 0, 2]))
@example("node", (1, 1, 0, 2), (3, [0, -2, 0, 1, 0]))
def test_plane_gsv_is_the_one_equation_minor_route(germ, matrix, unit):
    # In the plane the Saito pairs (f_y, v_1) and (f_x, -v_2) are the 1x1
    # minors and dual-form coefficients that gsv_pfaff_curve reads: along
    # (f,) and along (u f,) for a unit u it gives the value of gsv_curve,
    # and DegenerateMinors where gsv_curve has no valid variant (the node
    # unmoved: a generic move gives each branch a partial that is not a
    # multiple of it).
    x, y = xy()
    if germ == "hamiltonian":
        f, comps = y ** 2 - x ** 3, (2 * y, 3 * x ** 2)
    elif germ == "node":
        f, comps = x * y, (x, -y)
    else:
        p, q = germ
        f, comps = y ** p - x ** q, (p * x, q * y)
    a, b, c, d = matrix
    det = Fraction(a * d - b * c)
    phi = (a * x + b * y, c * x + d * y)
    inv = ((d / det, -b / det), (-c / det, a / det))
    w = tuple(comp.subst(phi) for comp in comps)
    v = VectorField(tuple(r[0] * w[0] + r[1] * w[1] for r in inv))
    f = f.subst(phi)
    k, (e, g, h, i, j) = unit
    u = k + e * x + g * y + h * x ** 2 + i * x * y + j * y ** 2
    want = _outcome(gsv_curve, v, f)
    if want is DegenerateDecomposition:
        want = DegenerateMinors
    assert _outcome(gsv_pfaff_curve, v, (f,)) == want
    assert _outcome(gsv_pfaff_curve, v, (u * f,)) == want
