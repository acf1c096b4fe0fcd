"""Charts, degree bookkeeping and certified global checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folindex import chern, projective
from folindex.errors import (
    DegreeMismatch,
    EulerConditionViolated,
    IncompleteSingularities,
    InvalidInput,
    UnsupportedIdentity,
)
from folindex.indices import cs_index, ph_index
from folindex.localalgebra import IdealGens, MonomialOrder, quotient_dim
from folindex.polyring import (
    DiffForm,
    Poly,
    VectorField,
    dual_form,
    set_coordinate_one,
    translate_field,
    translate_to_origin,
)
from folindex.projective import (
    CHECKS,
    ProjPoint,
    ProjectiveFoliation,
    affine_singular_audit,
    curve_to_homogeneous,
    run_global_check,
)
from folindex.residues import PhiSpec, baum_bott_residue
from folindex.series import BranchParam


def xy():
    return Poly.variables(2)


def tvar():
    return Poly.var(1, 0)


def br(*polys, order=16):
    return BranchParam.from_polys(polys, order)


def cusp_foliation():
    x, y = xy()
    return ProjectiveFoliation.from_affine_field(VectorField((2 * x, 3 * y)))


def test_proj_point():
    p = ProjPoint((2, 4, 6))
    assert p.coords == (1, 2, 3)
    q = ProjPoint((0, 0, 5))
    assert q.coords == (0, 0, 1)
    assert q.first_chart() == 2
    assert not q.visible_in(0) and q.visible_in(2)
    assert ProjPoint((1, 2, 3)).affine_in(0) == (2, 3)
    assert ProjPoint((1, 2, 4)).affine_in(1) == (Fraction(1, 2), 2)


def test_degree_detection():
    x, y = xy()
    assert cusp_foliation().d == 1
    radial = ProjectiveFoliation.from_affine_field(VectorField((x, y)))
    assert radial.d == 0
    shifted = ProjectiveFoliation.from_affine_field(
        VectorField((x + 1, y)))
    assert shifted.d == 0
    with pytest.raises(DegreeMismatch):
        ProjectiveFoliation.from_affine_field(VectorField((2 * x, 3 * y)),
                                              degree=2)
    with pytest.raises(DegreeMismatch):
        ProjectiveFoliation.from_affine_field(
            VectorField((Poly.zero(2), Poly.zero(2))))
    # top parts that are not a multiple of the radial field keep the degree
    assert ProjectiveFoliation.from_affine_field(
        VectorField((x ** 2, y))).d == 2
    assert ProjectiveFoliation.from_affine_field(
        VectorField((y ** 2, x ** 2))).d == 2


def test_chart_restrict():
    x, y = xy()
    lam = 5
    fol = ProjectiveFoliation.from_affine_field(VectorField((x, lam * y)))
    u, w = Poly.variables(2)
    chart1 = fol.chart_restrict(1)
    assert chart1.components == (-u, (lam - 1) * w)
    chart2 = fol.chart_restrict(2)
    assert chart2.components == (-lam * u, (1 - lam) * w)
    back = fol.chart_restrict(0)
    assert back.components == (x, lam * y)

    cusp2 = cusp_foliation().chart_restrict(2)
    assert cusp2.components == (-3 * u, -w)
    cusp1 = cusp_foliation().chart_restrict(1)
    assert cusp1.components == (-2 * u, w)


def test_from_homogeneous_form():
    x0, x1, x2 = Poly.variables(3)
    omega = DiffForm(3, 1, {
        (0,): x1 * x2,
        (1,): -3 * x0 * x2,
        (2,): 2 * x0 * x1,
    })
    fol = ProjectiveFoliation.from_homogeneous_form(omega)
    assert fol.d == 1
    x, y = xy()
    assert fol.chart_restrict(0).components == (2 * x, 3 * y)
    bad = DiffForm(3, 1, {(0,): x0, (1,): x1, (2,): x2})
    with pytest.raises(EulerConditionViolated):
        ProjectiveFoliation.from_homogeneous_form(bad)


def test_curve_to_homogeneous():
    x, y = xy()
    hom, m = curve_to_homogeneous(y ** 2 - x ** 3)
    assert m == 3
    x0, x1, x2 = Poly.variables(3)
    assert hom == x0 * x2 ** 2 - x1 ** 3


def test_affine_singular_audit():
    x, y = xy()
    omega = DiffForm(2, 1, {
        (0,): x * (5 * y ** 2 - 9),
        (1,): -y * (5 * x ** 2 - 9),
    })
    assert affine_singular_audit(omega) == 5
    assert affine_singular_audit(VectorField((2 * x, 3 * y))) == 1


def cubic_data():
    x, y = xy()
    t = tvar()
    fol = cusp_foliation()
    curve = y ** 2 - x ** 3
    p0 = ProjPoint((1, 0, 0))
    pinf = ProjPoint((0, 0, 1))
    branches = [
        (p0, br(t ** 2, t ** 3)),
        (pinf, br(t ** 3, t)),
    ]
    return fol, curve, (p0, pinf), branches


def test_cuspidal_cubic_gsv():
    fol, curve, points, _ = cubic_data()
    report = run_global_check(fol, "brunella", curve=curve, points=points)
    assert [row.value for row in report.rows] == [-1, 1]
    assert report.local_sum == 0 and report.rhs == 0
    assert report.verdict == "PASS"
    assert any("nondicritical" in note for note in report.diagnostics)


def test_cuspidal_cubic_cs_and_var():
    fol, curve, points, branches = cubic_data()
    cs = run_global_check(fol, "cs_total", curve=curve, points=points,
                          branches=branches)
    assert [row.value for row in cs.rows] == [6, 3]
    assert cs.local_sum == 9 and cs.rhs == 9 and cs.passed()
    var = run_global_check(fol, "var_total", curve=curve, points=points,
                           branches=branches)
    assert [row.value for row in var.rows] == [5, 4]
    assert var.local_sum == 9 and var.rhs == 9 and var.passed()


def test_incomplete_points_rejected():
    fol, curve, points, _ = cubic_data()
    with pytest.raises(IncompleteSingularities):
        run_global_check(fol, "brunella", curve=curve, points=points[:1])


def test_data_without_isolated_zeros_rejected():
    x, y = xy()
    radial = ProjectiveFoliation(2, 0, VectorField(Poly.variables(3)))
    with pytest.raises(IncompleteSingularities, match="identically singular"):
        run_global_check(radial, "milnor_total", points=diag_points())
    line = ProjectiveFoliation.from_affine_field(VectorField((x * y, y ** 2)))
    with pytest.raises(IncompleteSingularities, match="positive dimension"):
        run_global_check(line, "milnor_total", points=diag_points())


def test_every_check_kind_has_a_closed_form():
    assert set(CHECKS) == set(chern._RHS)


def test_branches_at_undeclared_points_rejected():
    # a branch keyed by a point outside `points` would never be read
    fol, curve, points, branches = cubic_data()
    with pytest.raises(InvalidInput, match="not a declared point"):
        run_global_check(fol, "milnor_total", points=points, branches=[(1, 2)])
    moved = [(ProjPoint((1, 1, 1)), branches[0][1]), branches[1]]
    with pytest.raises(InvalidInput, match="not a declared point"):
        run_global_check(fol, "cs_total", curve=curve, points=points,
                         branches=moved)


def test_missing_branches_fail_honestly():
    fol, curve, points, _ = cubic_data()
    report = run_global_check(fol, "cs_total", curve=curve, points=points)
    assert report.local_sum == 0 and report.rhs == 9
    assert report.verdict == "FAIL"


def diag_points():
    return (ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0)), ProjPoint((0, 0, 1)))


def test_milnor_and_bb_totals():
    x, y = xy()
    for lam in (2, 3, 5):
        fol = ProjectiveFoliation.from_affine_field(
            VectorField((x, lam * y)))
        mil = run_global_check(fol, "milnor_total", points=diag_points())
        assert mil.local_sum == 3 and mil.rhs == 3 and mil.passed()
        bb = run_global_check(fol, "bb_total", points=diag_points())
        assert bb.local_sum == 9 and bb.rhs == 9 and bb.passed()
    with pytest.raises(IncompleteSingularities):
        run_global_check(fol, "milnor_total", points=diag_points()[:2])


def test_log_identity():
    x, y = xy()
    fol = ProjectiveFoliation.from_affine_field(VectorField((x, 2 * y)))
    report = run_global_check(fol, "log_bb", points=diag_points(),
                              divisor=(0,))
    assert [(row.quantity, row.value) for row in report.rows] == [
        ("milnor", 1), ("log", 0), ("log", 0)]
    assert report.local_sum == 1 and report.rhs == 1 and report.passed()


def test_pfaff_line_in_p3():
    x, y, z = Poly.variables(3)
    fol = ProjectiveFoliation.from_affine_field(
        VectorField((x, 2 * y, 3 * z)))
    assert fol.d == 1
    points = (ProjPoint((1, 0, 0, 0)), ProjPoint((0, 1, 0, 0)))
    report = run_global_check(fol, "pfaff_degree", curve=(y, z),
                              points=points)
    assert [row.value for row in report.rows] == [1, 1]
    assert report.local_sum == 2 and report.rhs == 2 and report.passed()


def test_chart_invariance_at_shared_point():
    x, y = xy()
    fol = ProjectiveFoliation.from_affine_field(
        VectorField((x - 1, 2 * (y - 1))))
    p = ProjPoint((1, 1, 1))
    phi = PhiSpec(2, [(1, (2, 0))])
    mus = []
    bbs = []
    for j in range(3):
        w = fol.chart_restrict(j)
        at = p.affine_in(j)
        mus.append(ph_index(w, point=at).value)
        bbs.append(baum_bott_residue(w, phi, point=at).value)
    assert mus == [1, 1, 1]
    assert bbs == [Fraction(9, 2)] * 3


def test_unsupported_check_kinds():
    fol, curve, points, _ = cubic_data()
    with pytest.raises(UnsupportedIdentity):
        run_global_check(fol, "soares", points=points)
    with pytest.raises(UnsupportedIdentity):
        run_global_check(fol, "poincare", points=points)
    x, y, z = Poly.variables(3)
    fol3 = ProjectiveFoliation.from_affine_field(
        VectorField((x, 2 * y, 3 * z)))
    with pytest.raises(UnsupportedIdentity):
        run_global_check(fol3, "bb_total",
                         points=(ProjPoint((1, 0, 0, 0)),))


def test_bad_check_input_raises_folindex_error():
    fol, curve, points, _ = cubic_data()
    x, y, z = Poly.variables(3)
    fol3 = ProjectiveFoliation.from_affine_field(
        VectorField((x, 2 * y, 3 * z)))
    points3 = (ProjPoint((1, 0, 0, 0)), ProjPoint((0, 1, 0, 0)))
    with pytest.raises(InvalidInput):
        run_global_check(fol, "brunella", curve=None, points=points)
    with pytest.raises(InvalidInput):
        run_global_check(fol3, "brunella", curve=x, points=points3)
    with pytest.raises(InvalidInput):
        run_global_check(fol3, "pfaff_degree", curve=y, points=points3)
    with pytest.raises(InvalidInput):
        run_global_check(fol3, "pfaff_degree", curve=(y,), points=points3)
    with pytest.raises(InvalidInput):
        run_global_check(fol, "brunella", curve=Poly.const(2, 1),
                         points=points)
    with pytest.raises(InvalidInput):
        run_global_check(fol3, "pfaff_degree", curve=(y, Poly.const(3, 1)),
                         points=points3)
    for divisor in ((3,), ("x",), (0.5,)):
        with pytest.raises(InvalidInput):
            run_global_check(fol, "log_bb", points=diag_points(),
                             divisor=divisor)
    with pytest.raises(InvalidInput):
        run_global_check(fol, "milnor_total", points=points3)
    with pytest.raises(InvalidInput):
        ProjPoint((0, 0, 0))
    with pytest.raises(InvalidInput):
        ProjPoint((1,))
    with pytest.raises(InvalidInput):
        ProjPoint((0, 0, 1)).affine_in(0)


def grid_foliation(a, b, scale=1):
    """(scale^(d-1) prod (x - a_i), prod (y - b_j)) and its singular points:
    the grid, with the multiplicity of repeated roots, and the d + 1 points
    [0:1:0], [0:0:1] and [0:1:w] with w^(d-1) = scale^(d-1) at infinity."""
    x, y = xy()
    d = len(a)
    px = py = Poly.const(2, 1)
    for c in a:
        px = px * (x - c)
    for c in b:
        py = py * (y - c)
    fol = ProjectiveFoliation.from_affine_field(
        VectorField((scale ** (d - 1) * px, py)))
    points = [ProjPoint((1, ai, bj)) for ai in sorted(set(a))
              for bj in sorted(set(b))]
    points += [ProjPoint((0, 1, 0)), ProjPoint((0, 0, 1))]
    points += [ProjPoint((0, 1, w)) for w in (scale, -scale)[:d - 1]]
    return fol, points


def degree3_grid():
    # the benchmark's degree-3 grid: G00 .. G22, then I0 .. I3
    fol, points = grid_foliation((0, 1, 2), (1, 2, 3))
    return fol, points[:9] + [ProjPoint((0, 1, 0)), ProjPoint((0, 0, 1)),
                              ProjPoint((0, 1, 1)), ProjPoint((0, 1, -1))]


def chart_multiplicity(fol, curves, p, j):
    """dim O_p / (field, curves) computed in chart j."""
    at = p.affine_in(j)
    gens = list(translate_field(fol.chart_restrict(j), at).components)
    gens += [translate_to_origin(set_coordinate_one(h, j), at)
             for h, _ in curves]
    gens = [g for g in gens if not g.is_zero()]
    return quotient_dim(IdealGens(gens, MonomialOrder.local(2)))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3).flatmap(lambda d: st.tuples(
    st.lists(st.integers(-2, 2), min_size=d, max_size=d),
    st.lists(st.integers(-2, 2), min_size=d, max_size=d),
    st.sampled_from((1, -1, 2, Fraction(1, 2))), st.booleans())))
def test_multiplicity_is_the_same_in_every_chart(case):
    # the completeness certificate counts one multiplicity per point in
    # every chart that sees it
    a, b, scale, with_curve = case
    fol, points = grid_foliation(a, b, scale)
    x, _ = xy()
    curves = [curve_to_homogeneous(x - a[0])] if with_curve else []
    for p in points:
        charts = [j for j in range(3) if p.visible_in(j)]
        mults = {chart_multiplicity(fol, curves, p, j) for j in charts}
        assert len(mults) == 1, (p, charts, mults)
    report = run_global_check(fol, "milnor_total", points=points)
    assert report.passed() and report.local_sum == len(a) ** 2 + len(a) + 1


def test_certificate_takes_one_local_dimension_per_point(monkeypatch):
    fol, points = degree3_grid()
    calls = []
    exact = projective.quotient_dim

    def counted(ideal):
        calls.append(ideal.order.is_local())
        return exact(ideal)

    monkeypatch.setattr(projective, "quotient_dim", counted)
    report = run_global_check(fol, "milnor_total", points=points)
    assert report.passed() and report.local_sum == 13
    assert calls.count(True) == len(points) == 13
    assert calls.count(False) == 3


def test_omitted_point_names_the_chart_that_misses_it():
    fol, points = degree3_grid()
    assert points[-1] == ProjPoint((0, 1, -1))
    with pytest.raises(IncompleteSingularities,
                       match="chart 1 carries multiplicity 9, declared "
                             "points cover 8"):
        run_global_check(fol, "milnor_total", points=points[:-1])


def test_branch_at_a_translated_point_relifts():
    # the branch enters at order 6 and is re-lifted past it; its value must
    # be the local one at the point
    x, y = xy()
    t = tvar()
    f = (y - 2) ** 2 - (x - 1) ** 3
    v = VectorField((2 * (x - 1), 3 * (y - 2)))
    fol = ProjectiveFoliation.from_affine_field(v)
    p0, pinf = ProjPoint((1, 1, 2)), ProjPoint((0, 0, 1))
    b0 = br(1 + t ** 2, 2 + t ** 3, order=6)
    report = run_global_check(fol, "cs_total", curve=f, points=(p0, pinf),
                              branches=[(p0, b0)])
    assert report.rows[0].value == cs_index(v, f, b0, point=(1, 2)).value == 6
    with pytest.raises(InvalidInput, match="not a BranchParam"):
        run_global_check(fol, "cs_total", curve=f, points=(p0, pinf),
                         branches=[(p0, (1 + t ** 2, 2 + t ** 3))])


def test_malformed_projective_input_raises_invalid_input():
    # these were asserts: under python -O a field of the wrong arity built a
    # bogus foliation and chart 5 of P^2 raised IndexError
    x, y = xy()
    fol = cusp_foliation()
    with pytest.raises(InvalidInput):
        ProjectiveFoliation(2, 1, VectorField((x, y)))
    for chart in (5, -1, 1.0):
        with pytest.raises(InvalidInput):
            fol.chart_restrict(chart)
    for omega in (DiffForm(2, 1, {(0,): y, (1,): -x}),
                  DiffForm(3, 2, {(0, 1): Poly.var(3, 2)}), x):
        with pytest.raises(InvalidInput):
            ProjectiveFoliation.from_homogeneous_form(omega)
    with pytest.raises(InvalidInput):
        affine_singular_audit(VectorField((Poly.zero(2), Poly.zero(2))))


def test_radial_top_part_is_saturated():
    # x + x^2, 2y + xy has top part x * (x, y): a degree-1 foliation whose
    # saturated field (-x1, x1, 2 x2) has three isolated singular points
    x, y = xy()
    fol = ProjectiveFoliation.from_affine_field(
        VectorField((x + x ** 2, 2 * y + x * y)))
    x0, x1, x2 = Poly.variables(3)
    assert fol.d == 1
    assert fol.field.components == (-x1, x1, 2 * x2)
    assert fol.chart_restrict(0).components == (x + x ** 2, 2 * y + x * y)
    points = [ProjPoint(p) for p in ((1, 0, 0), (1, -1, 0), (0, 0, 1))]
    report = run_global_check(fol, "milnor_total", points=points)
    assert (report.verdict, report.local_sum, report.rhs) == ("PASS", 3, 3)
    # the radial field itself saturates to the degree-0 field (-1, 0, 0)
    radial = ProjectiveFoliation.from_affine_field(VectorField((x, y)))
    assert radial.field.components == (-Poly.const(3, 1), Poly.zero(3),
                                       Poly.zero(3))
