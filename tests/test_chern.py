"""Truncated Chern arithmetic and the closed-form identity values."""

import random
from fractions import Fraction

import pytest

from folindex.chern import identity_rhs, pn_chern_integral
from folindex.errors import InvalidInput, UnsupportedIdentity
from folindex.polyring import Poly, VectorField
from folindex.projective import ProjPoint, ProjectiveFoliation, run_global_check


def test_pn_chern_integral_matches_expansion():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(1, 5)
        num = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
               for _ in range(rng.randrange(0, 5))]
        den = [rng.randrange(-3, 4) for _ in range(rng.randrange(0, 3))]
        # coefficients of h^0 .. h^n: multiply by 1 + a h, and by
        # 1 / (1 + b h) = 1 - b h + b^2 h^2 - ...
        want = [Fraction(1)] + [Fraction(0)] * n
        for a in num:
            want = [want[0]] + [want[k] + a * want[k - 1]
                                for k in range(1, n + 1)]
        for b in den:
            want = [sum(want[k - j] * (-b) ** j for j in range(k + 1))
                    for k in range(n + 1)]
        got = pn_chern_integral(n, num, den)
        assert got == want[n]
        assert isinstance(got, int) == (want[n].denominator == 1)


def test_pn_chern_integral_values():
    assert pn_chern_integral(2, (1, 1, 1), (0,)) == 3
    assert pn_chern_integral(2, (1, 1, 1), (-1,)) == 7
    assert pn_chern_integral(2, (1, 1, 1), (1, 0)) == 1
    assert pn_chern_integral(2, (1, 1, 1)) == 3


def test_milnor_total_geometric_sum():
    for d in range(7):
        assert identity_rhs("milnor_total", 2, d) == d * d + d + 1
    assert identity_rhs("milnor_total", 3, 1) == 4
    assert identity_rhs("milnor_total", 3, 2) == 15


def test_identity_values():
    assert identity_rhs("brunella", 2, 1, (3,)) == 0
    assert identity_rhs("cs_total", 2, 1, (3,)) == 9
    assert identity_rhs("var_total", 2, 1, (3,)) == 9
    assert identity_rhs("bb_total", 2, 1) == 9
    assert identity_rhs("pfaff_degree", 3, 1, (1, 1)) == 2
    assert identity_rhs("log_bb", 2, 1, divisors=1) == 1
    assert identity_rhs("pfaff_degree", 4, 2, (2, 3)) == (2 + 2 + 1 - 5) * 6
    # the integral of c_1^n, with c_1(TP^n - TF) = (n + 1) h - (1 - d) h
    for n in (2, 3):
        for d in range(5):
            assert identity_rhs("bb_total", n, d) == (n + d) ** n
            assert identity_rhs("bb_total", n, d) == pn_chern_integral(
                n, (n + d,) * n)
    with pytest.raises(UnsupportedIdentity):
        identity_rhs("poincare", 2, 1)


def test_pfaff_matches_brunella_on_plane_curves():
    for d in range(4):
        for m in range(1, 5):
            plane = identity_rhs("brunella", 2, d, (m,))
            ci = identity_rhs("pfaff_degree", 2, d, (m,))
            assert plane == ci


def test_attained_bound_margin():
    # with every singular point nondegenerate and sitting on a smooth
    # invariant divisor of the forced degree d+1, the logarithmic count
    # leaves no off-divisor Milnor mass in odd ambient dimension; in even
    # dimension the leftover is d^n
    for d in range(1, 5):
        ones3 = (1,) * 4
        ones5 = (1,) * 6
        assert pn_chern_integral(3, ones3, (d + 1, 1 - d)) == 0
        assert pn_chern_integral(5, ones5, (d + 1, 1 - d)) == 0
        assert pn_chern_integral(2, (1, 1, 1), (d + 1, 1 - d)) == d ** 2
        assert pn_chern_integral(4, (1,) * 5, (d + 1, 1 - d)) == d ** 4


def _plane_and_space():
    x, y = Poly.variables(2)
    X, Y, Z = Poly.variables(3)
    plane = ProjectiveFoliation.from_affine_field(VectorField((2 * x, 3 * y)))
    space = ProjectiveFoliation.from_affine_field(
        VectorField((X, 2 * Y, 3 * Z)))
    return (plane, (ProjPoint((1, 0, 0)), ProjPoint((0, 0, 1))),
            space, (ProjPoint((1, 0, 0, 0)), ProjPoint((0, 1, 0, 0))))


def test_run_global_check_rejects_data_its_kind_cannot_read():
    # every kind reads only data the check has validated on its way in
    plane, points, space, points3 = _plane_and_space()
    X, Y, Z = Poly.variables(3)
    with pytest.raises(UnsupportedIdentity):
        run_global_check(plane, "poincare", points=points)
    with pytest.raises(InvalidInput, match="affine plane curve"):
        run_global_check(plane, "brunella", points=points)
    with pytest.raises(InvalidInput, match="n-1 affine curve equations"):
        run_global_check(space, "pfaff_degree", curve=(Y, Z, X),
                         points=points3)
    with pytest.raises(InvalidInput, match="does not define a curve"):
        run_global_check(space, "pfaff_degree", curve=(Y, Poly.const(3, 1)),
                         points=points3)
    for divisor in ((), (True,), (1.0,)):
        with pytest.raises(InvalidInput, match="divisor"):
            run_global_check(plane, "log_bb", divisor=divisor, points=points)


def test_run_global_check_needs_a_projective_space_of_dimension_two():
    x = Poly.var(1, 0)
    line = ProjectiveFoliation.from_affine_field(VectorField((x,)))
    assert line.n == 1
    for kind in ("milnor_total", "bb_total"):
        with pytest.raises(UnsupportedIdentity):
            run_global_check(line, kind,
                             points=(ProjPoint((1, 0)), ProjPoint((0, 1))))
