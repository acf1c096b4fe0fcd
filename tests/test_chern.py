"""Truncated Chern arithmetic and the closed-form identity values."""

import random
from fractions import Fraction

import pytest

from folindex.chern import IdentitySpec, identity_rhs, pn_chern_integral
from folindex.errors import UnsupportedIdentity


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
        spec = IdentitySpec("milnor_total", n=2, d=d)
        assert identity_rhs(spec) == d * d + d + 1
    assert identity_rhs(IdentitySpec("milnor_total", n=3, d=1)) == 4
    assert identity_rhs(IdentitySpec("milnor_total", n=3, d=2)) == 15


def test_identity_values():
    assert identity_rhs(IdentitySpec("brunella", d=1, m=3)) == 0
    assert identity_rhs(IdentitySpec("cs_total", m=3)) == 9
    assert identity_rhs(IdentitySpec("var_total", d=1, m=3)) == 9
    assert identity_rhs(IdentitySpec("bb_total", d=1)) == 9
    assert identity_rhs(IdentitySpec("pfaff_degree", n=3, d=1, degrees=(1, 1))) == 2
    assert identity_rhs(
        IdentitySpec("log_bb", n=2, d=1, divisor_degrees=(1,))) == 1


def test_pfaff_matches_brunella_on_plane_curves():
    for d in range(4):
        for m in range(1, 5):
            plane = identity_rhs(IdentitySpec("brunella", d=d, m=m))
            ci = identity_rhs(IdentitySpec("pfaff_degree", n=2, d=d, degrees=(m,)))
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


def test_identity_spec_validation():
    with pytest.raises(UnsupportedIdentity):
        IdentitySpec("poincare", d=1)
    with pytest.raises(UnsupportedIdentity):
        IdentitySpec("brunella", d=1)
    with pytest.raises(UnsupportedIdentity):
        IdentitySpec("brunella", d=-1, m=2)
    with pytest.raises(UnsupportedIdentity):
        IdentitySpec("pfaff_degree", n=3, d=1, degrees=(1, 1, 1))
    with pytest.raises(UnsupportedIdentity):
        IdentitySpec("pfaff_degree", n=3, d=1, degrees=(1, 0))
    with pytest.raises(UnsupportedIdentity):
        IdentitySpec("log_bb", n=2, d=1)
    spec = IdentitySpec("pfaff_degree", n=4, d=2, degrees=(2, 3))
    assert identity_rhs(spec) == (2 + 2 + 1 - 5) * 6
