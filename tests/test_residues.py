"""Point residue evaluation against hand-computed values."""

from fractions import Fraction

import pytest

from folindex.errors import DegreeMismatch
from folindex.polyring import Poly, VectorField, jacobian
from folindex.residues import PhiSpec, baum_bott_residue, grothendieck_residue


def xy():
    return Poly.variables(2)


def test_residue_basics():
    x, y = xy()
    one = Poly.const(2, 1)
    assert grothendieck_residue(one, VectorField((x, y))).value == 1
    assert grothendieck_residue(x * y, VectorField((x ** 2, y ** 2))).value == 1
    assert grothendieck_residue(one, VectorField((2 * x, 3 * y))).value == Fraction(1, 6)


def test_residue_of_jacobian_counts_zeros():
    # for an isolated zero the residue of det(Dv) equals the local degree's
    # algebraic multiplicity, here dim of the local quotient
    x, y = xy()
    v = VectorField((2 * x, 3 * y))
    assert grothendieck_residue(jacobian(v).det(), v).value == 1
    w = VectorField((y ** 2, -(x ** 2)))
    assert grothendieck_residue(jacobian(w).det(), w).value == 4


def test_residue_bound_override_and_certificate():
    x, y = xy()
    h = x * y
    v = VectorField((x ** 2, y ** 2))
    auto = grothendieck_residue(h, v)
    forced = grothendieck_residue(h, v, bound=5)
    assert auto.value == forced.value == 1
    assert forced.bound == 5
    assert auto.certificate != forced.certificate
    again = grothendieck_residue(h, v)
    assert again.certificate == auto.certificate


def test_residue_at_translated_point():
    x, y = xy()
    v = VectorField((x - 1, y + 2))
    rep = grothendieck_residue(Poly.const(2, 1), v, point=(1, -2))
    assert rep.value == 1


def test_phi_spec_validation():
    PhiSpec(2, [(1, (2, 0))])
    PhiSpec(2, [(Fraction(3, 2), (0, 1))])
    spec = PhiSpec(2, [(1, (2, 0)), (-2, (0, 1))])
    assert len(spec.terms) == 2
    with pytest.raises(DegreeMismatch):
        PhiSpec(2, [(1, (1, 0))])
    with pytest.raises(DegreeMismatch):
        PhiSpec(2, [(1, (2, 0, 0))])


def test_baum_bott_residue():
    x, y = xy()
    c1_squared = PhiSpec(2, [(1, (2, 0))])
    c2 = PhiSpec(2, [(1, (0, 1))])
    v = VectorField((x, 7 * y))
    assert baum_bott_residue(v, c1_squared).value == Fraction(64, 7)
    assert baum_bott_residue(v, c2).value == 1
    lin = VectorField((2 * x + y, x + 3 * y))
    assert baum_bott_residue(lin, c1_squared).value == 5
    assert baum_bott_residue(lin, c2).value == 1
