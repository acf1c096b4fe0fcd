"""Point residue evaluation against hand-computed values."""

import random
from fractions import Fraction

import pytest

from folindex import localalgebra, residues
from folindex.errors import (
    DegreeMismatch,
    InvalidInput,
    NotMember,
    RouteConflict,
)
from folindex.localalgebra import (
    MonomialOrder,
    at_corner,
    membership_with_cofactors,
    standard_basis,
)
from folindex.polyring import Poly, PolyMatrix, VectorField, jacobian
from folindex.residues import PhiSpec, baum_bott_residue, grothendieck_residue
from folindex.series import moved


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


@pytest.mark.parametrize("bound", [None, 1, 3])
def test_residue_makes_one_standard_basis(monkeypatch, bound):
    # one basis serves the power bound and all n witnesses
    calls = []
    real = residues.standard_basis

    def counted(*args):
        calls.append(args)
        return real(*args)
    for module in (residues, localalgebra):
        monkeypatch.setattr(module, "standard_basis", counted)
    x, y = xy()
    X, Y, Z = Poly.variables(3)
    for h, v, want in ((x * y, VectorField((x ** 2, y ** 2)), 1),
                       (Poly.const(3, 1), VectorField((X, 2 * Y, Z)),
                        Fraction(1, 2))):
        del calls[:]
        if bound == 1 and h.nvars == 2:
            with pytest.raises(NotMember):
                grothendieck_residue(h, v, bound=bound)
        else:
            assert grothendieck_residue(h, v, bound=bound).value == want
        assert len(calls) == 1
        assert calls[0][0] == v.components


def test_residue_at_translated_point():
    x, y = xy()
    v = VectorField((x - 1, y + 2))
    rep = grothendieck_residue(*moved((Poly.const(2, 1), v), (1, -2)))
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


def _exact_witness_value(h, v, N):
    """The residue from exact witnesses u_i x_i^N == sum_j A[i][j] v_j: the
    coefficient of x^(N-1, ..., N-1) in h det(A) / (u_1 ... u_n), computed
    with plain polynomial products and a box filter of its own."""
    n = v.nvars
    sb = standard_basis(v.components, MonomialOrder.local(n))
    wits = [membership_with_cofactors(Poly.var(n, i) ** N, sb)
            for i in range(n)]
    det = PolyMatrix([w.cofactors for w in wits]).det()

    def cut(p):
        return Poly(n, {e: c for e, c in p.terms.items()
                        if all(k < N for k in e)})

    units = Poly.const(n, 1)
    for w in wits:
        units = cut(units * w.unit)
    # 1/units is the sum of the powers of rest = 1 - units, which has no
    # constant term: every power past n(N - 1) leaves the box
    rest = Poly.const(n, 1) - units
    inverse = power = Poly.const(n, 1)
    for _ in range(n * (N - 1)):
        power = cut(power * rest)
        inverse = inverse + power
    series = cut(cut(h * det) * inverse)
    return series.terms.get((N - 1,) * n, Fraction(0))


def _random_fields():
    rng = random.Random(29)
    out = []
    while len(out) < 12:
        n = 2 if len(out) % 3 else 3
        xs = Poly.variables(n)
        comps = []
        for i in range(n):
            c = rng.choice((1, 2, -3)) * xs[i] ** rng.randint(1, 3)
            for _ in range(rng.randint(1, 2)):
                e = tuple(rng.randint(0, 2) for _ in range(n))
                if sum(e) >= 2:
                    c = c + Poly.monomial(e, rng.choice((-2, -1, 1, 3)))
            comps.append(c)
        h = Poly.const(n, rng.randint(1, 3)) + Poly.monomial(
            tuple(rng.randint(0, 2) for _ in range(n)), rng.randint(-2, 2))
        out.append((h, VectorField(tuple(comps))))
    return out


@pytest.mark.parametrize("h, v", _random_fields())
def test_truncated_witnesses_give_the_exact_value(h, v):
    n = v.nvars
    auto = grothendieck_residue(h, v)
    assert auto.value == _exact_witness_value(h, v, auto.bound)
    jac = grothendieck_residue(v.jacobian().det(), v)
    assert jac.value == _exact_witness_value(v.jacobian().det(), v,
                                             jac.bound)
    # an explicit bound above the corner degree c needs its own, higher cut
    c = standard_basis(v.components, MonomialOrder.local(n), at_corner).modulo
    assert auto.bound <= c
    forced = grothendieck_residue(h, v, bound=c + 2)
    assert forced.value == auto.value
    assert forced.value == _exact_witness_value(h, v, c + 2)
    if auto.bound > 1:
        with pytest.raises(NotMember):
            grothendieck_residue(h, v, bound=auto.bound - 1)


def test_bad_residue_input_raises_invalid_input():
    x, y = xy()
    v = VectorField((x ** 2, y ** 2))
    for bound in (0, -1, Fraction(3, 2), 2.0, "2", True):
        with pytest.raises(InvalidInput):
            grothendieck_residue(x * y, v, bound=bound)
    with pytest.raises(InvalidInput):
        grothendieck_residue(Poly.var(3, 0), v)
    with pytest.raises(InvalidInput):
        grothendieck_residue(1, v)


def test_residue_at_a_point_of_another_space_raises_invalid_input():
    x, y = xy()
    with pytest.raises(InvalidInput):
        grothendieck_residue(*moved((x * y, VectorField((x ** 2, y ** 2))),
                                    (0, 0, 0)))


@pytest.mark.parametrize("n, terms", [
    (0, []),
    (-1, []),
    (Fraction(2), [(1, (2, 0))]),
    (2, [(0.5, (2, 0))]),
    (2, [("1", (2, 0))]),
    (True, [(1, (1,))]),
    (2, [(1, (2.0, 0))]),
    (2, [(1, (0, True))]),
    (2, [(True, (2, 0))]),
], ids=["n-zero", "n-negative", "n-not-int", "float-coefficient",
        "str-coefficient", "n-bool", "float-exponent", "bool-exponent",
        "bool-coefficient"])
def test_bad_phi_raises_invalid_input(n, terms):
    with pytest.raises(InvalidInput):
        PhiSpec(n, terms)


def test_phi_takes_one_value_per_symbol():
    x, y = xy()
    phi = PhiSpec(2, [(1, (2, 0)), (-3, (0, 1))])
    assert phi.apply([x, y]) == x ** 2 - 3 * y
    for cs in ([x], [x, y, x]):
        with pytest.raises(InvalidInput):
            phi.apply(cs)


@pytest.mark.parametrize("phi", [
    PhiSpec(3, [(1, (0, 0, 1))]),
    PhiSpec(1, [(1, (1,))]),
    [(1, (2, 0))],
], ids=["three-classes", "one-class", "not-a-phispec"])
def test_baum_bott_needs_phi_in_the_classes_of_the_field(phi):
    x, y = xy()
    with pytest.raises(InvalidInput):
        baum_bott_residue(VectorField((x, 7 * y)), phi)


def test_box_inverse_of_a_non_unit_raises_route_conflict(monkeypatch):
    x, y = xy()
    v = VectorField((x ** 2, y ** 2))
    exact = residues.membership_with_cofactors

    def unit_dropped(p, sb):
        wit = exact(p, sb)
        return type(wit)(cofactors=wit.cofactors, unit=wit.unit - 1)

    monkeypatch.setattr(residues, "membership_with_cofactors", unit_dropped)
    with pytest.raises(RouteConflict, match="box inverse of a non-unit"):
        grothendieck_residue(x * y, v)
