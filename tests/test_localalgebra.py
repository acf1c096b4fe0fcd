"""Standard bases, normal forms with unit tracking, and quotient dimensions."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from folindex import localalgebra
from folindex.errors import (
    InvalidInput,
    NotMember,
    NotZeroDimensional,
    ResourceCap,
    RouteConflict,
)
from folindex.localalgebra import (
    GLOBAL,
    INFINITE,
    LOCAL,
    IdealGens,
    MonomialOrder,
    StepBudget,
    at_corner,
    exact_divide,
    membership_with_cofactors,
    monomial_power_bound,
    normal_form,
    order_along_curve,
    quotient_dim,
    standard_basis,
    step_budget,
)
from folindex.polyring import Poly


def local2():
    return MonomialOrder.local(2)


def test_order_keys():
    x, y = Poly.variables(2)
    dp = MonomialOrder.degrevlex(2)
    assert dp.leading(x + y)[0] == (1, 0)
    assert dp.leading(x ** 2 + x * y ** 2)[0] == (1, 2)
    ds = local2()
    assert ds.leading(1 + x + y)[0] == (0, 0)
    assert ds.leading(x + y)[0] == (1, 0)
    assert ds.leading(x ** 3 + y ** 2)[0] == (0, 2)


def test_order_permutation():
    with pytest.raises(InvalidInput):
        MonomialOrder("weighted", 2)


def test_mora_unit_tracking():
    x = Poly.var(1, 0)
    ideal = IdealGens((x - x ** 2,), MonomialOrder.local(1))
    wit = membership_with_cofactors(x, ideal)
    assert wit.cofactors == (Poly.const(1, 1),)
    assert wit.unit == 1 - x
    assert wit.unit.constant_term() == 1


def test_cusp_jacobian_ideal_local():
    x, y = Poly.variables(2)
    ideal = IdealGens((3 * x ** 2, -2 * y), local2())
    assert quotient_dim(ideal) == 2
    ideal2 = IdealGens((3 * x ** 2, 3 * y ** 2), local2())
    assert quotient_dim(ideal2) == 4


def test_curve_plus_line_basis_and_cofactors():
    x, y = Poly.variables(2)
    ideal = IdealGens((y ** 2 - x ** 3, y), local2())
    assert quotient_dim(ideal) == 3
    wit = membership_with_cofactors(x ** 3, ideal)
    assert wit.unit == Poly.const(2, 1)
    assert wit.cofactors == (Poly.const(2, -1), y)
    with pytest.raises(NotMember):
        membership_with_cofactors(x ** 2, ideal)


def test_membership_identity_random():
    rng = random.Random(41)
    x, y = Poly.variables(2)
    gens = (y ** 2 - x ** 3, x * y)
    ideal = IdealGens(gens, local2())
    for _ in range(10):
        combo = Poly.zero(2)
        for g in gens:
            e = (rng.randrange(3), rng.randrange(3))
            combo = combo + Poly.monomial(e, Fraction(rng.randrange(-4, 5))) * g
        wit = membership_with_cofactors(combo, ideal)
        acc = Poly.zero(2)
        for q, g in zip(wit.cofactors, gens):
            acc = acc + q * g
        assert acc == wit.unit * combo
        assert wit.unit.constant_term() == 1


def test_global_basis_five_points():
    x, y = Poly.variables(2)
    gens = (x * (5 * y ** 2 - 9), y * (5 * x ** 2 - 9))
    ideal = IdealGens(gens, MonomialOrder.degrevlex(2))
    assert quotient_dim(ideal) == 5
    sb = ideal.basis()
    minimal = set()
    for e in sb.leading_exps:
        if not any(all(a <= b for a, b in zip(f, e)) for f in sb.leading_exps
                   if f != e):
            minimal.add(e)
    assert minimal == {(2, 0), (1, 2), (0, 3)}


def test_quotient_dim_monomial_oracle():
    # standard basis of a monomial ideal is itself; count the staircase naively
    rng = random.Random(59)
    for _ in range(12):
        exps = {tuple(rng.randrange(4) for _ in range(2)) for _ in range(4)}
        exps = {e for e in exps if sum(e) > 0}
        exps.add((rng.randrange(1, 5), 0))
        exps.add((0, rng.randrange(1, 5)))
        gens = tuple(Poly.monomial(e) for e in exps)
        for order in (local2(), MonomialOrder.degrevlex(2)):
            dim = quotient_dim(IdealGens(gens, order))
            brute = sum(
                1
                for a in range(6)
                for b in range(6)
                if not any(e[0] <= a and e[1] <= b for e in exps)
            )
            assert dim == brute


def test_quotient_dim_infinite():
    x, y = Poly.variables(2)
    assert quotient_dim(IdealGens((x,), local2())) is INFINITE
    assert quotient_dim(IdealGens((x * y,), MonomialOrder.degrevlex(2))) is INFINITE
    assert quotient_dim(IdealGens((Poly.const(2, 1) + x,), local2())) == 0


def test_power_bound():
    x, y = Poly.variables(2)
    assert monomial_power_bound(IdealGens((x, y), local2())) == 1
    assert monomial_power_bound(IdealGens((y ** 2 - x ** 3, y), local2())) == 3
    assert monomial_power_bound(IdealGens((x ** 2, y), local2())) == 2
    with pytest.raises(NotZeroDimensional):
        monomial_power_bound(IdealGens((x,), local2()))


def test_power_bound_is_sharp():
    x, y = Poly.variables(2)
    ideal = IdealGens((y ** 2 - x ** 3, y), local2())
    n = monomial_power_bound(ideal)
    for i in range(2):
        assert normal_form(Poly.var(2, i) ** n, ideal).is_zero()
    assert not all(
        normal_form(Poly.var(2, i) ** (n - 1), ideal).is_zero() for i in range(2)
    )


def test_exact_divide():
    x, y = Poly.variables(2)
    assert exact_divide(x ** 2 * y + x, x) == x * y + 1
    assert exact_divide((x + y) * (x - y), x + y) == x - y
    assert exact_divide(x ** 2 + y, x) is None
    assert exact_divide(Poly.zero(2), x) == Poly.zero(2)
    rng = random.Random(61)
    for _ in range(10):
        f = Poly(2, {(rng.randrange(3), rng.randrange(3)): Fraction(rng.randrange(1, 5)),
                     (0, 0): Fraction(rng.randrange(1, 5))})
        g = Poly(2, {(rng.randrange(3), rng.randrange(3)): Fraction(rng.randrange(-4, 5)),
                     (1, 1): Fraction(rng.randrange(1, 3))})
        assert exact_divide(f * g, f) == g


def test_order_along_curve():
    x, y = Poly.variables(2)
    cusp = IdealGens((y ** 2 - x ** 3,), local2())
    assert order_along_curve(y, cusp) == 3
    assert order_along_curve(x, cusp) == 2
    assert order_along_curve(x + y, cusp) == 2
    assert order_along_curve(y ** 2 - x ** 3, cusp) is INFINITE
    assert order_along_curve(Poly.zero(2), cusp) is INFINITE
    line = IdealGens((y,), local2())
    assert order_along_curve(x, line) == 1
    assert order_along_curve(Poly.const(2, 1), line) == 0


def test_resource_cap():
    x, y = Poly.variables(2)
    gens = (y ** 2 - x ** 3, x * y ** 2 - y)
    with pytest.raises(ResourceCap), step_budget(2):
        standard_basis(gens, local2())
    # a failed attempt must not poison the cache
    ideal = IdealGens(gens, local2())
    with pytest.raises(ResourceCap), step_budget(2):
        ideal.basis()
    assert ideal.basis() is not None


def test_step_budget_spans_the_block():
    x, y = Poly.variables(2)
    gens = (y ** 2 - x ** 3, x * y ** 2 - y)
    with step_budget(1000) as budget:
        standard_basis(gens, local2())
    spent = 1000 - budget.remaining
    assert spent > 0
    # room for one basis but not for two: the second spends from the same
    # budget and runs out
    with step_budget(spent) as budget:
        standard_basis(gens, local2())
        assert budget.remaining == 0
        with pytest.raises(ResourceCap):
            standard_basis(gens, local2())
    # an inner block has its own budget; the outer one is back after it
    with step_budget(spent + 1) as outer:
        with step_budget(spent):
            standard_basis(gens, local2())
        assert outer.remaining == spent + 1


def test_with_extra():
    x, y = Poly.variables(2)
    curve = IdealGens((y ** 2 - x ** 3,), local2())
    bigger = curve.with_extra((y,))
    assert bigger.gens == (y ** 2 - x ** 3, y)
    assert quotient_dim(bigger) == 3


def test_bad_inputs_raise_invalid_input():
    x, y = Poly.variables(2)
    with pytest.raises(InvalidInput):
        StepBudget(0)
    for limit in (0, -5, None):
        with pytest.raises(InvalidInput), step_budget(limit):
            pass
    with pytest.raises(InvalidInput):
        MonomialOrder.local(0)
    with pytest.raises(InvalidInput):
        standard_basis((), local2())
    with pytest.raises(InvalidInput):
        standard_basis((x, Poly.var(3, 0)), local2())
    with pytest.raises(InvalidInput):
        IdealGens((x,), MonomialOrder.local(3))
    with pytest.raises(InvalidInput):
        local2().leading(Poly.zero(2))
    global_line = IdealGens((x, y), MonomialOrder.degrevlex(2))
    with pytest.raises(InvalidInput):
        monomial_power_bound(global_line)
    with pytest.raises(InvalidInput):
        order_along_curve(x, global_line)
    with pytest.raises(InvalidInput):
        exact_divide(x, Poly.zero(2))


def _doubled_unit(nf):
    def broken(*args):
        r, u, c = nf(*args)
        return r, u + u, c
    return broken


def test_broken_bookkeeping_raises_route_conflict(monkeypatch):
    x, y = Poly.variables(2)
    gens = (y ** 2 - x ** 3, x * y ** 2 - y)
    monkeypatch.setattr(localalgebra, "_nf", _doubled_unit(localalgebra._nf))
    with pytest.raises(RouteConflict, match="expansion bookkeeping"):
        standard_basis(gens, local2())


def test_broken_cofactors_raise_route_conflict(monkeypatch):
    x, y = Poly.variables(2)
    ideal = IdealGens((y ** 2 - x ** 3, y), local2())
    ideal.basis()
    monkeypatch.setattr(localalgebra, "_nf", _doubled_unit(localalgebra._nf))
    with pytest.raises(RouteConflict, match="cofactor identity"):
        membership_with_cofactors(x ** 3, ideal)


def _ideals():
    def gens(n):
        term = st.tuples(st.tuples(*[st.integers(0, 3)] * n),
                         st.integers(-3, 3).filter(bool))
        poly = st.lists(term, min_size=1, max_size=4).map(
            lambda ts: Poly(n, dict(ts)))
        return st.lists(poly, min_size=1, max_size=4)
    return st.integers(2, 3).flatmap(gens)


@seed(20261018)
@settings(max_examples=100, deadline=None)
@given(_ideals(), st.sampled_from((LOCAL, GLOBAL)))
def test_every_s_polynomial_reduces_to_zero(gens, kind):
    # Buchberger's (Mora's) criterion checked by brute force, independent of
    # the product and chain criteria the engine uses to skip pairs.
    order = MonomialOrder(kind, gens[0].nvars)
    try:
        with step_budget(300):
            sb = standard_basis(gens, order)
        for i, j in itertools.combinations(range(len(sb.elements)), 2):
            ei, ej = sb.leading_exps[i], sb.leading_exps[j]
            lcm = tuple(map(max, ei, ej))
            spoly = (Poly.monomial(tuple(a - b for a, b in zip(lcm, ei)))
                     * sb.elements[i]
                     - Poly.monomial(tuple(a - b for a, b in zip(lcm, ej)))
                     * sb.elements[j])
            r, _, _ = localalgebra._nf(spoly, sb.elements, sb.leading_exps,
                                       order, StepBudget(300))
            assert r.is_zero(), (i, j)
    except ResourceCap:
        pass


def _box_staircase(exps, n):
    """Standard monomials of the monomial ideal of exps, enumerated in the
    box of its pure powers and sorted by degree and then as tuples; None
    when some variable has no pure power."""
    if (0,) * n in exps:
        return ()
    ks = []
    for i in range(n):
        pure = [e[i] for e in exps if e[i] and sum(e) == e[i]]
        if not pure:
            return None
        ks.append(min(pure))
    std = [a for a in itertools.product(*(range(k) for k in ks))
           if not any(all(f <= b for f, b in zip(e, a)) for e in exps)]
    return tuple(sorted(std, key=lambda a: (sum(a), a)))


def _zero_dim_ideals():
    def gens(n):
        term = st.tuples(st.tuples(*[st.integers(0, 3)] * n),
                         st.integers(-3, 3).filter(bool))
        poly = st.lists(term, min_size=1, max_size=4).map(
            lambda ts: Poly(n, dict(ts)))
        powers = st.tuples(*[st.integers(1, 4)] * n).map(
            lambda ks: [Poly.var(n, i) ** k for i, k in enumerate(ks)])
        # a pure power of each variable, disguised by the random generators
        return st.tuples(st.lists(poly, min_size=1, max_size=3), powers).map(
            lambda gp: [g + p for g, p in zip(gp[0], gp[1])]
            + gp[0][len(gp[1]):] + gp[1][len(gp[0]):])
    return st.integers(2, 3).flatmap(gens)


@seed(20261019)
@settings(max_examples=100, deadline=None)
@given(_zero_dim_ideals())
def test_corner_dimension_matches_exact_basis(gens):
    n = gens[0].nvars
    gens = [g for g in gens if not g.is_zero()] or [Poly.var(n, 0)]
    order = MonomialOrder.local(n)
    try:
        with step_budget(300):
            exact = standard_basis(gens, order)
    except ResourceCap:
        return
    want = _box_staircase(exact.leading_exps, n)
    ideal = IdealGens(gens, order)
    got = quotient_dim(ideal)
    assert (got is INFINITE) if want is None else got == len(want)
    sb = ideal.basis(at_corner)
    assert exact.modulo is None
    if want is not None:
        # m^T lies in the ideal: every degree-T monomial has the exact
        # normal form 0
        assert sb.modulo is not None
        for e in itertools.product(range(sb.modulo + 1), repeat=n):
            if sum(e) == sb.modulo:
                r, _, _ = localalgebra._nf(
                    Poly.monomial(e), exact.elements, exact.leading_exps,
                    order, StepBudget(2000))
                assert r.is_zero()
        # truncated expansions hold modulo m^T and nothing reaches degree T
        for b, row in zip(sb.elements, sb.expansions):
            acc = Poly.zero(n)
            for q, g in zip(row, gens):
                acc = acc + q * g
            assert (acc - b).truncate(sb.modulo).is_zero()
            assert all(q.degree() < sb.modulo for q in row)
            assert b.degree() < sb.modulo or len(b.terms) == 1


def test_corner_truncates_the_local_basis_only():
    x, y = Poly.variables(2)
    gens = (y ** 2 - x ** 3 + x ** 5 * y, x * y + y ** 7)
    ideal = IdealGens(gens, local2())
    assert quotient_dim(ideal) == 5
    sb = ideal.basis(at_corner)
    assert sb.modulo == 4
    assert ideal.basis() is not sb and ideal.basis().modulo is None
    # an element whose leading monomial reaches degree 4 is that monomial
    assert all(b.degree() < 4 or len(b.terms) == 1 for b in sb.elements)
    # x^4 lies in the ideal, x^3 does not: the remainder of x^3 + x^5
    # modulo m^4 is x^3
    assert normal_form(x ** 4 + x ** 5 * y, ideal).is_zero()
    assert normal_form(x ** 3 + x ** 5, ideal) == x ** 3
    # x*y == -y^7 modulo the ideal, and y^7 lies in m^4
    wit = membership_with_cofactors(x * y, ideal, at_corner)
    assert all(q.degree() < 4 for q in wit.cofactors)
    assert wit.unit.constant_term() == 1
    glob = IdealGens(gens, MonomialOrder.degrevlex(2))
    assert glob.basis(at_corner) is glob.basis()
    assert glob.basis().modulo is None


def _doubled_truncated_unit(nf):
    # doubles the unit of every normal form taken modulo a power of m and
    # leaves the exact ones alone
    def broken(p, elements, lead_exps, order, budget, below=None):
        r, u, c = nf(p, elements, lead_exps, order, budget, below)
        return r, (u if below is None else u + u), c
    return broken


def test_corrupted_truncated_row_raises_route_conflict(monkeypatch):
    x, y = Poly.variables(2)
    # the corner is known from the start (x^5, y^5), and the S-pair of the
    # first two generators adds an element below it
    gens = (x * y - x ** 3, x ** 2 * y + y ** 4, x ** 5, y ** 5)
    sb = standard_basis(gens, local2(), at_corner)
    assert sb.modulo is not None
    assert len(sb.elements) > len(gens)
    assert quotient_dim(IdealGens(gens, local2())) == len(_box_staircase(
        standard_basis(gens, local2()).leading_exps, 2))
    ideal = IdealGens((y ** 2 - x ** 3, y), local2())
    ideal.basis(at_corner)
    monkeypatch.setattr(localalgebra, "_nf",
                        _doubled_truncated_unit(localalgebra._nf))
    standard_basis(gens, local2())
    with pytest.raises(RouteConflict, match="expansion bookkeeping"):
        standard_basis(gens, local2(), at_corner)
    with pytest.raises(RouteConflict, match="cofactor identity"):
        membership_with_cofactors(y + x * y, ideal, at_corner)


@seed(20261020)
@settings(max_examples=100, deadline=None)
@given(st.one_of(_zero_dim_ideals(), _ideals()),
       st.sampled_from(("local-corner", "local-exact", "global")))
def test_stored_staircase_is_the_staircase_of_the_leading_exponents(gens,
                                                                    kind):
    # the truncating local basis shrinks the staircase it enumerated once;
    # the others enumerate it at the end
    n = gens[0].nvars
    gens = [g for g in gens if not g.is_zero()] or [Poly.var(n, 0)]
    if kind == "global":
        order = MonomialOrder.degrevlex(n)
    else:
        order = MonomialOrder.local(n)
    modulo = at_corner if kind == "local-corner" else None
    try:
        with step_budget(300):
            sb = standard_basis(gens, order, modulo)
    except ResourceCap:
        return
    want = _box_staircase(sb.leading_exps, n)
    assert sb.staircase == localalgebra._staircase(sb.leading_exps, n)
    assert sb.staircase == want


def _counted_staircase(monkeypatch):
    """Replace _staircase by a wrapper; the list it returns records the size
    of every finite staircase enumerated."""
    sizes = []
    real = localalgebra._staircase

    def counted(exps, n):
        std = real(exps, n)
        if std is not None:
            sizes.append(len(std))
        return std
    monkeypatch.setattr(localalgebra, "_staircase", counted)
    return sizes


def test_one_basis_enumerates_its_staircase_once(monkeypatch):
    sizes = _counted_staircase(monkeypatch)
    x, y = Poly.variables(2)
    X, Y, Z = Poly.variables(3)
    f = Z ** 4 - 3 * Y ** 2 * Z ** 3 + Y ** 3 + X ** 2 - 3 * X ** 2 * Y ** 3
    cases = [
        # the corner is known from the start, and later elements shrink the
        # staircase below it
        ((x * y - x ** 3, x ** 2 * y + y ** 4, x ** 5, y ** 5), local2()),
        ((y ** 2 - x ** 3 + x ** 5 * y, x * y + y ** 7), local2()),
        ([f.diff(i) for i in range(3)], MonomialOrder.local(3)),
        ((x ** 2 - y, y ** 3 - x), MonomialOrder.degrevlex(2)),
    ]
    for gens, order in cases:
        for modulo in (None, at_corner):
            del sizes[:]
            sb = standard_basis(gens, order, modulo)
            assert len(sizes) == 1, (gens, order, modulo)
            assert sizes[0] >= len(sb.staircase)
    # the first case shrank its staircase after enumerating it: 9 -> 8
    sb = standard_basis(cases[0][0], local2(), at_corner)
    assert sizes[-1] == 9 and len(sb.staircase) == 8
    # a staircase that never becomes finite is never enumerated
    del sizes[:]
    assert standard_basis((x * y,), local2(), at_corner).staircase is None
    assert sizes == []


def test_quotient_dim_and_power_bound_read_the_stored_staircase(monkeypatch):
    x, y = Poly.variables(2)
    ideal = IdealGens((y ** 2 - x ** 3, x * y), local2())
    sizes = _counted_staircase(monkeypatch)
    assert quotient_dim(ideal) == 5
    assert monomial_power_bound(ideal) == 4
    assert ideal.basis(at_corner).staircase == (
        (0, 0), (0, 1), (1, 0), (2, 0), (3, 0))
    assert len(sizes) == 1
