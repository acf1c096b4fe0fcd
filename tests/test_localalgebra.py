"""Standard bases, normal forms with unit tracking, and quotient dimensions."""

import dataclasses
import itertools
import random
from fractions import Fraction
from functools import partial
from math import gcd
from operator import add, le, sub
from time import perf_counter

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from folindex import localalgebra, milnor_number
from folindex.errors import (
    InvalidInput,
    NotMember,
    NotZeroDimensional,
    ResourceCap,
    RouteConflict,
)
from folindex.localalgebra import (
    DEFAULT_MAX_STEPS,
    DEGREE_CAP,
    GLOBAL,
    INFINITE,
    LOCAL,
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


def _leading_exp(order, p):
    # the largest key of the terms is the leading monomial
    return order.exponent(max(map(order.key, p.terms)))


def test_order_keys():
    x, y = Poly.variables(2)
    dp = MonomialOrder.degrevlex(2)
    assert _leading_exp(dp, x + y) == (1, 0)
    assert _leading_exp(dp, x ** 2 + x * y ** 2) == (1, 2)
    ds = local2()
    assert _leading_exp(ds, 1 + x + y) == (0, 0)
    assert _leading_exp(ds, x + y) == (1, 0)
    assert _leading_exp(ds, x ** 3 + y ** 2) == (0, 2)


def test_order_permutation():
    with pytest.raises(InvalidInput):
        MonomialOrder("weighted", 2)


def _exponents(n):
    # small entries make ties and divisibility common; large ones reach the
    # top of the fields, with every total degree below 2^31
    entry = st.one_of(st.integers(0, 4), st.integers(0, DEGREE_CAP // 4 - 1))
    return st.tuples(*[entry] * n)


def _encodings():
    def case(n):
        return st.tuples(st.just(n), st.lists(_exponents(n), min_size=2,
                                              max_size=6))
    return st.integers(1, 4).flatmap(case)


@seed(20261023)
@settings(max_examples=300, deadline=None)
@given(_encodings(), st.sampled_from((LOCAL, GLOBAL)),
       st.integers(1, DEGREE_CAP))
def test_packed_keys_encode_the_order_degree_divisibility_and_cut(case,
                                                                  kind,
                                                                  below):
    n, exps = case
    order = MonomialOrder(kind, n)
    keys = [order.key(e) for e in exps]
    assert [order.exponent(K) for K in keys] == exps
    # integer order on keys is the old tuple key's order
    assert (sorted(exps, key=order.key)
            == sorted(exps, key=_tuple_key(order)))
    assert localalgebra._rational(dict.fromkeys(keys, 1), 1, 1, order) \
        == Poly(n, dict.fromkeys(exps, 1))
    cut = order.cut(below)
    # degrevlex never truncates
    assert (cut is None) == (kind == GLOBAL)
    for e, K in zip(exps, keys):
        assert order.degree(K) == sum(e)
        assert order.top({K: 1}) == sum(e)
        if cut is not None:
            assert bool(localalgebra._below({K: 1}, cut)) == (sum(e) < below)
    for (e, Ke), (f, Kf) in itertools.product(zip(exps, keys), repeat=2):
        if sum(e) + sum(f) < DEGREE_CAP:
            g = tuple(map(add, e, f))
            assert order.key(g) == Ke + Kf
            # the guard test on a product, which x^e divides
            assert _guard_divides(order, Ke, Ke + Kf)
        assert _guard_divides(order, Ke, Kf) == all(map(le, e, f))


def _guard_divides(order, Ke, Kf):
    guard = order.guard
    return ((-Kf & order.mask | guard) - (-Ke & order.mask)) & guard == guard


def test_a_monomial_of_degree_two_to_the_31_raises_resource_cap():
    x, y = Poly.variables(2)
    # the staircase of (x^(2^31 - 1), y) would list 2^31 - 1 monomials;
    # the pair of the two partials has an lcm of degree 2^31 and raises
    # as it is formed
    start = perf_counter()
    with pytest.raises(ResourceCap):
        milnor_number(x ** (2 ** 31) + y ** 2)
    assert perf_counter() - start < 1
    with step_budget(10) as budget:
        with pytest.raises(ResourceCap):
            standard_basis((x ** (2 ** 30) * y - 1, x * y ** (2 ** 30) - 1),
                           MonomialOrder.degrevlex(2))
    assert budget.remaining == 10
    # an input of degree 2^31, and a reduction step whose reducer reaches
    # it: x * y / x * (x + y^(2^31 - 1)) has degree 2^31
    line = standard_basis((x,), local2())
    with pytest.raises(ResourceCap):
        normal_form(x ** (2 ** 31), line)
    with pytest.raises(ResourceCap):
        membership_with_cofactors(y ** (2 ** 31) * x, line)
    tall = standard_basis((x + y ** (2 ** 31 - 1),), local2())
    with pytest.raises(ResourceCap):
        normal_form(x * y, tall)
    assert normal_form(y, tall) == y
    # the unit -1 has the row (1, -x^(2^30)), so the witness of x^(2^30)
    # would multiply x^(2^30) * x^(2^30) * y
    unit = standard_basis((x ** (2 ** 30) * y - 1, y),
                          MonomialOrder.degrevlex(2))
    assert unit.staircase == ()
    with pytest.raises(ResourceCap):
        membership_with_cofactors(x ** (2 ** 30), unit)
    assert membership_with_cofactors(x ** 5, unit).unit == 1


def _unit_ideal():
    x, y = Poly.variables(2)
    u = -3 + 3 * x ** 3 + 3 * x * y - 2 * x ** 3 * y ** 3
    h = (-2 * x ** 4 * y ** 2 - 3 * x * y - 3 * x ** 2 * y ** 2 - 2 * y ** 4
         + 2 * x * y ** 2)
    return u, h


def test_unit_ideal_reduces_without_a_swell():
    # Mora against the unit u alone stacks h and swells: about 1 s to
    # ResourceCap at 250 steps.  The staircase is empty, so normal_form is
    # 0 at once, and the witness is B_0 * h == h * B_0 for the element B_0
    # of leading exponent 0; both run under the default budget and take
    # well under a second together.
    u, h = _unit_ideal()
    for order in (local2(), MonomialOrder.degrevlex(2)):
        gens = (u,) if order.is_local() else (Poly.const(2, -3),)
        sb = standard_basis(gens, order)
        assert sb.staircase == ()
        start = perf_counter()
        assert normal_form(h, sb).is_zero()
        wit = membership_with_cofactors(h, sb)
        assert perf_counter() - start < 1
        assert wit.unit.constant_term() == 1
        assert wit.cofactors[0] * gens[0] == wit.unit * h
    # modulo m^T the witness is cut there too
    sb = _corner((u, h))
    assert sb.staircase == () and sb.modulo == 1
    wit = membership_with_cofactors(h + 1, sb)
    assert wit.unit == 1
    assert [q.degree() for q in wit.cofactors] == [0, -1]


@pytest.mark.parametrize("swap", [False, True], ids=["u-first", "u-last"])
def test_exact_basis_stops_once_a_unit_leads(swap):
    # the pairs of (u, h) swelled past 60 s under a 400-step budget; once
    # u, whose leading exponent is 0, is in the basis, every set holding it
    # is standard, and the one pending pair costs its step
    u, h = _unit_ideal()
    start = perf_counter()
    with step_budget(400) as budget:
        sb = standard_basis((h, u) if swap else (u, h), local2())
    assert perf_counter() - start < 1
    assert budget.remaining == 399
    assert sb.staircase == ()
    assert normal_form(h * h + 1, sb).is_zero()


def test_unit_ideal_witness_keeps_the_cofactor_identity_check():
    u, h = _unit_ideal()
    sb = standard_basis((u,), local2())
    broken = dataclasses.replace(
        sb, rows=tuple(tuple(localalgebra._scale(R, 2) for R in row)
                       for row in sb.rows))
    with pytest.raises(RouteConflict, match="cofactor identity"):
        membership_with_cofactors(h, broken)


def test_mora_unit_tracking():
    x = Poly.var(1, 0)
    sb = standard_basis((x - x ** 2,), MonomialOrder.local(1))
    wit = membership_with_cofactors(x, sb)
    assert wit.cofactors == (Poly.const(1, 1),)
    assert wit.unit == 1 - x
    assert wit.unit.constant_term() == 1


def test_cusp_jacobian_ideal_local():
    x, y = Poly.variables(2)
    assert quotient_dim((3 * x ** 2, -2 * y), local2()) == 2
    assert quotient_dim((3 * x ** 2, 3 * y ** 2), local2()) == 4


def test_curve_plus_line_basis_and_cofactors():
    x, y = Poly.variables(2)
    gens = (y ** 2 - x ** 3, y)
    assert quotient_dim(gens, local2()) == 3
    sb = standard_basis(gens, local2())
    wit = membership_with_cofactors(x ** 3, sb)
    assert wit.unit == Poly.const(2, 1)
    assert wit.cofactors == (Poly.const(2, -1), y)
    with pytest.raises(NotMember):
        membership_with_cofactors(x ** 2, sb)


def test_membership_identity_random():
    rng = random.Random(41)
    x, y = Poly.variables(2)
    gens = (y ** 2 - x ** 3, x * y)
    sb = standard_basis(gens, local2())
    for _ in range(10):
        combo = Poly.zero(2)
        for g in gens:
            e = (rng.randrange(3), rng.randrange(3))
            combo = combo + Poly.monomial(e, Fraction(rng.randrange(-4, 5))) * g
        wit = membership_with_cofactors(combo, sb)
        acc = Poly.zero(2)
        for q, g in zip(wit.cofactors, gens):
            acc = acc + q * g
        assert acc == wit.unit * combo
        assert wit.unit.constant_term() == 1


def test_global_basis_five_points():
    x, y = Poly.variables(2)
    gens = (x * (5 * y ** 2 - 9), y * (5 * x ** 2 - 9))
    assert quotient_dim(gens, MonomialOrder.degrevlex(2)) == 5
    sb = standard_basis(gens, MonomialOrder.degrevlex(2))
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
            dim = quotient_dim(gens, order)
            brute = sum(
                1
                for a in range(6)
                for b in range(6)
                if not any(e[0] <= a and e[1] <= b for e in exps)
            )
            assert dim == brute


def test_quotient_dim_infinite():
    x, y = Poly.variables(2)
    assert quotient_dim((x,), local2()) is INFINITE
    assert quotient_dim((x * y,), MonomialOrder.degrevlex(2)) is INFINITE
    assert quotient_dim((Poly.const(2, 1) + x,), local2()) == 0


def _corner(gens, order=None):
    return standard_basis(gens, order or local2(), at_corner)


def test_power_bound():
    x, y = Poly.variables(2)
    assert monomial_power_bound(_corner((x, y))) == 1
    assert monomial_power_bound(_corner((y ** 2 - x ** 3, y))) == 3
    assert monomial_power_bound(_corner((x ** 2, y))) == 2
    with pytest.raises(NotZeroDimensional):
        monomial_power_bound(_corner((x,)))


def test_power_bound_is_sharp():
    x, y = Poly.variables(2)
    sb = _corner((y ** 2 - x ** 3, y))
    n = monomial_power_bound(sb)
    for i in range(2):
        assert normal_form(Poly.var(2, i) ** n, sb).is_zero()
    assert not all(
        normal_form(Poly.var(2, i) ** (n - 1), sb).is_zero() for i in range(2)
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
    cusp = (y ** 2 - x ** 3,)
    assert order_along_curve(y, cusp) == 3
    assert order_along_curve(x, cusp) == 2
    assert order_along_curve(x + y, cusp) == 2
    assert order_along_curve(y ** 2 - x ** 3, cusp) is INFINITE
    assert order_along_curve(Poly.zero(2), cusp) is INFINITE
    line = [y]
    assert order_along_curve(x, line) == 1
    assert order_along_curve(Poly.const(2, 1), line) == 0


def test_curve_plus_generator_colength():
    x, y = Poly.variables(2)
    cusp = (y ** 2 - x ** 3,)
    bigger = cusp + (y,)
    assert bigger == (y ** 2 - x ** 3, y)
    # the order of g along the curve is the colength of the curve with g added
    assert quotient_dim(bigger, local2()) == 3
    assert order_along_curve(y, cusp) == 3


def test_resource_cap():
    x, y = Poly.variables(2)
    gens = (y ** 2 - x ** 3, x * y ** 2 - y)
    with pytest.raises(ResourceCap), step_budget(2):
        standard_basis(gens, local2())


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


def test_bad_inputs_raise_invalid_input():
    x, y = Poly.variables(2)
    for limit in (0, True):
        with pytest.raises(InvalidInput):
            StepBudget(limit)
    for limit in (0, -5, None, True, 2.0):
        with pytest.raises(InvalidInput), step_budget(limit):
            pass
    for nvars in (0, 2.0, True, None):
        with pytest.raises(InvalidInput):
            MonomialOrder.local(nvars)
    with pytest.raises(InvalidInput):
        standard_basis((), local2())
    with pytest.raises(InvalidInput):
        standard_basis((x, Poly.var(3, 0)), local2())
    with pytest.raises(InvalidInput):
        standard_basis((x,), MonomialOrder.local(3))
    with pytest.raises(InvalidInput):
        quotient_dim((x,), MonomialOrder.local(3))
    global_line = standard_basis((x, y), MonomialOrder.degrevlex(2))
    with pytest.raises(InvalidInput):
        monomial_power_bound(global_line)
    with pytest.raises(InvalidInput):
        order_along_curve(x, (Poly.var(3, 0),))
    with pytest.raises(InvalidInput):
        exact_divide(x, Poly.zero(2))
    with pytest.raises(InvalidInput, match="different rings"):
        exact_divide(x, Poly.var(3, 0))


def test_ring_mismatch_raises_invalid_input_at_entry():
    # a 3-variable polynomial against a 2-variable basis: normal_form raised
    # a bare KeyError, and membership ran to ResourceCap
    x, y = Poly.variables(2)
    X, Y, Z = Poly.variables(3)
    for sb in (standard_basis((y ** 2 - x ** 3, x * y), local2()),
               _corner((y ** 2 - x ** 3, x * y)),
               standard_basis((x ** 2, y ** 2), MonomialOrder.degrevlex(2))):
        for p in (X * Y * Z + X, Poly.const(3, 1), Poly.zero(3),
                  Poly.var(1, 0)):
            with step_budget(10) as budget:
                with pytest.raises(InvalidInput):
                    normal_form(p, sb)
                with pytest.raises(InvalidInput):
                    membership_with_cofactors(p, sb)
            assert budget.remaining == 10


def _doubled(unit):
    return {e: 2 * c for e, c in unit.items()}


def _doubled_unit(reduce):
    # the integer kernel returns (H, U, C) with U * h == sum C[k] B_k + H
    def broken(*args):
        h, u, c = reduce(*args)
        return h, _doubled(u), c
    return broken


def test_broken_bookkeeping_raises_route_conflict(monkeypatch):
    x, y = Poly.variables(2)
    gens = (y ** 2 - x ** 3, x * y ** 2 - y)
    monkeypatch.setattr(localalgebra, "_reduce",
                        _doubled_unit(localalgebra._reduce))
    with pytest.raises(RouteConflict, match="expansion bookkeeping"):
        standard_basis(gens, local2())


def test_broken_cofactors_raise_route_conflict(monkeypatch):
    x, y = Poly.variables(2)
    sb = standard_basis((y ** 2 - x ** 3, y), local2())
    monkeypatch.setattr(localalgebra, "_reduce",
                        _doubled_unit(localalgebra._reduce))
    with pytest.raises(RouteConflict, match="cofactor identity"):
        membership_with_cofactors(x ** 3, sb)


# The reference works on exponent tuples, with its own copies of the tuple
# helpers the kernel had before it packed each monomial into one integer.

def _tuple_key(order):
    sign = -1 if order.is_local() else 1
    return lambda e: (sign * sum(e),) + tuple(-a for a in reversed(e))


def _tuple_below(P, below):
    if below is None:
        return P
    return {e: c for e, c in P.items() if sum(e) < below}


def _tuple_degree(P):
    return max(map(sum, P))


def _tuple_divides(e1, e2):
    return all(map(le, e1, e2))


def _tuple_scale(P, a):
    return dict(P) if a == 1 else {e: a * c for e, c in P.items()}


def _tuple_addmul(out, c, e, P, below):
    items = P.items()
    if below is not None:
        room = below - sum(e)
        items = [(f, d) for f, d in items if sum(f) < room]
    for f, d in items:
        g = tuple(map(add, e, f))
        s = out.get(g, 0) + c * d
        if s:
            out[g] = s
        else:
            del out[g]
    return out


def _reference_reduce(h, basis, order, budget, below, events=None):
    # The reduction loop that rescales U and every C[k] at each step and
    # takes the content over all of them, kept as the reference for
    # localalgebra._reduce; events, when given, collects "stack" and "fold".
    zero = (0,) * order.nvars
    one = {zero: 1}
    key = _tuple_key(order)
    U = one
    C = {}
    reducers = [(e, B[e], _tuple_degree(B) - sum(e), B, k)
                for k, (B, e) in enumerate(basis)]
    while h:
        budget.spend()
        eh = max(h, key=key)
        ch = h[eh]
        best = None
        for red in reducers:
            if ((best is None or red[2] < best[2])
                    and _tuple_divides(red[0], eh)):
                best = red
        if best is None:
            break
        eg, cg, ec, g, payload = best
        if ec and ec > (ech := _tuple_degree(h) - sum(eh)):
            reducers.append((eh, ch, ech, h, (U, dict(C))))
            if events is not None:
                events.append("stack")
        d = gcd(ch, cg)
        a, b = cg // d, ch // d
        shift = tuple(map(sub, eh, eg))
        h = _tuple_addmul(_tuple_scale(h, a), -b, shift, g, below)
        if a != 1:
            U = _tuple_scale(U, a)
            C = {k: _tuple_scale(q, a) for k, q in C.items()}
        if type(payload) is int:
            C[payload] = _tuple_addmul(dict(C.get(payload, {})), b, shift,
                                       one, below)
        else:
            if events is not None:
                events.append("fold")
            U0, C0 = payload
            U = _tuple_addmul(dict(U), -b, shift, U0, below)
            for k, q in C0.items():
                C[k] = _tuple_addmul(dict(C.get(k, {})), -b, shift, q, below)
        content = gcd(*h.values())
        if content != 1:
            content = gcd(content, *U.values(),
                          *(c for q in C.values() for c in q.values()))
            if content != 1:
                h, U = ({e: c // content for e, c in P.items()}
                        for P in (h, U))
                C = {k: {e: c // content for e, c in q.items()}
                     for k, q in C.items()}
    return h, U, C


def _packed_reduce(h, basis, order, budget, below):
    # localalgebra._reduce on the packed forms of tuple-keyed inputs, with
    # its result unpacked
    def pack(P):
        return {order.key(e): c for e, c in P.items()}

    def unpack(P):
        return {order.exponent(K): c for K, c in P.items()}

    H, U, C = localalgebra._reduce(
        pack(h), [localalgebra._lead(pack(B), k, order)
                  for k, (B, _) in enumerate(basis)], order, budget, below)
    return unpack(H), unpack(U), {k: unpack(q) for k, q in C.items()}


def _both_reductions(h, gens, kind, below, events=None):
    """(result, steps left) of the reference and of _reduce on h against
    gens, both cut at below; a result is (H, U, C) or ResourceCap."""
    order = MonomialOrder(kind, len(next(iter(h))))
    cut = [_tuple_below(g, below) for g in gens]
    basis = [(B, max(B, key=_tuple_key(order))) for B in cut if B]
    h = _tuple_below(h, below)
    out = []
    for reduce in (partial(_reference_reduce, events=events),
                   _packed_reduce):
        budget = StepBudget(60)
        try:
            got = reduce(dict(h), basis, order, budget, below)
        except ResourceCap:
            got = ResourceCap
        out.append((got, budget.remaining))
    return out


def _reductions():
    def case(n):
        poly = st.dictionaries(st.tuples(*[st.integers(0, 3)] * n),
                               st.integers(-3, 3).filter(bool),
                               min_size=1, max_size=4)
        return st.tuples(poly, st.lists(poly, min_size=1, max_size=4),
                         st.sampled_from((LOCAL, GLOBAL)),
                         st.one_of(st.none(), st.integers(1, 8)))
    return st.integers(1, 3).flatmap(case)


@seed(20261022)
@settings(max_examples=300, deadline=None)
@given(_reductions())
def test_reduce_matches_the_rescaling_loop(case):
    # random integer bases, units among them, in both orders, exact and cut
    want, got = _both_reductions(*case)
    assert got == want


# Found by a seeded search over random reductions in the local order: Mora
# stacks h twice on the first and folds stacked intermediates back four
# times on the second, dividing out a content after a fold.  No pool of the
# benchmark folds, so these keep the fold branch of _reduce running.
_MORA = {
    "stacks": (({(3, 0): 2}, [{(2, 0): -3, (1, 2): -1}], LOCAL, 8),
               ["stack", "stack"],
               ({(1, 4): 2}, {(0, 0): 9}, {0: {(1, 0): -6, (0, 2): 2}}), 57),
    "folds": (({(1, 3): -1, (0, 2): 2}, [{(2, 3): -2, (0, 2): -1}], LOCAL, 7),
              ["stack", "stack", "fold", "fold", "stack", "fold", "stack",
               "fold"],
              ({}, {(0, 0): -1, (1, 0): 4, (2, 0): -16},
               {0: {(0, 0): 2, (1, 0): -8, (2, 0): 32, (1, 1): -1}}), 55),
}


@pytest.mark.parametrize("name", sorted(_MORA))
def test_reduce_matches_the_rescaling_loop_through_mora(name):
    case, want_events, result, left = _MORA[name]
    events = []
    want, got = _both_reductions(*case, events=events)
    assert events == want_events
    assert want == (result, left)
    assert got == want


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
@given(_ideals(), st.sampled_from((LOCAL, GLOBAL)),
       st.sampled_from((None, at_corner)))
def test_every_s_polynomial_reduces_to_zero(gens, kind, modulo):
    # Buchberger's (Mora's) criterion checked by brute force, independent of
    # the product and chain criteria the engine uses to skip pairs; at the
    # corner it holds modulo the basis's m^T.  Every element enters with a
    # positive leading coefficient, so no reduction step against it rescales
    # the cofactors by -1.
    order = MonomialOrder(kind, gens[0].nvars)
    try:
        with step_budget(300):
            sb = standard_basis(gens, order, modulo)
        assert all(record[2] > 0 for record in sb.basis)
        for i, j in itertools.combinations(range(len(sb.elements)), 2):
            ei, ej = sb.leading_exps[i], sb.leading_exps[j]
            lcm = tuple(map(max, ei, ej))
            spoly = (Poly.monomial(tuple(a - b for a, b in zip(lcm, ei)))
                     * sb.elements[i]
                     - Poly.monomial(tuple(a - b for a, b in zip(lcm, ej)))
                     * sb.elements[j])
            with step_budget(300):
                assert normal_form(spoly, sb).is_zero(), (i, j)
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
    got = quotient_dim(gens, order)
    assert (got is INFINITE) if want is None else got == len(want)
    sb = standard_basis(gens, order, at_corner)
    assert exact.modulo is None
    if want is not None:
        # m^T lies in the ideal: every degree-T monomial has the exact
        # normal form 0
        assert sb.modulo is not None
        for e in itertools.product(range(sb.modulo + 1), repeat=n):
            if sum(e) == sb.modulo:
                with step_budget(2000):
                    assert normal_form(Poly.monomial(e), exact).is_zero()
        # truncated expansions hold modulo m^T and nothing reaches degree T
        for b, row in zip(sb.elements, sb.expansions):
            acc = Poly.zero(n)
            for q, g in zip(row, gens):
                acc = acc + q * g
            assert all(sum(e) >= sb.modulo for e in (acc - b).terms)
            assert all(q.degree() < sb.modulo for q in row)
            assert b.degree() < sb.modulo or len(b.terms) == 1


def test_corner_truncates_the_local_basis_only():
    x, y = Poly.variables(2)
    gens = (y ** 2 - x ** 3 + x ** 5 * y, x * y + y ** 7)
    assert quotient_dim(gens, local2()) == 5
    sb = _corner(gens)
    assert sb.modulo == 4
    assert standard_basis(gens, local2()).modulo is None
    # an element whose leading monomial reaches degree 4 is that monomial
    assert all(b.degree() < 4 or len(b.terms) == 1 for b in sb.elements)
    # x^4 lies in the ideal, x^3 does not: the remainder of x^3 + x^5
    # modulo m^4 is x^3
    assert normal_form(x ** 4 + x ** 5 * y, sb).is_zero()
    assert normal_form(x ** 3 + x ** 5, sb) == x ** 3
    # x*y == -y^7 modulo the ideal, and y^7 lies in m^4
    wit = membership_with_cofactors(x * y, sb)
    assert all(q.degree() < 4 for q in wit.cofactors)
    assert wit.unit.constant_term() == 1
    # a member of m^4 is 0 modulo m^4: no step and no cofactor
    wit = membership_with_cofactors(x ** 4 + x ** 5 * y, sb)
    assert wit.unit == 1 and all(q.is_zero() for q in wit.cofactors)
    # a global order never truncates: the corner policy gives the exact basis
    glob = _corner(gens, MonomialOrder.degrevlex(2))
    assert glob.modulo is None
    assert glob == standard_basis(gens, MonomialOrder.degrevlex(2))


def _doubled_truncated_unit(reduce):
    # doubles the unit of every normal form taken modulo a power of m and
    # leaves the exact ones alone
    def broken(h, basis, order, budget, below):
        h, u, c = reduce(h, basis, order, budget, below)
        return h, (u if below is None else _doubled(u)), c
    return broken


def test_corrupted_truncated_row_raises_route_conflict(monkeypatch):
    x, y = Poly.variables(2)
    # the corner is known from the start (x^5, y^5), and the S-pair of the
    # first two generators adds an element below it
    gens = (x * y - x ** 3, x ** 2 * y + y ** 4, x ** 5, y ** 5)
    sb = standard_basis(gens, local2(), at_corner)
    assert sb.modulo is not None
    assert len(sb.elements) > len(gens)
    assert quotient_dim(gens, local2()) == len(_box_staircase(
        standard_basis(gens, local2()).leading_exps, 2))
    line = _corner((y ** 2 - x ** 3, y))
    monkeypatch.setattr(localalgebra, "_reduce",
                        _doubled_truncated_unit(localalgebra._reduce))
    standard_basis(gens, local2())
    with pytest.raises(RouteConflict, match="expansion bookkeeping"):
        standard_basis(gens, local2(), at_corner)
    with pytest.raises(RouteConflict, match="cofactor identity"):
        membership_with_cofactors(y + x * y, line)


def _order_and_policy(kind, n):
    if kind == "global":
        return MonomialOrder.degrevlex(n), None
    return (MonomialOrder.local(n),
            at_corner if kind == "local-corner" else None)


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
    try:
        with step_budget(300):
            sb = standard_basis(gens, *_order_and_policy(kind, n))
    except ResourceCap:
        return
    want = _box_staircase(sb.leading_exps, n)
    assert sb.staircase == localalgebra._staircase(sb.leading_exps, n,
                                                   DEFAULT_MAX_STEPS)
    assert sb.staircase == want


def _counted_staircase(monkeypatch):
    """Replace _staircase by a wrapper; the list it returns records the size
    of every finite staircase enumerated."""
    sizes = []
    real = localalgebra._staircase

    def counted(exps, n, limit):
        std = real(exps, n, limit)
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
    gens = (y ** 2 - x ** 3, x * y)
    sizes = _counted_staircase(monkeypatch)
    sb = _corner(gens)
    assert monomial_power_bound(sb) == 4
    assert sb.staircase == ((0, 0), (0, 1), (1, 0), (2, 0), (3, 0))
    assert len(sizes) == 1
    # quotient_dim builds its own corner basis and enumerates it once
    assert quotient_dim(gens, local2()) == 5
    assert len(sizes) == 2


def test_the_staircase_lists_no_more_monomials_than_the_steps_left():
    # x^(10^6) + y^2 has 999,999 standard monomials, seconds of listing:
    # the staircase raises once it has listed more monomials than the
    # budget has steps, and spends none
    x, y = Poly.variables(2)
    start = perf_counter()
    with step_budget(100) as budget:
        with pytest.raises(ResourceCap, match="staircase"):
            milnor_number(x ** (10 ** 6) + y ** 2)
    assert perf_counter() - start < 1
    assert budget.remaining == 100
    exps = ((3, 0), (0, 1))
    assert localalgebra._staircase(exps, 2, 3) == ((0, 0), (1, 0), (2, 0))
    with pytest.raises(ResourceCap):
        localalgebra._staircase(exps, 2, 2)
    # a staircase as long as the steps left is listed, a longer one is not
    with step_budget(999):
        assert milnor_number(x ** 1000 + y ** 2).value == 999
    with step_budget(1000), pytest.raises(ResourceCap, match="staircase"):
        milnor_number(x ** 1002 + y ** 2)


@seed(20261025)
@settings(max_examples=100, deadline=None)
@given(st.one_of(_zero_dim_ideals(), _ideals()),
       st.sampled_from(("local-corner", "local-exact", "global")))
def test_every_record_is_the_leading_record_of_its_element(gens, kind):
    # each basis element is held once, as its leading record; a corner cut
    # rebuilds the records it clips, so none is stale
    n = gens[0].nvars
    gens = [g for g in gens if not g.is_zero()] or [Poly.var(n, 0)]
    order, modulo = _order_and_policy(kind, n)
    try:
        with step_budget(300):
            sb = standard_basis(gens, order, modulo)
    except ResourceCap:
        return
    for k, rec in enumerate(sb.basis):
        assert rec == localalgebra._lead(rec[4], k, order)
        assert order.exponent(rec[0]) == sb.leading_exps[k]


_scales = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6).filter(bool),
                    st.integers(1, 10 ** 6))


@seed(20261021)
@settings(max_examples=100, deadline=None)
@given(st.one_of(_zero_dim_ideals(), _ideals()),
       st.sampled_from(("local-corner", "local-exact", "global")),
       st.lists(_scales, min_size=4, max_size=4))
def test_scaling_the_generators_divides_only_the_expansions(gens, kind,
                                                            scales):
    # the integer kernel splits each generator into a rational weight and a
    # primitive integer polynomial; the weight must reach the expansions and
    # nothing else, and must not change the steps spent
    n = gens[0].nvars
    gens = [g for g in gens if not g.is_zero()] or [Poly.var(n, 0)]
    order, modulo = _order_and_policy(kind, n)

    def basis(gs):
        try:
            with step_budget(300) as budget:
                return standard_basis(gs, order, modulo), budget.remaining
        except ResourceCap:
            return None, None

    sb, left = basis(gens)
    scaled, scaled_left = basis([g * s for g, s in zip(gens, scales)])
    assert scaled_left == left
    if sb is None:
        return
    assert scaled.elements == sb.elements
    assert scaled.leading_exps == sb.leading_exps
    assert scaled.staircase == sb.staircase
    assert scaled.modulo == sb.modulo
    assert scaled.expansions == tuple(
        tuple(q / s for q, s in zip(row, scales)) for row in sb.expansions)


def _pinned_inputs():
    x, y = Poly.variables(2)
    X, Y, Z = Poly.variables(3)
    q = Fraction
    cusp = y ** 2 - x ** 3 + q(1, 2) * x * y ** 3 - x ** 2 * y ** 2
    bp = (X ** 2 + Y ** 3 + Z ** 4 + q(2, 3) * X * Y * Z ** 2
          + Y ** 2 * Z ** 2 - 3 * X * Y ** 3)
    field = (x ** 2 + q(2, 3) * y ** 3 - x * y ** 2 + 5 * x ** 2 * y,
             y ** 2 - q(3, 2) * x ** 3 + x * y - y ** 3)
    audit = (x ** 3 - 2 * x ** 2 * y + q(1, 2) * y ** 3 + x * y - 3 * y + 1,
             y ** 3 + x ** 2 * y - q(2, 3) * x ** 2 + x - 2)
    return {
        # the Tjurina ideal of a cusp, exact and cut at its corner, where
        # two elements become their leading monomials
        "cusp": ((cusp, cusp.diff(0), cusp.diff(1)), local2(), None),
        "cusp-corner": ((cusp, cusp.diff(0), cusp.diff(1)), local2(),
                        at_corner),
        # a Brieskorn-Pham space germ, cut at its corner
        "brieskorn-pham": ([bp.diff(i) for i in range(3)],
                           MonomialOrder.local(3), at_corner),
        # the cut grothendieck_residue makes for the bound 1 in the plane
        "residue-cut": (field, local2(), lambda c: 3 * max(c, 1) - 1),
        # a dense degree-3 field of an affine audit, in degrevlex
        "audit": (audit, MonomialOrder.degrevlex(2), None),
    }


# elements, expansions and steps left of step_budget(20000), as the rational
# Mora and Buchberger loops computed them
_PINNED = {
    "cusp": (
        ["y^2 + 1/2*x*y^3 - x^2*y^2 - x^3", "-1/6*y^3 + 2/3*x*y^2 + x^2",
         "y + 3/4*x*y^2 - x^2*y"],
        [["1", "0", "0"], ["0", "-1/3", "0"], ["0", "0", "1/2"]],
        19942),
    "cusp-corner": (
        ["y^2", "x^2", "y"],
        [["1", "0", "0"], ["0", "-1/3", "0"], ["0", "0", "1/2"]],
        19997),
    "brieskorn-pham": (
        ["1/3*y*z^2 - 3/2*y^3 + x", "2/3*y*z^2 + y^2 + 2/9*x*z^2 - 3*x*y^2",
         "3*z^3 + 3/2*y^2*z + x*y*z", "z^3"],
        [["1/2", "0", "0"], ["0", "1/3", "0"], ["0", "0", "3/4"],
         ["-1/6*y*z", "-1/6*z", "1/4"]],
        19992),
    "residue-cut": (
        ["2/3*y^3 - x*y^2 + x^2 + 5*x^2*y", "y^2 - y^3 + x*y - 3/2*x^3",
         "y^3 - 1/3*y^4 + 5*x^2*y^2 - 3/2*x^3*y + 3/2*x^4"],
        [["1", "0"], ["0", "1"], ["y", "y - x"]],
        19988),
    "audit": (
        ["1 - 3*y + 1/2*y^3 + x*y - 2*x^2*y + x^3",
         "-2 + y^3 + x - 2/3*x^2 + x^2*y",
         "3*y + 3*y^2 - 5/2*y^4 - 2*x - 2*x*y - x*y^2 + x*y^3 + x^2"
         " + 4/3*x^2*y - 2/3*x^3",
         "-38/29*y^2 - 30/29*y^3 + y^5 + 8/29*x*y + 12/29*x*y^2"
         " + 10/29*x*y^3 + 8/29*x^2 - 2/29*x^2*y - 12/29*x^2*y^2"
         " - 4/29*x^3 + 4/87*x^3*y + 8/87*x^4"],
        [["1", "0"], ["0", "1"], ["-y", "-2*y + x"],
         ["10/29*y^2 + 4/29*x*y",
          "24/29*y^2 - 2/29*x*y - 4/29*x^2"]],
        19981),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_basis_matches_the_rational_algorithm(name):
    gens, order, modulo = _pinned_inputs()[name]
    with step_budget(20000) as budget:
        sb = standard_basis(gens, order, modulo)
    elements, expansions, left = _PINNED[name]
    assert [b.format() for b in sb.elements] == elements
    assert [[q.format() for q in row] for row in sb.expansions] == expansions
    assert budget.remaining == left


def test_fractions_are_built_only_where_they_are_read(monkeypatch):
    x, y = Poly.variables(2)
    q = Fraction
    gens = (y ** 2 - x ** 3 + q(1, 2) * x * y ** 3, x * y - q(2, 3) * y ** 4)
    member = (1 + x) * gens[0] - q(3, 5) * y * gens[1]
    built = []
    real = localalgebra._rational

    def counted(*args):
        built.append(args)
        return real(*args)

    def unread(self):
        pytest.fail("the Fraction form of the basis was read")

    with monkeypatch.context() as m:
        m.setattr(localalgebra, "_rational", counted)
        # quotient_dim reads the staircase and builds no Fraction
        assert quotient_dim(gens, local2()) == 5
        assert built == []
        bases = [standard_basis(gens, local2()), _corner(gens),
                 standard_basis(gens, MonomialOrder.degrevlex(2))]
        assert built == []
        # normal forms, witnesses and power bounds reduce against the
        # integer basis and read neither elements nor expansions
        m.setattr(localalgebra.StandardBasis, "elements", property(unread))
        m.setattr(localalgebra.StandardBasis, "expansions",
                  property(unread))
        for sb in bases:
            assert normal_form(member, sb).is_zero()
            assert not normal_form(x, sb).is_zero()
            membership_with_cofactors(member, sb)
            with pytest.raises(NotMember):
                membership_with_cofactors(x, sb)
        assert monomial_power_bound(bases[1]) == 4
    # the Fraction form is computed on the first read and kept
    for sb in bases:
        assert sb.elements is sb.elements
        assert sb.expansions is sb.expansions
        for b, row in zip(sb.elements, sb.expansions):
            rest = b - sum((c * g for c, g in zip(row, gens)), Poly.zero(2))
            assert all(sb.modulo is not None and sum(e) >= sb.modulo
                       for e in rest.terms)


@seed(20261024)
@settings(max_examples=100, deadline=None)
@given(st.one_of(_zero_dim_ideals(), _ideals()),
       st.sampled_from(("local-corner", "local-exact", "global")))
def test_the_degree_cap_raises_before_a_product_reaches_it(gens, kind):
    # Record the top degree of every product _addmul writes for a basis and
    # a witness; with DEGREE_CAP lowered to it, the same computation must
    # raise ResourceCap for the degree before it writes such a product.
    n = gens[0].nvars
    gens = [g for g in gens if not g.is_zero()] or [Poly.var(n, 0)]
    order, modulo = _order_and_policy(kind, n)
    real = localalgebra._addmul
    formed = [0]

    def recording(out, c, e, P, cut):
        real(out, c, e, P, cut)
        formed[0] = max(formed[0], order.top(out))
        return out

    def run():
        with step_budget(300):
            sb = standard_basis(gens, order, modulo)
            membership_with_cofactors(gens[0] * gens[-1], sb)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(localalgebra, "_addmul", recording)
        try:
            run()
        except ResourceCap:
            return
    if formed[0] == 0:
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(localalgebra, "DEGREE_CAP", formed[0])
        with pytest.raises(ResourceCap, match="total degree"):
            run()
