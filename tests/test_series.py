"""Truncated series arithmetic, branch evaluation, and one-variable residues."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folindex.errors import (
    InvalidInput,
    RouteConflict,
    TruncationNotStabilized,
)
from folindex.polyring import DiffForm, Poly, VectorField
from folindex.residues import PhiSpec
from folindex.series import (
    BranchParam,
    InsufficientOrder,
    TruncSeries,
    laurent_residue,
    moved,
    newton_lift,
    poly_on_branch,
    pullback_one_form,
)


def test_basic_arithmetic():
    t = TruncSeries.param(5)
    one = TruncSeries.const(1, 5)
    s = one - t
    assert (s * s.inverse()) == one
    assert s.inverse().coeffs == (1, 1, 1, 1, 1)
    assert (t * t).valuation() == 2
    assert (t - t).valuation() is None
    assert (2 * t + t * t).derivative().coeffs == (2, 2, 0, 0)
    assert (t * TruncSeries.param(3)).order == 3
    assert t.truncate(2).coeffs == (0, 1)


def test_scalar_minus_series():
    t = TruncSeries.param(4)
    assert 1 - t == TruncSeries(4, (1, -1))
    assert Fraction(1, 2) - t * t == TruncSeries(4, (Fraction(1, 2), 0, -1))
    assert (1 - t) + (t - 1) == TruncSeries.const(0, 4)


def test_inverse_random():
    rng = random.Random(3)
    for _ in range(10):
        coeffs = [Fraction(rng.randrange(1, 6))] + [
            Fraction(rng.randrange(-5, 6)) for _ in range(6)
        ]
        s = TruncSeries(7, coeffs)
        assert s * s.inverse() == TruncSeries.const(1, 7)


def test_shift_down():
    t = TruncSeries.param(6)
    cubed = t * t * t
    assert cubed.shift_down(3).coeffs[0] == 1
    with pytest.raises(InvalidInput):
        (1 + t).shift_down(1)


def test_poly_on_branch():
    x, y = Poly.variables(2)
    t = TruncSeries.param(8)
    cusp = y ** 2 - x ** 3
    assert poly_on_branch(cusp, (t * t, t * t * t)).is_zero()
    s = poly_on_branch(cusp, (t, t))
    assert s.coeffs[2] == 1 and s.coeffs[3] == -1
    assert poly_on_branch(Poly.const(2, 7), (t, t)) == TruncSeries.const(7, 8)


def test_pullback_one_form():
    x, y = Poly.variables(2)
    t = TruncSeries.param(8)
    form = DiffForm(2, 1, {(1,): x})  # x dy
    s = pullback_one_form(form, (t * t, t * t * t))
    assert s.order == 7
    assert s.coeffs[4] == 3 and sum(1 for c in s.coeffs if c) == 1
    # d(f) pulled back along a branch of f == 0 vanishes
    from folindex.polyring import exterior_derivative
    assert pullback_one_form(exterior_derivative(y ** 2 - x ** 3),
                             (t * t, t * t * t)).is_zero()


def test_laurent_residue():
    t = TruncSeries.param(6)
    one = TruncSeries.const(1, 6)
    assert laurent_residue(one, t) == 1
    assert laurent_residue(t * t, t * t * t) == 1
    assert laurent_residue(one, 2 * t + t * t) == Fraction(1, 2)
    assert laurent_residue(t, one + t) == 0
    with pytest.raises(InsufficientOrder):
        laurent_residue(one, TruncSeries(6))
    with pytest.raises(InsufficientOrder):
        laurent_residue(TruncSeries.const(1, 1), TruncSeries(4, (0, 0, 1)))


def test_branch_param_extension():
    tp = Poly.var(1, 0)
    br = BranchParam.from_polys((tp ** 2, tp ** 3), 5)
    assert br.extendable
    hi = br.at_order(9)
    assert hi.order == 9 and hi.comps[1].coeffs[3] == 1
    lo = br.at_order(3)
    assert lo.order == 3 and lo.extendable

    # polynomials are expanded at the order read, whatever order was given
    big = BranchParam.from_polys((tp ** 2, tp ** 3), 10 ** 9)
    assert big.at_order(6).comps[1].coeffs == (0, 0, 0, 1, 0, 0)
    assert big.moved((1, 0)).at_order(3).comps[0].coeffs == (-1, 0, 1)

    capped = BranchParam((TruncSeries.param(4), TruncSeries.param(4)))
    assert not capped.extendable and capped.order == 4
    assert capped.at_order(2).order == 2
    with pytest.raises(TruncationNotStabilized):
        capped.at_order(8)


def test_moved_takes_each_kind_of_data_to_the_origin():
    x, y = Poly.variables(2)
    tp = Poly.var(1, 0)
    at = (1, Fraction(-1, 2))
    f = (y + Fraction(1, 2)) ** 2 - (x - 1) ** 3
    br = BranchParam.from_polys((1 + tp ** 2, Fraction(-1, 2) + tp ** 3), 8)
    phi = PhiSpec(2, [(1, (2, 0))])
    got = moved([f, VectorField((x - 1, 2 * y + 1)),
                 DiffForm(2, 1, {(0,): x - 1}), br, phi, (0, 1)], at)
    assert got[0] == y ** 2 - x ** 3
    assert got[1].components == (x, 2 * y)
    assert got[2].coeffs == {(0,): x}
    assert got[3].polys == (tp ** 2, tp ** 3)
    # data without coordinates comes back as it was
    assert got[4] is phi and got[5] == (0, 1)


def test_newton_lift_parabola():
    x, y = Poly.variables(2)
    br = newton_lift(y - x ** 2, 6)
    assert br.comps[0] == TruncSeries.param(6)
    assert br.comps[1].coeffs == (0, 0, 1, 0, 0, 0)
    assert br.extendable
    assert br.at_order(10).comps[1].coeffs[2] == 1


def test_newton_lift_catalan():
    # y = x - y^2  gives  y = x - x^2 + 2x^3 - 5x^4 + 14x^5 - ...
    x, y = Poly.variables(2)
    br = newton_lift(y ** 2 + y - x, 6)
    assert br.comps[1].coeffs == (0, 1, -1, 2, -5, 14)


def test_newton_lift_swapped_axis():
    x, y = Poly.variables(2)
    br = newton_lift(x - y ** 2, 6)
    assert br.comps[1] == TruncSeries.param(6)
    assert br.comps[0].coeffs == (0, 0, 1, 0, 0, 0)
    assert poly_on_branch(x - y ** 2, br.comps).is_zero()


def test_newton_lift_rejects_singular_point():
    x, y = Poly.variables(2)
    with pytest.raises(InvalidInput):
        newton_lift(y ** 2 - x ** 3, 5)
    with pytest.raises(InvalidInput):
        newton_lift(y + Poly.const(2, 1), 5)


def test_branch_inputs_are_checked():
    x, y = Poly.variables(2)
    t = TruncSeries.param(6)
    with pytest.raises(InvalidInput):
        BranchParam.from_polys((x, y), 6)
    with pytest.raises(InvalidInput):
        poly_on_branch(y ** 2 - x ** 3, (t,))
    with pytest.raises(InvalidInput):
        poly_on_branch(y ** 2 - x ** 3, (t, t, t))


@pytest.mark.parametrize("call", [
    lambda: TruncSeries(2, (1, 2, 3)),
    lambda: TruncSeries(0),
    lambda: TruncSeries(Fraction(3, 2)),
    lambda: TruncSeries.param(4).truncate(5),
    lambda: TruncSeries(1, (1,)).derivative(),
    lambda: TruncSeries.param(4).inverse(),
    lambda: BranchParam.from_polys((), 5),
    lambda: BranchParam((1, 2)),
    lambda: BranchParam.from_polys((1, 2), 5),
    lambda: BranchParam.from_polys((Poly.var(1, 0),), 0),
    lambda: TruncSeries(True, (1,)),
    lambda: BranchParam.from_polys((Poly.var(1, 0),), True),
], ids=["too-many-coeffs", "order-0", "order-fraction", "truncate-up",
        "derivative-order-1", "inverse-no-constant", "branch-empty",
        "branch-no-series", "branch-no-polys", "branch-order-0",
        "order-bool", "branch-order-bool"])
def test_malformed_series_raise_invalid_input(call):
    # these were asserts: under python -O TruncSeries(2, (1, 2, 3)) built an
    # order-2 series of three coefficients and an empty branch raised
    # ValueError
    with pytest.raises(InvalidInput):
        call()


@pytest.mark.parametrize("form, comps", [
    (DiffForm(2, 1, {(1,): Poly.var(2, 0)}), (TruncSeries.param(6),)),
    (DiffForm(2, 1), (TruncSeries.param(6),) * 3),
    (DiffForm(2, 2, {(0, 1): Poly.var(2, 0)}), (TruncSeries.param(6),) * 2),
    (DiffForm(2, 0, {(): Poly.var(2, 0)}), (TruncSeries.param(6),) * 2),
], ids=["short", "zero-form-long", "two-form", "function"])
def test_pullback_checks_components_and_degree(form, comps):
    with pytest.raises(InvalidInput):
        pullback_one_form(form, comps)


def _poly(n, max_exp):
    term = st.tuples(st.tuples(*[st.integers(0, max_exp)] * n),
                     st.fractions(min_value=-5, max_value=5,
                                  max_denominator=4))
    return st.lists(term, max_size=5).map(lambda ts: Poly(n, dict(ts)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    _poly(n, 3), st.lists(_poly(1, 4), min_size=n, max_size=n),
    st.lists(st.integers(1, 12), min_size=n, max_size=n))))
def test_branch_pullback_is_the_substituted_polynomial(case):
    # components of equal or of different orders: the least order wins
    p, cs, orders = case
    comps = [TruncSeries.from_poly(c, k) for c, k in zip(cs, orders)]
    least = min(orders)
    on_branch = poly_on_branch(p, comps)
    assert on_branch.order == least
    assert on_branch == TruncSeries.from_poly(p.subst(cs), least)


def _series(max_order=8):
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.integers(1, max_order).flatmap(lambda n: st.lists(
        coeff, max_size=n).map(lambda cs: TruncSeries(n, cs)))


def _well_formed(s):
    return (type(s.coeffs) is tuple and len(s.coeffs) == s.order
            and all(type(c) is Fraction for c in s.coeffs))


@settings(max_examples=100, deadline=None)
@given(_series(), _series(), st.fractions(min_value=-5, max_value=5,
                                          max_denominator=4),
       st.integers(-3, 3), st.integers(0, 8))
def test_arithmetic_equals_the_public_constructor(a, b, c, k, m):
    # the module builds its results without re-checking their coefficients;
    # each must equal the series the public constructor builds from the
    # same formula
    def public(coeffs, order):
        return TruncSeries(order, list(coeffs))
    n = min(a.order, b.order)
    cases = [
        (a + b, public([p + q for p, q in zip(a.coeffs, b.coeffs)], n)),
        (a - b, public([p - q for p, q in zip(a.coeffs, b.coeffs)], n)),
        (-a, public([-p for p in a.coeffs], a.order)),
        (a * b, public([sum(a.coeffs[i] * b.coeffs[j - i]
                            for i in range(j + 1)) for j in range(n)], n)),
        (a * c, public([p * c for p in a.coeffs], a.order)),
        (k * a, public([k * p for p in a.coeffs], a.order)),
        (a + k, public([a.coeffs[0] + k] + list(a.coeffs[1:]), a.order)),
        (a - c, public([a.coeffs[0] - c] + list(a.coeffs[1:]), a.order)),
    ]
    cut = min(m, a.order - 1) + 1
    cases.append((a.truncate(cut), public(a.coeffs[:cut], cut)))
    if a.order >= 2:
        cases.append((a.derivative(), public(
            [j * a.coeffs[j] for j in range(1, a.order)], a.order - 1)))
    shift = min(m, 3)
    if a.order > shift:
        up = TruncSeries(a.order,
                         [0] * shift + list(a.coeffs[:a.order - shift]))
        cases.append((up.shift_down(shift),
                      public(a.coeffs[:a.order - shift], a.order - shift)))
    if a.coeffs[0]:
        inv = a.inverse()
        cases.append((inv, public(inv.coeffs, a.order)))
        cases.append((a * inv, public([1], a.order)))
    for got, want in cases:
        assert got == want
        assert _well_formed(got)


def test_stalled_newton_iteration_raises_route_conflict(monkeypatch):
    # a Newton step that never moves: the self-check raises, it does not
    # assert, so python -O keeps it
    monkeypatch.setattr(TruncSeries, "inverse",
                        lambda self: TruncSeries(self.order))
    x, y = Poly.variables(2)
    with pytest.raises(RouteConflict, match="stalled"):
        newton_lift(y - x ** 2, 8)


_STALLED_NEWTON = """
import sys
from folindex.errors import RouteConflict
from folindex.polyring import Poly
from folindex.series import TruncSeries, newton_lift
TruncSeries.inverse = lambda self: TruncSeries(self.order)
x, y = Poly.variables(2)
try:
    newton_lift(y - x ** 2, 8)
except RouteConflict:
    sys.exit(0)
sys.exit(1)
"""


def test_stalled_newton_iteration_raises_under_optimization():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-O", "-c", _STALLED_NEWTON],
                          env=env)
    assert done.returncode == 0
