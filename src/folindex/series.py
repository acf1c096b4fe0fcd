"""Truncated power series in one parameter, used for pullbacks along
parametrized curve branches.

A TruncSeries of order N stores the first N coefficients and stands for the
class of a series mod t^N.  Everything is exact rational arithmetic; when an
operation needs more coefficients than are available it raises the internal
InsufficientOrder signal, which callers turn into a retry at a higher order
or into TruncationNotStabilized at their cap.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInput, RouteConflict, TruncationNotStabilized
from .polyring import Poly, _rat


class InsufficientOrder(Exception):
    """Internal: the working truncation order cannot answer the question."""


class TruncSeries:
    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=()):
        if not (isinstance(order, int) and order >= 1):
            raise InvalidInput("a series order is a positive integer, got %r"
                               % (order,))
        coeffs = [_rat(c) for c in coeffs]
        if len(coeffs) > order:
            raise InvalidInput("%d coefficients do not fit order %d"
                               % (len(coeffs), order))
        coeffs.extend([Fraction(0)] * (order - len(coeffs)))
        self.order = order
        self.coeffs = tuple(coeffs)

    @classmethod
    def _make(cls, coeffs):
        """Internal constructor: coeffs is a tuple of Fractions, as many as
        the order, and is taken as it is."""
        s = object.__new__(cls)
        s.order = len(coeffs)
        s.coeffs = coeffs
        return s

    @classmethod
    def const(cls, c, order):
        return cls(order, (c,))

    @classmethod
    def param(cls, order):
        """The series t."""
        return cls(order, (0, 1))

    @classmethod
    def from_poly(cls, p, order):
        if p.nvars != 1:
            raise InvalidInput("a series comes from a polynomial in t alone")
        return cls(order, (p.terms.get((k,), 0) for k in range(order)))

    def truncate(self, order):
        if order > self.order:
            raise InvalidInput("a series of order %d cannot be truncated to "
                               "order %d" % (self.order, order))
        return TruncSeries._make(self.coeffs[:order])

    def is_zero(self):
        return not any(self.coeffs)

    def valuation(self):
        """Index of the first nonzero coefficient; None if zero to order."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    def __add__(self, other):
        other = self._coerce(other)
        return TruncSeries._make(tuple(
            a + b if b else a for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._make(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncSeries._make(tuple(a * other if a else a
                                           for a in self.coeffs))
        n = min(self.order, other.order)
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs[:n]):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[: n - i]):
                if b:
                    out[i + j] += a * b
        return TruncSeries._make(tuple(out))

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            return other
        return TruncSeries._make(
            (_rat(other),) + (Fraction(0),) * (self.order - 1))

    def derivative(self):
        if self.order < 2:
            raise InvalidInput("an order-1 series has no known derivative")
        return TruncSeries._make(tuple(k * self.coeffs[k]
                                       for k in range(1, self.order)))

    def inverse(self):
        a = self.coeffs
        if a[0] == 0:
            raise InvalidInput("a series with zero constant term has no "
                               "inverse")
        b = [Fraction(1) / a[0]]
        for k in range(1, self.order):
            s = sum(a[j] * b[k - j] for j in range(1, k + 1) if a[j])
            b.append(-s / a[0])
        return TruncSeries._make(tuple(b))

    def shift_down(self, k):
        """Divide by t^k; the first k coefficients must vanish."""
        if not 0 <= k < self.order or any(self.coeffs[:k]):
            raise InvalidInput("t^%d does not divide the series" % k)
        return TruncSeries._make(self.coeffs[k:])

    def __eq__(self, other):
        return (isinstance(other, TruncSeries)
                and self.order == other.order and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c:
                parts.append("%s*t^%d" % (c, k) if k else str(c))
        body = " + ".join(parts) if parts else "0"
        return "TruncSeries(%s + O(t^%d))" % (body, self.order)


def poly_on_branch(p, comps):
    """Evaluate the polynomial p at a tuple of series, one per variable; the
    result has the least order of the series."""
    return p.subst(comps)


def pullback_one_form(form, comps):
    """Pull a polynomial 1-form back along t -> (comps); returns a series of
    order one less than the branch (differentiation loses a coefficient)."""
    if form.degree != 1:
        raise InvalidInput("a branch pulls back 1-forms, not %d-forms"
                           % form.degree)
    comps = tuple(comps)
    # the zero of the branch: checks the count and has the least order
    total = poly_on_branch(Poly.zero(form.nvars), comps)
    total = total.truncate(total.order - 1)
    for (i,), a in form.coeffs.items():
        total = total + poly_on_branch(a, comps) * comps[i].derivative()
    return total


def laurent_residue(num, den):
    """Residue at t = 0 of (num / den) dt for truncated series num, den.

    Raises InsufficientOrder when the truncation cannot decide: the
    denominator is zero to working order, or the needed coefficient lies
    beyond it.
    """
    v = den.valuation()
    if v is None:
        raise InsufficientOrder("denominator vanishes to working order")
    if v == 0:
        # regular at t = 0 if only the residue is wanted
        return Fraction(0)
    unit = den.shift_down(v)
    n = min(num.order, unit.order)
    if v - 1 >= n:
        raise InsufficientOrder("residue coefficient beyond working order")
    prod = num.truncate(n) * unit.truncate(n).inverse()
    return prod.coeffs[v - 1]


class BranchParam:
    """A parametrized curve branch t -> (x_1(t), ..., x_n(t)).

    A branch with a lift callback, as every branch built from exact
    polynomial components has, can be re-expanded to any order; hand-entered
    series branches are capped at the order they were given.
    """

    __slots__ = ("order", "comps", "_lift")

    def __init__(self, comps, lift=None):
        comps = tuple(comps)
        if not comps or not all(isinstance(s, TruncSeries) for s in comps):
            raise InvalidInput("a branch needs at least one series component, "
                               "got %r" % (comps,))
        order = min(s.order for s in comps)
        self.order = order
        self.comps = tuple(s.truncate(order) for s in comps)
        self._lift = lift

    @classmethod
    def from_polys(cls, polys, order):
        polys = tuple(polys)
        return cls((TruncSeries.from_poly(p, order) for p in polys),
                   lift=lambda n: cls.from_polys(polys, n))

    @property
    def extendable(self):
        return self._lift is not None

    def max_order(self):
        """The largest usable working order; None when unbounded."""
        return None if self.extendable else self.order

    def at_order(self, order):
        if order <= self.order:
            return BranchParam((s.truncate(order) for s in self.comps),
                               lift=self._lift)
        if self._lift is None:
            raise TruncationNotStabilized(
                "branch is only known to order %d" % self.order)
        return self._lift(order)

    def __repr__(self):
        return "BranchParam(order=%d, nvars=%d)" % (self.order,
                                                     len(self.comps))


def newton_lift(f, order):
    """Parametrize the smooth curve f == 0 through the origin.

    Needs f(0,0) == 0 and at least one first partial nonzero at the origin.
    Solves the implicit equation by Newton iteration in the series ring; the
    returned branch re-lifts itself on demand at higher orders.
    """
    if f.nvars != 2 or f.constant_term() != 0:
        raise InvalidInput("newton_lift needs a plane curve through the origin")
    fx0 = f.diff(0)(0, 0)
    fy0 = f.diff(1)(0, 0)
    if fx0 == 0 and fy0 == 0:
        raise InvalidInput("origin is a singular point of the curve")
    swap = fy0 == 0
    # with swap, solve for x in terms of y
    g = f.subst(Poly.variables(2)[::-1]) if swap else f
    gy = g.diff(1)

    t = TruncSeries.param(order)
    phi = TruncSeries(order)
    steps = max(1, order.bit_length() + 1)
    for _ in range(steps):
        val = poly_on_branch(g, (t, phi))
        dval = poly_on_branch(gy, (t, phi))
        phi = phi - val * dval.inverse()
    if not poly_on_branch(g, (t, phi)).is_zero():
        raise RouteConflict("Newton iteration stalled")
    comps = (phi, t) if swap else (t, phi)
    return BranchParam(comps, lift=lambda n: newton_lift(f, n))
