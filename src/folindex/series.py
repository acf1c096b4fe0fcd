"""Truncated power series in one parameter, used for pullbacks along
parametrized curve branches, and moved, which presents the data of a
command at the origin.

A TruncSeries of order N stores the first N coefficients and stands for the
class of a series mod t^N.  Everything is exact rational arithmetic; when an
operation needs more coefficients than are available it raises the internal
InsufficientOrder signal, which callers turn into a retry at a higher order
or into TruncationNotStabilized at their cap.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInput, RouteConflict, TruncationNotStabilized
from .polyring import (
    DiffForm,
    Poly,
    VectorField,
    _check_point,
    _rat,
    translate_field,
    translate_to_origin,
)


class InsufficientOrder(Exception):
    """Internal: the working truncation order cannot answer the question."""


def _check_order(order):
    if not (type(order) is int and order >= 1):
        raise InvalidInput("a series order is a positive integer, got %r"
                           % (order,))


class TruncSeries:
    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=()):
        _check_order(order)
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

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

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

    Every branch holds its components as polynomials in t, polys, and its
    order.  An exact branch, from from_polys, holds the components and is
    read at any order; a series branch holds them below its order, and
    re-lifts past it through its lift callback or is capped there.  comps
    expands polys into series at the branch's order."""

    __slots__ = ("order", "polys", "exact", "_lift")

    def __init__(self, comps, lift=None):
        comps = tuple(comps)
        if not comps or not all(isinstance(s, TruncSeries) for s in comps):
            raise InvalidInput("a branch needs at least one series component, "
                               "got %r" % (comps,))
        order = min(s.order for s in comps)
        self.order, self.exact, self._lift = order, False, lift
        self.polys = tuple(Poly(1, {(k,): c for k, c in
                                    enumerate(s.coeffs[:order])})
                           for s in comps)

    @classmethod
    def _make(cls, polys, order, exact, lift=None):
        branch = object.__new__(cls)
        branch.order, branch.polys, branch.exact, branch._lift = (
            order, polys, exact, lift)
        return branch

    @classmethod
    def from_polys(cls, polys, order):
        polys = tuple(polys)
        if not polys or not all(isinstance(p, Poly) and p.nvars == 1
                                for p in polys):
            raise InvalidInput("a branch needs at least one polynomial in t "
                               "alone, got %r" % (polys,))
        _check_order(order)
        return cls._make(polys, order, True)

    @property
    def comps(self):
        """The components as series to the branch's order."""
        return tuple(TruncSeries.from_poly(p, self.order) for p in self.polys)

    def moved(self, at):
        """The branch minus the point at, so that it passes through the
        origin when it passed through at; an extendable series branch
        re-lifts and then subtracts the point again."""
        at = _check_point(at, len(self.polys))
        lift = None if self._lift is None else (
            lambda order: self.at_order(order).moved(at))
        return BranchParam._make(tuple(p - q for p, q in zip(self.polys, at)),
                                 self.order, self.exact, lift)

    @property
    def extendable(self):
        return self.exact or self._lift is not None

    def at_order(self, order):
        """The branch at order: an exact one as it is, a series one cut below
        order or re-lifted past its own; TruncationNotStabilized past the
        order of a capped one."""
        _check_order(order)
        if self.exact:
            return BranchParam._make(self.polys, order, True)
        if order <= self.order:
            return BranchParam((s.truncate(order) for s in self.comps),
                               self._lift)
        if self._lift is None:
            raise TruncationNotStabilized(
                "branch is only known to order %d" % self.order)
        return self._lift(order)

    def __repr__(self):
        return "BranchParam(order=%d, nvars=%d)" % (
            self.order, len(self.polys))


def moved(data, at):
    """The germ of command data at the point at, presented at the origin.

    A polynomial, a field and each coefficient of a form are translated by
    at, a branch is moved by it, and a tuple or list is moved item by item
    into a tuple.  Data without coordinates, such as a PhiSpec or divisor
    indices, comes back unchanged.  InvalidInput when at is not a point of
    the data's space."""
    if isinstance(data, (tuple, list)):
        return tuple(moved(item, at) for item in data)
    if isinstance(data, Poly):
        return translate_to_origin(data, at)
    if isinstance(data, VectorField):
        return translate_field(data, at)
    if isinstance(data, DiffForm):
        at = _check_point(at, data.nvars)
        return DiffForm(data.nvars, data.degree, {
            idx: translate_to_origin(p, at) for idx, p in data.coeffs.items()})
    if isinstance(data, BranchParam):
        return data.moved(at)
    return data


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
