"""Truncated power series in one parameter, used for pullbacks along
parametrized curve branches, and moved, which presents the data of a
command at the origin.

A TruncSeries of order N stores the first N coefficients and stands for the
class of a series mod t^N.  Everything is exact rational arithmetic; when an
operation needs more coefficients than are available it raises the internal
InsufficientOrder signal, which callers turn into a retry at a higher order
or into TruncationNotStabilized at their cap.

Plane data is put on a branch by one sparse integer kernel,
_IntegerBranch, which poly_on_branch, pullback_one_form and the branch
residues of indices share, cut below the working order or, for the exact
check that a branch lies on a curve, uncut; tests check it against
Poly.subst and series arithmetic.  Bad input raises InvalidInput, and the
arithmetic operators return NotImplemented for an operand that is neither
a series nor a rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InvalidInput, RouteConflict, TruncationNotStabilized
from .polyring import (
    DiffForm,
    Poly,
    VectorField,
    _as_tuple,
    _check_point,
    _over_common_denominator,
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


def _rational(c):
    # a bool is an int to Python, but no coefficient
    return type(c) is int or isinstance(c, Fraction)


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
        _check_order(order)
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
        if other is NotImplemented:
            return NotImplemented
        return TruncSeries._make(tuple(
            a + b if b else a for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._make(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            if not _rational(other):
                return NotImplemented
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
        """other as a series of this order, or NotImplemented when it is
        neither a series nor a rational."""
        if isinstance(other, TruncSeries):
            return other
        if not _rational(other):
            return NotImplemented
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
        if not (type(k) is int and 0 <= k < self.order):
            raise InvalidInput("a shift is an integer from 0 below the "
                               "order %d, got %r" % (self.order, k))
        if any(self.coeffs[:k]):
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


def _times(a, b, cut):
    """The product of two sparse {k: int} polynomials in t, cut below
    t^cut."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = i + j
            if k < cut:
                out[k] = out.get(k, 0) + x * y
    return out


def _series(acc, d, order):
    """The series of order whose coefficient of t^k is acc[k] / d."""
    zero = Fraction(0)
    return TruncSeries._make(tuple(Fraction(acc[k], d) if acc.get(k) else zero
                                   for k in range(order)))


class _IntegerBranch:
    """A branch as the integer kernel reads it: component i is
    nums[i] / den, one common denominator den and nums[i] a sparse
    {k: int} of the component's terms below t^cut, or of all of them when
    cut is None.  A polynomial p on the branch is then

        sum_e c_e N^e / D^|e|  ==  sum_e C_e N^e D^(deg p - |e|) / (d D^deg p)

    for p's coefficients c_e == C_e / d over their own common denominator,
    so the kernel adds integer products of sparse powers of the N_i, cut
    below t^cut (or uncut, and so exact), and builds one Fraction per
    coefficient of the result."""

    __slots__ = ("den", "nums", "cut")

    def __init__(self, parts, cut=None):
        """parts: one {k: Fraction} per component."""
        if cut is not None:
            parts = [{k: c for k, c in part.items() if k < cut}
                     for part in parts]
        parts = tuple(parts)
        den = lcm(*(c.denominator for part in parts for c in part.values()))
        self.den, self.cut = den, cut
        self.nums = tuple({k: c.numerator * (den // c.denominator)
                           for k, c in part.items()} for part in parts)

    @classmethod
    def of_polys(cls, polys, cut=None):
        """The branch of polynomials in t, cut below t^cut or whole."""
        return cls(({k: c for (k,), c in p.terms.items()} for p in polys),
                   cut)

    @classmethod
    def of_series(cls, comps):
        """The branch of a tuple of series, cut at their least order."""
        comps = _as_tuple(comps, "a tuple of series")
        if not comps or not all(isinstance(s, TruncSeries) for s in comps):
            raise InvalidInput("a branch is a nonempty tuple of series, got "
                               "%r" % (comps,))
        order = min(s.order for s in comps)
        return cls(({k: c for k, c in enumerate(s.coeffs[:order]) if c}
                    for s in comps), order)

    def _check(self, nvars):
        if nvars != len(self.nums):
            raise InvalidInput("%d values for %d variables"
                               % (len(self.nums), nvars))

    def _compose(self, terms, top, cut):
        """sum C_e N^e D^(top - |e|) over the integer terms (e, C_e) of a
        polynomial of degree at most top, cut below t^cut."""
        scale = [1]
        for _ in range(top):
            scale.append(scale[-1] * self.den)
        powers = [[{0: 1}] for _ in self.nums]   # powers[i][k] == N_i^k
        acc = {}
        for e, c in terms:
            piece = None
            for i, k in enumerate(e):
                if k:
                    row = powers[i]
                    while len(row) <= k:
                        row.append(_times(row[-1], self.nums[i], cut))
                    piece = row[k] if piece is None else _times(
                        piece, row[k], cut)
            c *= scale[top - sum(e)]
            for k, a in ({0: 1} if piece is None else piece).items():
                acc[k] = acc.get(k, 0) + c * a
        return acc

    def value(self, p):
        """(acc, d) with p on the branch equal to acc[k] / d at t^k, below
        t^cut or, for a branch without a cut, exactly."""
        if not isinstance(p, Poly):
            raise InvalidInput("a branch carries polynomials, got %r" % (p,))
        self._check(p.nvars)
        d, terms = _over_common_denominator(p.terms)
        top = max(p.degree(), 0)
        cut = self.cut
        if cut is None:
            cut = top * max((k for num in self.nums for k in num),
                            default=0) + 1
        return self._compose(terms, top, cut), d * self.den ** top

    def vanishes(self, p):
        """Whether p is zero on the branch, below t^cut or exactly."""
        return not any(self.value(p)[0].values())

    def series(self, p):
        """p on a cut branch, as a series of order cut."""
        return _series(*self.value(p), self.cut)

    def pullback(self, form):
        """sum a_i(gamma) gamma_i' for a 1-form sum a_i dx_i on a cut
        branch, as a series of order cut - 1: the a_i share one common
        denominator d and one degree bound top, so every product is over
        d D^(top + 1)."""
        if not isinstance(form, DiffForm):
            raise InvalidInput("a branch pulls back 1-forms, got %r"
                               % (form,))
        if form.degree != 1:
            raise InvalidInput("a branch pulls back 1-forms, not %d-forms"
                               % form.degree)
        self._check(form.nvars)
        cut = self.cut - 1
        if cut < 1:
            raise InvalidInput("an order-1 series has no known derivative")
        coeffs = form.coeffs.items()
        d = lcm(*(c.denominator for _, a in coeffs for c in a.terms.values()))
        top = max((a.degree() for _, a in coeffs), default=0)
        acc = {}
        for (i,), a in coeffs:
            terms = [(e, c.numerator * (d // c.denominator))
                     for e, c in a.terms.items()]
            slope = {k - 1: k * c for k, c in self.nums[i].items() if k}
            for k, x in _times(self._compose(terms, top, cut), slope,
                               cut).items():
                acc[k] = acc.get(k, 0) + x
        return _series(acc, d * self.den ** (top + 1), cut)


def poly_on_branch(p, comps):
    """Evaluate the polynomial p at a tuple of series, one per variable; the
    result has the least order of the series."""
    return _IntegerBranch.of_series(comps).series(p)


def pullback_one_form(form, comps):
    """Pull a polynomial 1-form back along t -> (comps); returns a series of
    order one less than the branch (differentiation loses a coefficient)."""
    return _IntegerBranch.of_series(comps).pullback(form)


def laurent_residue(num, den):
    """Residue at t = 0 of (num / den) dt for truncated series num, den.

    With v the valuation of den, the residue is coefficient v - 1 of
    num / (den / t^v), so it reads the first v coefficients of num and of
    the unit den / t^v, and forms no other coefficient of the product or
    the inverse.  Raises InsufficientOrder when the truncation cannot
    decide: the denominator is zero to working order, or the needed
    coefficient lies beyond it.
    """
    if not (isinstance(num, TruncSeries) and isinstance(den, TruncSeries)):
        raise InvalidInput("a residue needs two series, got %r and %r"
                           % (num, den))
    v = den.valuation()
    if v is None:
        raise InsufficientOrder("denominator vanishes to working order")
    if v == 0:
        # regular at t = 0 if only the residue is wanted
        return Fraction(0)
    if v > min(num.order, den.order - v):
        raise InsufficientOrder("residue coefficient beyond working order")
    inv = TruncSeries._make(den.coeffs[v:2 * v]).inverse().coeffs
    return sum((a * inv[v - 1 - j] for j, a in enumerate(num.coeffs[:v])
                if a), Fraction(0))


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
    if not (isinstance(f, Poly) and f.nvars == 2
            and f.constant_term() == 0):
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
