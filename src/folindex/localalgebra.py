"""Standard bases in local and global monomial orders, with exact
unit-and-cofactor tracking.

The local order is antigraded reverse lexicographic: lower total degree wins,
ties broken by reverse lex.  Leading monomials then generate the tangent-cone
ideal of leading terms, and weak normal forms follow Mora's algorithm: when
every eligible reducer has larger ecart than the partial remainder, the
partial remainder itself is pushed onto the reducer stack.  Reductions
against such stacked intermediates multiply the input by a polynomial with
constant term 1, which is a unit of the local ring, so every normal-form run
returns an exact identity

    u * p  ==  sum_k c_k * b_k  +  r,      u(0) == 1.

The global order is plain degree reverse lexicographic and the same driver
degenerates to the ordinary division algorithm with u == 1: a leading
monomial has top degree there, so every ecart is 0 and nothing is stacked.

Fraction-free arithmetic.  Every reduction runs over the integers
(Bareiss 1968 does the same for Gaussian elimination).  Each generator g_j
is w_j * G_j for a primitive integer polynomial G_j and a rational weight
w_j, and each basis element is held as an integer polynomial B_k with a
positive leading coefficient (an element is negated with its row as it
enters), an integer row R_k and a positive integer scale sigma_k such that

    sigma_k * B_k  ==  sum_j R_kj * G_j          (modulo m^T when cut).

A normal form keeps U * P == sum_k C_k * B_k + H with plain integer
polynomials U, C_k and H and U(0) != 0: a step multiplies them by the
reducer's leading coefficient over the gcd of the two leading
coefficients, so a step against B_k rescales U and the C_k only when
lc(B_k) does not divide the coefficient it cancels, and the common
content, read against a running gcd of U and the C_k, is divided out as
it goes (see _reduce).  Every integer state is a nonzero multiple of the
rational state the same steps would reach with monic elements, so the
pair order, the reducer chosen by ecart, the stacking, the corner cuts and
the steps spent are those of the rational algorithm.  The StandardBasis
keeps this integer form: each B_k in its leading record, its row R_k and
scale sigma_k, and the split (G_j, w_j) of each generator.  normal_form,
membership_with_cofactors and monomial_power_bound reduce against the
B_k, and a membership witness takes its rows and scales from the basis.
Fractions are built on first read only: the monic elements b_k == B_k /
lc(B_k), the expansions R_kj / (w_j * sigma_k * lc(B_k)), and the results
a caller is returned, where a unit u == U / U(0) has u(0) == 1.
quotient_dim reads the staircase and builds no Fraction.

Each basis element is held once, as its leading record (_lead): its
leading key, plain packed exponents, leading coefficient, ecart, the
polynomial and its index, built when it enters the basis and rebuilt only
when a corner cut clips it.  The pair loop and every normal form read the
records, and a normal form stacks each intermediate as a record too.  A
pair is skipped without reduction by the Gebauer-Moller chain criterion in
both orders (some other leading monomial divides the pair's lcm and both of
its pairs with the two are done), and by the product criterion (coprime
leading monomials) in the global order only, where it holds.

Packed monomials.  Every integer polynomial here (B_k, rows, the G_j, h,
U and the C_k) is a dict keyed by one int per monomial, in the manner of
Bachmann-Schoenemann (ISSAC 1998) and Monagan-Pearce (CASC 2007).  On n
variables, with s == -1 in the local order and s == 1 in degrevlex, the
key of x^e is

    K(e) == s * |e| * 2^(32n) - sum_i e_i * 2^(32i),

for the total degree |e|: each exponent has a 32-bit field, and the
degree sits above them all.  While every total degree is below
DEGREE_CAP == 2^31, so is every exponent, and then:

- order: integer order on K is the monomial order (the degree field
  decides first, and then the smaller exponent of the last variable
  wins), so a leading monomial is max(h) and a pair's heap key is an int;
- products: K is additive, K(e + f) == K(e) + K(f), and the shift of a
  step is the difference of two keys;
- degree: divmod(-K, 2^(32n)) == (-s * |e|, P) for the plain packed
  exponents P == sum_i e_i * 2^(32i);
- divisibility: with G the word of the top bits of the fields, x^e
  divides x^f exactly when ((P_f | G) - P_e) & G == G, since then no
  field borrows from the next and each top bit stays set exactly when
  f_i >= e_i;
- cut: in the local order |e| < T exactly when K(e) > -T * 2^(32n).  A
  degrevlex basis is never cut.

Exponents are packed once, when a Poly enters (_integral), and unpacked
when one leaves (_rational), and for pair lcms and the staircase: the
public face is tuples (StandardBasis.leading_exps, staircase, elements and
expansions).

Overflow.  No monomial of total degree DEGREE_CAP or more is ever formed;
ResourceCap is raised first.  Every packed polynomial is an input, a
product of a polynomial by a monomial, or a sum of products of two, and
each is checked before it is made: an input by its degree (_integral);
the S-polynomial of a pair when the pair is formed, since x^(lcm - e_k)
* B_k has top degree |lcm| + ecart(B_k) and a cut only lowers ecarts; a
reduction step by |eh| + ecart of its reducer, the top degree of x^(eh -
eg) * g (_reduce), whose U and C stay below |eh|; a new row, and its
products with the G_j in the final check, from reaches[k], a bound per
element on the degree of rows[k][j] * G_j, and the tops of U and C;
and a membership witness from the same bounds.  So every total degree
formed is below DEGREE_CAP, and every rule above holds.

Highest corner.  In the local order a basis may be computed modulo a power
of the maximal ideal m, once a power of m is known to lie in the ideal (the
``noether`` of Singular; Greuel-Pfister, *A Singular Introduction to
Commutative Algebra*, section 1.7).  Let G be a set of elements of I whose
leading monomials leave finitely many standard monomials, and let c be one
more than the top degree of a standard monomial (the corner degree; c == 0
when the staircase is empty).  Then m^c lies in I in the local ring:

    every monomial x^a of degree c is divisible by the leading monomial of
    some g in G, and x^a == x^b * g / lc(g) - (x^b * tail(g)) / lc(g) with
    every tail term of x^b * g either of degree above c or of degree c and
    smaller than x^a in the order.  So modulo I + m^(c+1) each degree-c
    monomial is a combination of smaller degree-c monomials, and by
    induction over the finitely many of them each one lies in I + m^(c+1).
    Hence m^c is contained in I + m * m^c, and Nakayama's lemma gives
    m^c contained in I.

From then on every computation may drop the terms of degree T >= c: such
terms lie in I, an element computed modulo m^T is still an element of I,
and the set G together with the monomials of degree T is a standard basis
of I + m^T == I whose leading ideal is that of G (it already contains m^c).
A later element can only shrink the staircase, so c, and with it T, only
decreases, and an element computed modulo an earlier certified m^T lies in
I by the same argument.  Every identity of the basis then holds modulo the
final m^T, and the checks below are made modulo it.

The truncation policy is chosen in one place, ``standard_basis``, and the
StandardBasis it returns is the one handle on the ideal: normal_form,
membership_with_cofactors and monomial_power_bound reduce against the basis
they are given and work modulo its m^T.  quotient_dim and order_along_curve
take generators and read the basis at the highest corner.

Every loop spends from a step budget and raises ResourceCap when it runs
out; nothing here terminates silently with a wrong answer.  Inside a
``with step_budget(limit):`` block, every standard basis, normal form and
membership test spends from the block's one budget, so the limit caps the
whole block.  Outside any block each of those calls gets its own budget of
DEFAULT_MAX_STEPS.  A staircase spends no step, but lists no more monomials
than its basis had steps left when it started.
"""

from __future__ import annotations

import contextlib
import contextvars
import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import le, mul

from .errors import (
    InvalidInput,
    NotMember,
    NotZeroDimensional,
    ResourceCap,
    RouteConflict,
)
from .polyring import Poly

__all__ = [
    "LOCAL",
    "GLOBAL",
    "INFINITE",
    "DEFAULT_MAX_STEPS",
    "MonomialOrder",
    "StandardBasis",
    "Cofactors",
    "StepBudget",
    "step_budget",
    "standard_basis",
    "at_corner",
    "normal_form",
    "membership_with_cofactors",
    "quotient_dim",
    "monomial_power_bound",
    "exact_divide",
    "order_along_curve",
]

LOCAL = "local-antigraded-revlex"
GLOBAL = "global-degrevlex"

DEFAULT_MAX_STEPS = 200_000


class _Infinite:
    """Sentinel for an infinite vector-space dimension.  Compare by identity."""

    __slots__ = ()

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


class StepBudget:
    __slots__ = ("remaining",)

    def __init__(self, limit):
        if not (type(limit) is int and limit > 0):
            raise InvalidInput("step budget must be a positive integer, got %r"
                               % (limit,))
        self.remaining = limit

    def spend(self, n=1):
        self.remaining -= n
        if self.remaining < 0:
            raise ResourceCap("step budget exhausted; raise the step limit "
                              "to continue")


_BUDGET = contextvars.ContextVar("step_budget", default=None)


@contextlib.contextmanager
def step_budget(limit=DEFAULT_MAX_STEPS):
    """Scope one StepBudget of limit steps over the block; every standard
    basis, normal form and membership test inside spends from it.  An inner
    block replaces the outer budget until it exits."""
    budget = StepBudget(limit)
    token = _BUDGET.set(budget)
    try:
        yield budget
    finally:
        _BUDGET.reset(token)


def _budget():
    """The enclosing block's budget, or a fresh default one outside any."""
    budget = _BUDGET.get()
    return StepBudget(DEFAULT_MAX_STEPS) if budget is None else budget


# The width of one exponent field of a packed key, and the bound every total
# degree stays below, so that each field keeps its top bit clear (module
# docstring).
_BITS = 32
_FIELD = (1 << _BITS) - 1
DEGREE_CAP = 1 << (_BITS - 1)


def _capped(degree):
    """Raise ResourceCap when a monomial of this total degree could be
    formed: packed keys hold total degrees below DEGREE_CAP only."""
    if degree >= DEGREE_CAP:
        raise ResourceCap("a monomial of total degree %d would be formed; "
                          "total degrees are held below 2^%d"
                          % (degree, _BITS - 1))


@lru_cache(maxsize=64)
def _packing(sign, nvars):
    """(shift, mask, guard, fields, weights) of the packed keys of an order
    of this sign on nvars variables (module docstring): the guard word has
    the top bit of every field, fields holds the bit offset of each field,
    and K(e) == sum(map(mul, e, weights))."""
    shift = _BITS * nvars
    mask = (1 << shift) - 1
    fields = tuple(range(0, shift, _BITS))
    weights = tuple([(sign << shift) - (1 << f) for f in fields])
    return shift, mask, mask // _FIELD << (_BITS - 1), fields, weights


class MonomialOrder:
    """A monomial order on a fixed number of variables; in the reverse lex
    tie-break earlier variables are larger.

    key(exp) is the packed key of an exponent (module docstring): integer
    order on keys is the monomial order, so the maximum over a polynomial's
    terms is its leading monomial."""

    __slots__ = ("kind", "nvars", "sign", "shift", "mask", "guard",
                 "weights", "fields")

    def __init__(self, kind, nvars):
        if kind not in (LOCAL, GLOBAL):
            raise InvalidInput("unknown order kind %r" % (kind,))
        if type(nvars) is not int or nvars < 1:
            raise InvalidInput("an order needs an int number of variables "
                               ">= 1, got %r" % (nvars,))
        self.kind = kind
        self.nvars = nvars
        self.sign = -1 if kind == LOCAL else 1
        (self.shift, self.mask, self.guard, self.fields,
         self.weights) = _packing(self.sign, nvars)

    @classmethod
    def local(cls, nvars):
        return cls(LOCAL, nvars)

    @classmethod
    def degrevlex(cls, nvars):
        return cls(GLOBAL, nvars)

    def is_local(self):
        return self.kind == LOCAL

    def key(self, exp):
        """The packed key of an exponent tuple."""
        return sum(map(mul, exp, self.weights))

    def exponent(self, key):
        """The exponent tuple of a packed key: the fields of the plain packed
        exponents, the low bits of -key."""
        return tuple([-key >> f & _FIELD for f in self.fields])

    def degree(self, key):
        """The total degree of a packed key."""
        return -self.sign * (-key >> self.shift)

    def top(self, P):
        """The top total degree of a packed polynomial; 0 for zero.  It is
        that of the least key in the local order and of the largest in
        degrevlex."""
        if not P:
            return 0
        if self.sign < 0:
            return -min(P) >> self.shift
        return -(-max(P) >> self.shift)

    def cut(self, below):
        """The cut to total degree below ``below`` >= 1 in the local order:
        one negative int, and the keys of degree below ``below`` are the ones
        above it.  None for ``below`` None and in degrevlex, which never
        truncates."""
        if below is None or self.sign > 0:
            return None
        return -below << self.shift

    def __eq__(self, other):
        return (isinstance(other, MonomialOrder)
                and (self.kind, self.nvars) == (other.kind, other.nvars))

    def __hash__(self):
        return hash((self.kind, self.nvars))

    def __repr__(self):
        return "MonomialOrder(%r, %d)" % (self.kind, self.nvars)


def _integral(p, order):
    """(P, num, den) with p == num / den * P: P is the primitive integer
    polynomial of p as a packed dict {key: int}, and num and den are
    positive; ({}, 1, 1) for p == 0.  Raises ResourceCap when p has total
    degree DEGREE_CAP or more."""
    w = order.weights
    cs = p.terms.values()
    den = lcm(*(c.denominator for c in cs))
    num = gcd(*(c.numerator for c in cs)) or 1
    P = {sum(map(mul, e, w)): c.numerator // num * (den // c.denominator)
         for e, c in p.terms.items()}
    # The top degree read from the keys reaches DEGREE_CAP when that of p
    # does, even if an exponent overflows its field: locally -K(e) >= |e| *
    # 2^(32n), and in degrevlex K(e) >= |e| * (2^(32n) - 2^(32n - 32)), as
    # each e_i * 2^(32i) <= e_i * 2^(32n - 32).
    _capped(order.top(P))
    return P, num, den


def _rational(P, num, den, order):
    """The Poly num / den * P of the packed integer polynomial P, whose
    exponents are unpacked clean, so that Poly need not check them."""
    exponent = order.exponent
    return Poly._raw(order.nvars, {exponent(K): Fraction(c * num, den)
                                   for K, c in P.items()})


def _below(P, cut):
    """The terms of P the cut keeps (all of them when ``cut`` is None)."""
    if cut is None:
        return P
    return {f: c for f, c in P.items() if f > cut}


def _scale(P, a):
    """a * P as a new dict."""
    return dict(P) if a == 1 else {e: a * c for e, c in P.items()}


def _addmul(out, c, e, P, cut):
    """out += c * x^e * P in place for the packed key e, keeping only the
    terms the cut keeps; returns out."""
    items = P.items()
    if cut is not None:
        # x^e * x^f is kept when f lies above cut - e
        room = cut - e
        items = [(f, d) for f, d in items if f > room]
    for f, d in items:
        g = e + f
        s = out.get(g, 0) + c * d
        if s:
            out[g] = s
        else:
            del out[g]
    return out


def _mul(out, c, P, Q, cut):
    """out += c * P * Q in place, keeping only the terms the cut keeps;
    returns out."""
    for e, d in P.items():
        _addmul(out, c * d, e, Q, cut)
    return out


def _lead(B, k, order):
    """The leading record of the nonzero packed integer polynomial B held as
    basis element k: (leading key e, plain packed exponents of e, leading
    coefficient, ecart, B, k).  The ecart is the top degree of B less that
    of e: 0 in degrevlex, where a leading monomial has top degree."""
    e = max(B)
    return e, -e & order.mask, B[e], order.top(B) - order.degree(e), B, k


def _reduce(h, basis, order, budget, below):
    """Weak normal form of the packed integer polynomial h against basis, a
    sequence of the leading records (_lead) of packed integer polynomials
    B_k, record k holding B_k.

    Returns (H, U, C), plain packed integer polynomials and a dict of them,
    with the identity
        U * h == sum_k C[k] * B_k + H
    over the integers, where U(0) != 0 (U is a constant under a global
    order) and no leading monomial of the basis divides the leading
    monomial of H.  The identity is exact, or with ``below`` (local order
    only) holds modulo m^below: h, H, U and the C[k] then have no term of
    degree ``below`` or more.  A step multiplies H, U and the C[k] by the
    reducer's leading coefficient and subtracts the leading coefficient of
    H times the reducer, both divided by their gcd; then the common content
    of H, U and the C[k] is divided out.  Every element of a standard basis
    has a positive leading coefficient, so a step rescales U and the C[k]
    only when that coefficient does not divide the one of h.

    The gcd of U and the C[k] is a running number: a step multiplies it by
    its factor, a content division divides it, and a step against B_k takes
    its gcd with the one term it writes, at x^eh / x^e_k for the leading
    monomial x^eh of h.  That term is new: every term x^f of C[k] has x^f *
    x^e_k above x^eh in the order, by induction over the steps, since the
    order is multiplicative and a stacked intermediate's leading monomial
    lies below those of the steps before it.  A fold against a stacked
    intermediate adds to terms already written, so after one the gcd is
    recomputed.  The same induction gives x^u * x^e0 >= x^eh for every term
    x^u of U and the leading monomial x^e0 of the input.  So no step of
    either order writes a term of U or C of degree above that of x^eh,
    which the cut of h keeps below ``below``, and U and C need no cut of
    their own.  In degrevlex no step writes a term above the top degree
    |eh| of h either.

    A step against a reducer g writes x^eh / x^eg * g, of top degree
    |eh| + ecart(g); it raises ResourceCap first when that reaches
    DEGREE_CAP.  With an ecart of 0 it is |eh|, the degree of a term of h.
    """
    shift, mask, guard = order.shift, order.mask, order.guard
    cut = order.cut(below)
    # the zero exponent has the key 0
    U = {0: 1}
    C = {}
    # the gcd of U and the C[k]
    content_uc = 1
    # Mora: the reducers are the basis records, never rebuilt, and the
    # stacked intermediates, each a record whose last entry holds copies of
    # the (U, C) it had when stacked instead of an index, so reductions
    # against it fold into (U, C) exactly.  In the local order -K >> shift
    # is the degree of the key K, and the least key has the top degree.
    reducers = list(basis)
    while h:
        budget.spend()
        eh = max(h)
        ch = h[eh]
        # x^eg divides x^eh when no field of eh - eg borrows
        plain = -eh & mask
        room = plain | guard
        best = None
        for red in reducers:
            if ((best is None or red[3] < best[3])
                    and (room - red[1]) & guard == guard):
                best = red
        if best is None:
            break
        eg, _, cg, ec, g, payload = best
        # an ecart is never negative, and positive only in the local order;
        # h is stacked only against a reducer of positive ecart, never under
        # the global order
        if ec:
            dh = -eh >> shift
            _capped(dh + ec)
            if ec > (ech := (-min(h) >> shift) - dh):
                stacked = dict(U), {k: dict(q) for k, q in C.items()}
                reducers.append((eh, plain, ch, ech, h, stacked))
        d = gcd(ch, cg)
        a, b = cg // d, ch // d
        step = eh - eg
        h = _addmul(_scale(h, a), -b, step, g, cut)
        if a != 1:
            U = _scale(U, a)
            C = {k: _scale(q, a) for k, q in C.items()}
            content_uc *= a
        if type(payload) is int:
            C.setdefault(payload, {})[step] = b
            content_uc = gcd(content_uc, b)
        else:
            U0, C0 = payload
            _addmul(U, -b, step, U0, None)
            for k, q in C0.items():
                _addmul(C.setdefault(k, {}), -b, step, q, None)
            content_uc = gcd(*U.values(),
                             *(c for q in C.values() for c in q.values()))
        content = gcd(*h.values())
        if content != 1:
            content = gcd(content, content_uc)
            if content != 1:
                h = {e: c // content for e, c in h.items()}
                U = {e: c // content for e, c in U.items()}
                C = {k: {e: c // content for e, c in q.items()}
                     for k, q in C.items()}
                content_uc //= content
    return h, U, C


@dataclass(frozen=True)
class StandardBasis:
    """A standard (local) or Groebner (global) basis with expansions.

    The basis is held in packed integers (module docstring): basis[k] is
    the leading record (_lead) of a packed integer polynomial B_k,
    (e_k, plain packed exponents of e_k, lc(B_k), ecart, B_k, k), and
        scales[k] * B_k == sum_j rows[k][j] * G_j
    for the packed rows and the splits[j] == (G_j, num_j, den_j) with
    gens[j] == num_j / den_j * G_j and G_j primitive and packed.  The
    identity holds as a polynomial identity when modulo is None, and modulo
    m^modulo otherwise; then m^modulo lies in the ideal and no element or
    row has a term of degree modulo or more, except an element whose
    leading monomial has that degree, which is that monomial.  reaches[k]
    bounds the total degree of every product rows[k][j] * G_j.

    The other fields are tuples of exponents: leading_exps[k] is the
    exponent of e_k, and staircase holds the standard monomials of the
    leading exponents, by degree and then as tuples, or None when there are
    infinitely many.  elements and expansions are the Fraction form, Polys
    computed on first read: elements[k] is B_k made monic with respect to
    the order, and
        elements[k] == sum_j expansions[k][j] * gens[j]
    with the same modulo.
    """

    order: MonomialOrder
    gens: tuple
    basis: tuple = field(hash=False)
    rows: tuple = field(hash=False)
    scales: tuple
    splits: tuple = field(hash=False)
    reaches: tuple = field(hash=False)
    leading_exps: tuple
    staircase: tuple | None
    modulo: int | None = None

    @cached_property
    def elements(self):
        return tuple(_rational(r[4], 1, r[2], self.order) for r in self.basis)

    @cached_property
    def expansions(self):
        return tuple(
            tuple(_rational(R, den, num * sigma * r[2], self.order)
                  for R, (_, num, den) in zip(row, self.splits))
            for r, row, sigma in zip(self.basis, self.rows, self.scales))


def at_corner(c):
    """The truncation degree that works modulo m^c at the corner degree c:
    the policy of the corner basis."""
    return c


def _clip(B, e, row, sigma, cut):
    """Element B with leading key e, its row and its scale sigma under the
    cut of the local order.  An element whose leading monomial the cut
    drops becomes that monomial, which is in the ideal and keeps the leading
    exponent; its old leading coefficient moves into the scale, so that the
    expansions read from the row stay those of the monic element."""
    row = [_below(R, cut) for R in row]
    if e <= cut:
        return {e: 1}, row, sigma * B[e]
    return _below(B, cut), row, sigma


def standard_basis(gens, order, modulo=None):
    """Standard basis of the ideal of gens with expansions over gens.

    With ``modulo`` None the basis and its expansions are exact.  Otherwise,
    in a local order, ``modulo`` maps the corner degree c to a degree
    T >= c, and once the leading monomials leave a finite staircase the
    computation drops every term of degree T or more (see the module
    docstring), lowering T as the staircase shrinks; the basis records the
    final T.  A global order never truncates.

    Raises ResourceCap before it would form a monomial of total degree
    DEGREE_CAP or more: when a pair is formed whose S-polynomial could
    reach it, and before a row or a reduction step that could.
    """
    gens = tuple(gens)
    if not gens:
        raise InvalidInput("empty generator list")
    n = order.nvars
    if any(g.nvars != n for g in gens):
        raise InvalidInput("generators and order live in different rings")
    budget = _budget()
    # the most monomials the staircase may list: the steps left at the start
    listable = budget.remaining
    local = order.is_local()
    key, top, degree = order.key, order.top, order.degree
    mask, guard = order.mask, order.guard
    ints = [_integral(g, order) for g in gens]
    m = len(gens)

    # basis[k] is the leading record of B_k (_lead), and scales[k] * B_k ==
    # sum_j rows[k][j] * G_j for the primitive generators G_j (module
    # docstring)
    basis = []
    lead_exps = []
    # reaches[k] bounds the degree of every product rows[k][j] * G_j; a cut
    # only lowers it
    reaches = []
    rows = []
    scales = []
    sugars = []
    pending = set()
    queue = []
    below = cut = None
    # set once an element with leading exponent 0 enters: any set holding
    # it is a standard basis, as its leading monomial divides every other
    unit = False
    # the staircase of the leading exponents: in a truncating local basis
    # enumerated once, when pure powers of all variables first bound it,
    # and then shrunk as each new leading exponent arrives; in any other
    # basis enumerated once, at the end
    std = None

    def add_element(B, row, sigma, sugar, reach):
        nonlocal unit
        t = len(basis)
        e = max(B)
        unit = unit or e == 0
        if B[e] < 0:
            # a positive leading coefficient, so that a reduction against
            # B rescales nothing when lc(B) divides the coefficient it meets
            B = _scale(B, -1)
            row = [_scale(R, -1) for R in row]
        if cut is not None:
            B, row, sigma = _clip(B, e, row, sigma, cut)
        basis.append(_lead(B, t, order))
        ecart = basis[t][3]
        exp = order.exponent(e)
        lead_exps.append(exp)
        reaches.append(reach)
        rows.append(row)
        scales.append(sigma)
        sugars.append(sugar)
        for s in range(t):
            es = lead_exps[s]
            lcm_e = tuple(map(max, es, exp))
            d = sum(lcm_e)
            # x^(lcm - e_k) * B_k has top degree d + ecart(B_k), and a
            # later cut only lowers the ecart
            _capped(d + max(basis[s][3], ecart))
            if local:
                head = d
            else:
                head = max(sugars[s] + d - sum(es), sugar + d - sum(exp))
            pending.add((s, t))
            heapq.heappush(queue, (head, key(lcm_e), s, t))
        if local and modulo is not None:
            lower_corner(exp)

    def lower_corner(e):
        # the staircase of the leading monomials sets c; once it is finite,
        # cut every element and row at the new, lower T
        nonlocal below, cut, std
        if std is None:
            std = _staircase(lead_exps, n, listable)
            if std is None:
                return
        else:
            kept = tuple(s for s in std if not all(map(le, e, s)))
            if len(kept) == len(std):
                return
            std = kept
        t = max(1, modulo(1 + (sum(std[-1]) if std else -1)))
        if below is not None and t >= below:
            return
        below, cut = t, order.cut(t)
        for k, (ek, _, _, _, B, _) in enumerate(basis):
            B, rows[k], scales[k] = _clip(B, ek, rows[k], scales[k], cut)
            basis[k] = _lead(B, k, order)

    for j, (G, _, _) in enumerate(ints):
        if G:
            row = [{}] * m
            row[j] = {0: 1}
            d = top(G)
            add_element(G, row, 1, d, d)

    def chain_skips(i, j, lcm_k):
        # Gebauer-Moller: S(i, j) is a combination of S(i, k) and S(j, k)
        # below lcm, and both of those are already done.
        room = -lcm_k & mask | guard
        for _, p, _, _, _, k in basis:
            if (k != i and k != j and (room - p) & guard == guard
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                return True
        return False

    while queue:
        if unit or below is not None and queue[0][0] >= below:
            # every pair left is done: a unit leads, or the heads left are
            # lcm degrees of at least T and their S-polynomials vanish
            # modulo m^T.  Each pair still costs its step, as a pair skipped
            # by a criterion does.
            budget.spend(len(queue))
            break
        budget.spend()
        head, lcm_k, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        if not local and all(a == 0 or b == 0
                              for a, b in zip(lead_exps[i], lead_exps[j])):
            # product criterion: disjoint supports reduce to zero (global only)
            continue
        if chain_skips(i, j, lcm_k):
            continue
        ei, _, ci, _, Bi, _ = basis[i]
        ej, _, cj, _, Bj, _ = basis[j]
        si, sj = lcm_k - ei, lcm_k - ej
        d = gcd(ci, cj)
        a, b = cj // d, ci // d
        spoly = _addmul(_addmul({}, a, si, Bi, cut), -b, sj, Bj, cut)
        if not spoly:
            continue
        H, U, C = _reduce(spoly, basis, order, budget, below)
        if not H:
            continue
        # every product the new row and its check below form, with the
        # generators too, has at most this degree
        u_top = top(U)
        reach = max(u_top + degree(si) + reaches[i],
                    u_top + degree(sj) + reaches[j],
                    *(top(Ct) + reaches[t] for t, Ct in C.items()))
        _capped(reach)
        # M * H == row . G: the S-polynomial's row times U, less the rows
        # of the elements C reduced by, over a common scale M
        M = lcm(scales[i], scales[j], *(scales[t] for t in C))
        fi, fj = a * (M // scales[i]), b * (M // scales[j])
        row = []
        for col, (Ri, Rj) in enumerate(zip(rows[i], rows[j])):
            pair = _addmul(_addmul({}, fi, si, Ri, cut), -fj, sj, Rj, cut)
            out = _mul({}, 1, U, pair, cut)
            for t, Ct in C.items():
                _mul(out, -(M // scales[t]), Ct, rows[t][col], cut)
            row.append(out)
        content = gcd(*H.values())
        sigma = M * content
        common = gcd(sigma, *(c for R in row for c in R.values()))
        # head is the pair's sugar in the global order; the local order
        # never reads sugars
        add_element({e: c // content for e, c in H.items()},
                    [{e: c // common for e, c in R.items()} for R in row],
                    sigma // common, head, reach)

    for rec, row, sigma in zip(basis, rows, scales):
        acc = {}
        for R, (G, _, _) in zip(row, ints):
            _mul(acc, 1, R, G, cut)
        if acc != _below(_scale(rec[4], sigma), cut):
            raise RouteConflict("expansion bookkeeping broke")

    return StandardBasis(
        order=order,
        gens=gens,
        basis=tuple(basis),
        rows=tuple(map(tuple, rows)),
        scales=tuple(scales),
        splits=tuple(ints),
        reaches=tuple(reaches),
        leading_exps=tuple(lead_exps),
        staircase=_staircase(lead_exps, n, listable) if std is None else std,
        modulo=below,
    )


def _reduced(p, sb):
    """(P, a, b, H, U, C) for p against the standard basis sb: p == a / b *
    P with P primitive, packed and cut at the m^T of sb, and the weak normal
    form U * P == sum_k C[k] * B_k + H of _reduce.  When the staircase is
    empty the ideal is the whole ring, and the form is B * P == P * B with
    H == 0 and no step, for the element B of sb with leading exponent 0, a
    unit of the local ring (a constant in degrevlex)."""
    order = sb.order
    if p.nvars != order.nvars:
        raise InvalidInput("polynomial and standard basis live in different "
                           "rings")
    P, a, b = _integral(p, order)
    P = _below(P, order.cut(sb.modulo))
    if sb.staircase == ():
        unit = next(r for r in sb.basis if r[0] == 0)
        return P, a, b, {}, unit[4], {unit[5]: P}
    return (P, a, b, *_reduce(P, sb.basis, order, _budget(), sb.modulo))


def normal_form(p, sb):
    """Weak normal form of p against the standard basis sb (remainder
    only): when sb works modulo m^T the remainder has no term of degree T or
    more.  It is zero exactly when p lies in the ideal, and so at once when
    the staircase is empty: then the ideal is the whole ring."""
    _, a, b, H, U, _ = _reduced(p, sb)
    return _rational(H, a, b * U[0], sb.order)


@dataclass(frozen=True)
class Cofactors:
    """Witness of ideal membership:  unit * p == sum cofactors[j] * gens[j],
    with unit(0) == 1."""

    cofactors: tuple
    unit: Poly


def membership_with_cofactors(p, sb):
    """Express p in terms of the generators of the standard basis sb, up to
    a unit.

    Raises NotMember when p is not in the ideal.  The identity
    unit * p == sum cofactors[j] * gens[j] is checked before returning:
    exactly when sb.modulo is None, else modulo m^T for T == sb.modulo, and
    then no cofactor and no unit term has degree T or more; against the
    unit ideal, without a reduction (_reduced).  Raises ResourceCap before
    a product could reach total degree DEGREE_CAP.
    """
    P, pa, pb, H, U, C = _reduced(p, sb)
    order = sb.order
    top = order.top
    cut = order.cut(sb.modulo)
    u0 = U[0]
    if H:
        raise NotMember("polynomial is not in the ideal (normal form %s)"
                        % _rational(H, pa, pb * u0, order).format())
    _capped(max([top(U) + top(P),
                 *(top(Ck) + sb.reaches[k] for k, Ck in C.items())]))
    # U * P == sum_k C_k * B_k and scales[k] * B_k == sum_j rows[k][j] * G_j,
    # so M * U * P == sum_j Q_j * G_j over a common multiple M of the scales
    M = lcm(*(sb.scales[k] for k in C))
    Q = [{} for _ in sb.splits]
    for k, Ck in C.items():
        for Qj, Rkj in zip(Q, sb.rows[k]):
            _mul(Qj, M // sb.scales[k], Ck, Rkj, cut)
    acc = {}
    for Qj, (G, _, _) in zip(Q, sb.splits):
        _mul(acc, 1, Qj, G, cut)
    if acc != _mul({}, M, U, P, cut):
        raise RouteConflict("cofactor identity broke")
    return Cofactors(
        cofactors=tuple(_rational(Qj, pa * b, pb * M * u0 * a, order)
                        for Qj, (_, a, b) in zip(Q, sb.splits)),
        unit=_rational(U, 1, u0, order))


def _staircase(exps, n, limit):
    """The standard monomials of the monomial ideal generated by exps,
    sorted by degree and then as tuples, or None when there are infinitely
    many (some variable has no pure power among exps).  Raises ResourceCap
    once it has listed more than limit of them, the steps a budget has
    left, and spends none of them."""
    if (0,) * n in exps:
        return ()
    if not all(any(e[i] and sum(e) == e[i] for e in exps) for i in range(n)):
        return None
    out = []

    def walk(prefix, active, i):
        # the entries before i are fixed, and active holds the exponents
        # whose entries before i are at most those; entry i grows until an
        # active exponent with only zeros after i divides every completion
        # (the pure power of x_i does at the latest).  So each prefix
        # reached, padded with zeros, is standard, and none is visited in
        # vain.
        a = 0
        while True:
            live = [g for g in active if g[i] <= a]
            if not all(any(g[i + 1:]) for g in live):
                return
            if i == n - 1:
                out.append(prefix + (a,))
                if len(out) > limit:
                    raise ResourceCap("the staircase has more standard "
                                      "monomials than the %d steps left; "
                                      "raise the step limit to continue"
                                      % limit)
            else:
                walk(prefix + (a,), live, i + 1)
            a += 1

    walk((), exps, 0)
    out.sort(key=lambda e: (sum(e), e))
    return tuple(out)


def quotient_dim(gens, order):
    """Dimension of the quotient by the ideal of gens, read from the
    staircase of its leading terms.  Returns INFINITE when the staircase is
    unbounded.

    Local order: dimension of O_0 / I as a vector space, read from the
    basis at the highest corner.
    Global order: number of standard monomials (degree of a 0-dim ideal),
    read from the exact basis.
    """
    std = standard_basis(gens, order, at_corner).staircase
    return INFINITE if std is None else len(std)


def monomial_power_bound(sb):
    """Smallest N with every pure power x_i^N in the ideal of the standard
    basis sb.

    Requires a local order and a finite quotient dimension d; the maximal
    ideal to the power d lies inside the ideal, so the search up to d always
    succeeds.
    """
    if not sb.order.is_local():
        raise InvalidInput("monomial_power_bound needs a local order")
    if sb.staircase is None:
        raise NotZeroDimensional(
            "ideal does not cut out an isolated point; no power bound exists")
    d = len(sb.staircase)
    n = sb.order.nvars
    if d == 0:
        return 1
    budget = _budget()
    order = sb.order
    cut = order.cut(sb.modulo)
    for bound in range(1, d + 1):
        if all(not _reduce(_below({order.key(tuple(bound * (i == k)
                                                   for k in range(n))): 1},
                                  cut),
                           sb.basis, order, budget, sb.modulo)[0]
               for i in range(n)):
            return bound
    raise RouteConflict("power bound exceeded the quotient dimension")


def exact_divide(p, f):
    """Quotient p / f when f divides p exactly in the polynomial ring,
    else None.  Against f alone in degrevlex the weak normal form is the
    division algorithm, U * P == C * F + H with a constant U for the
    integer forms P and F of p and f.  The leading monomial of f divides
    that of every multiple of f, so f divides p exactly when H == 0, and
    p / f is then C / U.  Its steps spend from the budget."""
    if f.is_zero():
        raise InvalidInput("division by the zero polynomial")
    n = p.nvars
    if n != f.nvars:
        raise InvalidInput("dividend and divisor live in different rings")
    order = MonomialOrder.degrevlex(n)
    P, pa, pb = _integral(p, order)
    F, fa, fb = _integral(f, order)
    H, U, C = _reduce(P, [_lead(F, 0, order)], order, _budget(), None)
    if H:
        return None
    return _rational(C.get(0, {}), pa * fb, pb * fa * U[0], order)


def order_along_curve(g, curve_polys):
    """Vanishing order of g along the curve germ cut out by curve_polys:
    the local intersection number dim O_0 / (curve_polys + g).

    Returns INFINITE when g vanishes on a whole component (and for g == 0).
    """
    if g.is_zero():
        return INFINITE
    return quotient_dim(tuple(curve_polys) + (g,),
                        MonomialOrder.local(g.nvars))
