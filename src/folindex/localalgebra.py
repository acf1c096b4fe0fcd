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

The pair loop computes each element's leading exponent once, when the
element enters the basis, and each normal form computes a reducer's leading
exponent, coefficient and ecart once, when the reducer enters its list.  A
pair is skipped without reduction by the Gebauer-Moller chain criterion in
both orders (some other leading monomial divides the pair's lcm and both of
its pairs with the two are done), and by the product criterion (coprime
leading monomials) in the global order only, where it holds.

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
DEFAULT_MAX_STEPS.
"""

from __future__ import annotations

import contextlib
import contextvars
import heapq
from dataclasses import dataclass
from fractions import Fraction
from operator import le, sub

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
        if not (isinstance(limit, int) and limit > 0):
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


class MonomialOrder:
    """A monomial order on a fixed number of variables; in the reverse lex
    tie-break earlier variables are larger."""

    __slots__ = ("kind", "nvars")

    def __init__(self, kind, nvars):
        if kind not in (LOCAL, GLOBAL):
            raise InvalidInput("unknown order kind %r" % (kind,))
        if nvars < 1:
            raise InvalidInput("an order needs at least one variable")
        self.kind = kind
        self.nvars = nvars

    @classmethod
    def local(cls, nvars):
        return cls(LOCAL, nvars)

    @classmethod
    def degrevlex(cls, nvars):
        return cls(GLOBAL, nvars)

    def is_local(self):
        return self.kind == LOCAL

    def key(self, exp):
        """Sort key; the maximum over a polynomial's terms is its leading
        monomial."""
        head = -sum(exp) if self.kind == LOCAL else sum(exp)
        return (head,) + tuple(-e for e in reversed(exp))

    def leading(self, p):
        """(exponent, coefficient) of the leading term.  p must be nonzero."""
        if not p.terms:
            raise InvalidInput("zero polynomial has no leading term")
        e = max(p.terms, key=self.key)
        return e, p.terms[e]

    def __eq__(self, other):
        return (isinstance(other, MonomialOrder)
                and (self.kind, self.nvars) == (other.kind, other.nvars))

    def __hash__(self):
        return hash((self.kind, self.nvars))

    def __repr__(self):
        return "MonomialOrder(%r, %d)" % (self.kind, self.nvars)


def _divides(e1, e2):
    return all(map(le, e1, e2))


def _nf(p, elements, lead_exps, order, budget, below=None):
    """Weak normal form of p against elements, whose leading exponents are
    lead_exps.

    Returns (r, u, c) with the identity
        u * p == sum_k c[k] * elements[k] + r
    where u has constant term 1 (u == 1 under a global order) and no leading
    monomial of the basis divides the leading monomial of r.  The identity
    is exact, or with ``below`` holds modulo m^below: r, u and the c[k] then
    have no term of degree ``below`` or more.
    """
    n = p.nvars
    zero = Poly.zero(n)
    one = Poly.const(n, 1)
    u = one
    c = {}
    h = p.truncate(below)

    # Mora: reducers grow with stacked intermediates.  A reducer is
    # (leading exponent, leading coefficient, ecart, polynomial, payload):
    # the payload is the basis index k, or for a stacked intermediate the
    # representation (u, c) it had when stacked, so reductions against it
    # fold into (u, c) exactly.
    reducers = [(eb, b.terms[eb], b.degree() - sum(eb), b, k)
                for k, (b, eb) in enumerate(zip(elements, lead_exps))]
    while h.terms:
        budget.spend()
        eh, ch = order.leading(h)
        best = None
        for red in reducers:
            if (best is None or red[2] < best[2]) and _divides(red[0], eh):
                best = red
        if best is None:
            break
        eg, cg, ec, g, payload = best
        # an ecart is never negative, so h is stacked only against a
        # reducer of positive ecart, never under the global order
        if ec and ec > (ech := h.degree() - sum(eh)):
            reducers.append((eh, ch, ech, h, (u, dict(c))))
        q = ch / cg
        shift = tuple(map(sub, eh, eg))
        h = h.sub_mul(shift, q, g, below)
        if type(payload) is int:
            c[payload] = c.get(payload, zero).sub_mul(shift, -q, one, below)
        else:
            u0, c0 = payload
            u = u.sub_mul(shift, q, u0, below)
            for k, c0k in c0.items():
                c[k] = c.get(k, zero).sub_mul(shift, q, c0k, below)
    return h, u, c


@dataclass(frozen=True)
class StandardBasis:
    """A standard (local) or Groebner (global) basis with expansions.

    expansions[k] is a cofactor vector over the original generators:
        elements[k] == sum_j expansions[k][j] * gens[j]
    holds as a polynomial identity when modulo is None, and modulo
    m^modulo otherwise; then m^modulo lies in the ideal and no element or
    expansion has a term of degree modulo or more, except an element whose
    leading monomial has that degree, which is that monomial.  Elements are
    monic with respect to the order; leading_exps[k] is the leading exponent
    of elements[k].  staircase holds the standard monomials of the leading
    exponents, by degree and then as tuples, or None when there are
    infinitely many.
    """

    order: MonomialOrder
    gens: tuple
    elements: tuple
    expansions: tuple
    leading_exps: tuple
    staircase: tuple | None
    modulo: int | None = None


def at_corner(c):
    """The truncation degree that works modulo m^c at the corner degree c:
    the policy of the corner basis."""
    return c


def _cut(b, e, row, below):
    """Element b with leading exponent e and its expansion row modulo
    m^below; an element whose leading monomial lies in m^below becomes that
    monomial, which is in the ideal and keeps the leading exponent."""
    b = Poly.monomial(e) if sum(e) >= below else b.truncate(below)
    return b, [q.truncate(below) for q in row]


def _shifted_difference(si, a, sj, b, below):
    """x^si * a - x^sj * b, without the terms of degree ``below`` or more."""
    return Poly.zero(a.nvars).sub_mul(si, -1, a, below).sub_mul(sj, 1, b,
                                                                below)


def standard_basis(gens, order, modulo=None):
    """Standard basis of the ideal of gens with expansions over gens.

    With ``modulo`` None the basis and its expansions are exact.  Otherwise,
    in a local order, ``modulo`` maps the corner degree c to a degree
    T >= c, and once the leading monomials leave a finite staircase the
    computation drops every term of degree T or more (see the module
    docstring), lowering T as the staircase shrinks; the basis records the
    final T.  A global order never truncates.
    """
    gens = tuple(gens)
    if not gens:
        raise InvalidInput("empty generator list")
    n = order.nvars
    if any(g.nvars != n for g in gens):
        raise InvalidInput("generators and order live in different rings")
    budget = _budget()
    local = order.is_local()
    zero = Poly.zero(n)
    m = len(gens)

    elements = []
    lead_exps = []
    expans = []
    sugars = []
    pending = set()
    queue = []
    below = None
    # the staircase of the leading exponents: in a truncating local basis
    # enumerated once, when pure powers of all variables first bound it,
    # and then shrunk as each new leading exponent arrives; in any other
    # basis enumerated once, at the end
    std = None

    def add_element(b, e, row, sugar):
        t = len(elements)
        if below is not None:
            b, row = _cut(b, e, row, below)
        elements.append(b)
        lead_exps.append(e)
        expans.append(row)
        sugars.append(sugar)
        for s in range(t):
            es = lead_exps[s]
            lcm = tuple(map(max, es, e))
            if local:
                head = sum(lcm)
            else:
                head = max(sugars[s] + sum(lcm) - sum(es),
                           sugar + sum(lcm) - sum(e))
            pending.add((s, t))
            heapq.heappush(queue, (head, order.key(lcm), s, t))
        if local and modulo is not None:
            lower_corner(e)

    def lower_corner(e):
        # the staircase of the leading monomials sets c; once it is finite,
        # cut every element and expansion at the new, lower T
        nonlocal below, std
        if std is None:
            std = _staircase(lead_exps, n)
            if std is None:
                return
        else:
            kept = tuple(s for s in std if not _divides(e, s))
            if len(kept) == len(std):
                return
            std = kept
        t = max(1, modulo(1 + (sum(std[-1]) if std else -1)))
        if below is not None and t >= below:
            return
        below = t
        for k, ek in enumerate(lead_exps):
            elements[k], expans[k] = _cut(elements[k], ek, expans[k], t)

    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        e, lc = order.leading(g)
        row = [zero] * m
        row[j] = Poly.const(n, Fraction(1) / lc)
        add_element(g / lc, e, row, g.degree())

    def chain_skips(i, j, lcm):
        # Gebauer-Moller: S(i, j) is a combination of S(i, k) and S(j, k)
        # below lcm, and both of those are already done.
        for k, ek in enumerate(lead_exps):
            if (k != i and k != j and _divides(ek, lcm)
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                return True
        return False

    while queue:
        if below is not None and queue[0][0] >= below:
            # the heads left are lcm degrees of at least T: every S-polynomial
            # left vanishes modulo m^T.  Each pair still costs its step, as a
            # pair skipped by a criterion does.
            budget.spend(len(queue))
            break
        budget.spend()
        head, _, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        ei, ej = lead_exps[i], lead_exps[j]
        if not local and all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            # product criterion: disjoint supports reduce to zero (global only)
            continue
        lcm = tuple(map(max, ei, ej))
        if chain_skips(i, j, lcm):
            continue
        si = tuple(map(sub, lcm, ei))
        sj = tuple(map(sub, lcm, ej))
        spoly = _shifted_difference(si, elements[i], sj, elements[j], below)
        if spoly.is_zero():
            continue
        r, u, c = _nf(spoly, elements, lead_exps, order, budget, below)
        if r.is_zero():
            continue
        row = [u.mul_below(_shifted_difference(si, xi, sj, xj, below), below)
               for xi, xj in zip(expans[i], expans[j])]
        for t, ct in c.items():
            for k in range(m):
                row[k] = row[k] - ct.mul_below(expans[t][k], below)
        e, lc = order.leading(r)
        # head is the pair's sugar in the global order; the local order
        # never reads sugars
        add_element(r / lc, e, [q / lc for q in row], head)

    for b, row in zip(elements, expans):
        acc = zero
        for q, g in zip(row, gens):
            acc = acc + q.mul_below(g, below)
        if acc != b.truncate(below):
            raise RouteConflict("expansion bookkeeping broke")

    return StandardBasis(
        order=order,
        gens=gens,
        elements=tuple(elements),
        expansions=tuple(tuple(row) for row in expans),
        leading_exps=tuple(lead_exps),
        staircase=_staircase(lead_exps, n) if std is None else std,
        modulo=below,
    )


def normal_form(p, sb):
    """Weak normal form of p against the standard basis sb (remainder
    only): when sb works modulo m^T the remainder has no term of degree T or
    more.  It is zero exactly when p lies in the ideal."""
    r, _, _ = _nf(p, sb.elements, sb.leading_exps, sb.order, _budget(),
                  sb.modulo)
    return r


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
    then no cofactor and no unit term has degree T or more.
    """
    below = sb.modulo
    r, u, c = _nf(p, sb.elements, sb.leading_exps, sb.order, _budget(),
                  below)
    if not r.is_zero():
        raise NotMember("polynomial is not in the ideal (normal form %s)"
                        % r.format())
    n = p.nvars
    q = [Poly.zero(n) for _ in sb.gens]
    for k, ck in c.items():
        row = sb.expansions[k]
        for j in range(len(q)):
            q[j] = q[j] + ck.mul_below(row[j], below)
    acc = Poly.zero(n)
    for qj, gj in zip(q, sb.gens):
        acc = acc + qj.mul_below(gj, below)
    if acc != u.mul_below(p, below):
        raise RouteConflict("cofactor identity broke")
    return Cofactors(cofactors=tuple(q), unit=u)


def _staircase(exps, n):
    """The standard monomials of the monomial ideal generated by exps,
    sorted by degree and then as tuples, or None when there are infinitely
    many (some variable has no pure power among exps)."""
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
    for bound in range(1, d + 1):
        if all(_nf(Poly.var(n, i) ** bound, sb.elements, sb.leading_exps,
                   sb.order, budget, sb.modulo)[0].is_zero()
               for i in range(n)):
            return bound
    raise RouteConflict("power bound exceeded the quotient dimension")


def exact_divide(p, f):
    """Quotient p / f when f divides p exactly in the polynomial ring,
    else None."""
    if f.is_zero():
        raise InvalidInput("division by the zero polynomial")
    if p.nvars != f.nvars:
        raise InvalidInput("dividend and divisor live in different rings")
    order = MonomialOrder.degrevlex(p.nvars)
    ef, cf = order.leading(f)
    h = p
    q = {}
    while h.terms:
        eh, ch = order.leading(h)
        if not _divides(ef, eh):
            return None
        shift = tuple(map(sub, eh, ef))
        q[shift] = ch / cf
        h = h.sub_mul(shift, q[shift], f)
    return Poly(p.nvars, q)


def order_along_curve(g, curve_polys):
    """Vanishing order of g along the curve germ cut out by curve_polys:
    the local intersection number dim O_0 / (curve_polys + g).

    Returns INFINITE when g vanishes on a whole component (and for g == 0).
    """
    if g.is_zero():
        return INFINITE
    return quotient_dim(tuple(curve_polys) + (g,),
                        MonomialOrder.local(g.nvars))
