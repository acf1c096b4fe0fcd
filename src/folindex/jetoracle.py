"""Brute-force truncation oracle for local dimensions and homological
Euler characteristics.

Everything here works in the finite window of monomials of total degree
below a truncation level N and reduces questions to exact integer ranks.
Rows are sparse integer vectors built by shifting the integer terms of the
input polynomials; it shares no code with the standard-basis machinery or
with the exterior algebra of polyring, which is the point: the routes
confirm each other.
"""

from __future__ import annotations

import itertools
from math import comb, gcd, lcm

from .errors import (
    InvalidInput,
    NotInvariant,
    NotLogarithmic,
    RouteConflict,
    TruncationNotStabilized,
)
from .polyring import Poly, _check_divisor

__all__ = [
    "integer_rank",
    "truncated_quotient_dim",
    "contraction_complex_euler",
]

# highest truncation level contraction_complex_euler tries on its own
_MAX_TRUNC = 32


def _monomials(n, d):
    """Exponent tuples of total degree d in n variables."""
    if n == 0:
        if d == 0:
            yield ()
        return
    for a in range(d, -1, -1):
        for rest in _monomials(n - 1, d - a):
            yield (a,) + rest


def _count_below(n, N):
    """Number of monomials of total degree below N in n variables."""
    return comb(n + N - 1, n) if N > 0 else 0


def _code(e, base):
    """Integer key of the monomial x^e: the base-`base` digits e_1, ...,
    e_n, |e|, most significant first.  While every exponent and degree
    stays below base, adding keys multiplies monomials, key % base is the
    degree, and integer order is lexicographic order on e."""
    k = 0
    for a in e:
        k = k * base + a
    return k * base + sum(e)


def _integer_terms(polys):
    """Term dicts {e: int} of the polynomials, all scaled by one positive
    common denominator.  A nonzero constant factor changes no kernel, image
    or generated span, so the ranks below see the same answer."""
    den = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return [{e: c.numerator * (den // c.denominator)
             for e, c in p.terms.items()} for p in polys]


def _primitive(row):
    """Divide a sparse integer row by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        return {k: a // g for k, a in row.items()}
    return row


def _divide(p, f):
    """Quotient p / f when f divides p exactly, else None.

    Long division on the lexicographically largest term, kept here so the
    oracle shares no code with the standard-basis engine.  Lex order on
    exponent tuples is a monomial order, so an exact quotient exists iff
    this division leaves no remainder.
    """
    ef = max(f.terms)
    cf = f.terms[ef]
    rest = dict(p.terms)
    quotient = {}
    while rest:
        eh = max(rest)
        e = tuple(a - b for a, b in zip(eh, ef))
        if any(x < 0 for x in e):
            return None
        c = rest[eh] / cf
        quotient[e] = c
        for eg, cg in f.terms.items():
            t = tuple(a + b for a, b in zip(e, eg))
            s = rest.get(t, 0) - c * cg
            if s:
                rest[t] = s
            else:
                del rest[t]
    return Poly(p.nvars, quotient)


def integer_rank(rows, pivots=None):
    """Rank of a list of integer rows, by sparse fraction-free elimination.

    A row is a sparse {column: int} dict with no zero entry.  Each row is
    reduced on its lowest column against the pivot row owning that column:
    with a and p the two entries divided by their gcd, signs flipped so that
    p > 0, the row becomes p row - a pivot, which cancels the column
    exactly.  A row that does not reduce to zero becomes the pivot of its
    lowest column.  The pivots have distinct lowest columns, so their count
    is the rank.  Four rules keep the work down:

    - when p is 1 the row needs no scaled copy, only the subtraction;
    - a row is updated in place only once this call has built it (by a
      scaled or a plain copy); a caller's row and a stored pivot are never
      changed, so a given primitive row that no pivot reduces is stored as
      it is, and the caller must not change it afterwards either;
    - the content is divided out only after a step that scaled the row
      (p > 1), and when a row is stored, so every pivot is primitive;
    - a row that meets a longer pivot at its lowest column takes that
      column's place, primitive, and the longer pivot is reduced on in its
      stead, from the next column on; its own dict is never changed.

    pivots, if given, is the echelon {lowest column: row} of rows
    eliminated before; it is extended in place, and the count returned is
    the rank of those rows and these together.  A pivot row is never changed
    once stored, though the fourth rule may replace it in the echelon, so a
    caller may copy an echelon, extend the copy and read the original again.

    Which row becomes a pivot depends on the order of the rows and on the
    fourth rule, but the set of pivot columns does not: it is the set of
    lowest columns of the nonzero vectors of the row space.  Each pivot row
    lies in the span, and a nonzero combination of rows with distinct
    lowest columns has as lowest column the least of those it uses.  So the
    rank, and every prefix count below, depend on the row space alone.

    The echelon also gives the rank of the rows cut down to any prefix P of
    the columns (every column below some c): it is the number of pivots in
    P.  A pivot row is zero below its lowest column, so one whose pivot lies
    past P is zero on P; the pivot rows with pivot in P keep distinct lowest
    columns on P, hence stay independent there; and together they span the
    rows cut down to P, since the pivot rows span the rows.
    """
    if pivots is None:
        pivots = {}
    for row in rows:
        own = False
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = _primitive(row)
                break
            if len(row) < len(pivot):
                pivots[col] = _primitive(row)
                row, pivot, own = pivot, pivots[col], False
            a, p = row[col], pivot[col]
            g = gcd(a, p)
            a, p = a // g, p // g
            if p < 0:
                a, p = -a, -p
            if p != 1:
                row = {k: p * c for k, c in row.items()}
            elif not own:
                row = dict(row)
            own = True
            for k, c in pivot.items():
                s = row.get(k, 0) - a * c
                if s:
                    row[k] = s
                else:
                    del row[k]
            if p != 1:
                row = _primitive(row)
    return len(pivots)


def truncated_quotient_dim(gens, N):
    """dim C[x] / (I + m^N) for the ideal I of the generators, by the rank
    of their monomial multiples x^a g with |a| < N - ord(g), each clipped
    at degree N: every other multiple lies in m^N.

    Returns (value, stabilized) where stabilized means the same count
    recurs at N + 1.  A stabilized value is the local dimension of I at
    the origin: value(N) == value(N + 1) gives I + m^N == I + m^(N+1), so
    m^N lies in I + m * m^N, and by Nakayama m^N lies in I in the local
    ring, where the quotient by I is then the quotient by I + m^N.
    N must be an integer of at least 1.

    One elimination gives both levels.  A column x^e is keyed |e| base^(n+1)
    + _code(e), so the columns of degree below N are a prefix, and the
    multiples of level N are those of level N + 1 cut down to it (a
    multiple of order N is zero there).  By integer_rank's prefix rule
    their rank is the number of pivots of degree below N.
    """
    # below level 1 every quotient is zero and would read as stabilized
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        raise InvalidInput("truncation level %r is not an int >= 1" % (N,))
    gens = tuple(gens)
    if not gens:
        raise InvalidInput("truncated_quotient_dim needs a generator")
    n = gens[0].nvars
    if any(g.nvars != n for g in gens):
        raise InvalidInput("polynomial rings differ")
    terms = [g for g in _integer_terms(gens) if g]
    base = N + 2 + max((sum(e) for g in terms for e in g), default=0)
    step = base ** (n + 1)
    cut = (N + 1) * step
    rows = []
    for g in terms:
        low = min(map(sum, g))
        codes = [(_code(e, base) + sum(e) * step, c) for e, c in g.items()]
        for d in range(N + 1 - low):
            for a in _monomials(n, d):
                m = _code(a, base) + d * step
                rows.append(_primitive({k + m: c for k, c in codes
                                        if k + m < cut}))
    pivots = {}
    rank = integer_rank(rows, pivots)
    value = _count_below(n, N) - sum(1 for k in pivots if k < N * step)
    return value, value == _count_below(n, N + 1) - rank


# ---------------------------------------------------------------------------
# contraction complex


def _contraction_terms(comps, I):
    """i_v(dx_I) as {(J, e): c} for the integer field comps, in
    polyring.contract's sign convention: dx_{i_1} ^ ... ^ dx_{i_q} goes to
    the sum over p of (-1)^(p-1) v_{i_p} times the form without dx_{i_p}."""
    out = {}
    for pos, i in enumerate(I):
        J = I[:pos] + I[pos + 1:]
        for e, c in comps[i].items():
            out[(J, e)] = -c if pos % 2 else c
    return out


def _wedge_df_terms(grad, J):
    """df ^ dx_J as {(K, e): c} for the integer gradient grad of f, in
    polyring.wedge's sign convention: d_k f dx_k ^ dx_J is sorted into dx_K
    with one sign change per index of J below k."""
    out = {}
    for k, dk in enumerate(grad):
        if k in J:
            continue
        K = tuple(sorted(J + (k,)))
        sign = -1 if sum(1 for i in J if i < k) % 2 else 1
        for e, c in dk.items():
            out[(K, e)] = sign * c
    return out


def _gradient(f, n):
    return [{e[:k] + (e[k] - 1,) + e[k + 1:]: c * e[k]
             for e, c in f.items() if e[k]} for k in range(n)]


def _terms_degree(terms):
    return max((sum(e) for _, e in terms), default=-1)


class _Complex:
    """Sparse integer rows of one hypersurface's contraction complex.

    comps is the integer field and f the integer terms of the
    hypersurface; the complex has forms of degree 0 to top = n - 1.  A
    column is the form x^e dx_K, keyed (slot(K) - width |e|) base^(n+1) +
    _code(e), where slot(K) is the position of K among the index tuples of
    its size and width = C(n, n // 2) exceeds every slot.  So columns of
    higher degree come first, key % base is the degree, and adding shift(a)
    = _code(a) - width |a| base^(n+1) to a key multiplies its monomial by
    x^a.  base exceeds every degree a row or a contracted relation row
    reaches at the levels contraction_complex_euler reads, which stop at
    _MAX_TRUNC + 2.

    The templates are built once, each a primitive row with its degree:
    images[j], the image i_v(dx_I) of each basis form of degree j, and
    relations[j], the rows f dx_I, then df ^ dx_J, each with the image of
    its contraction when check is set.  rows(N, window) shifts them into
    the rows of one truncation level.  The shifts it reads, shifts[d] for
    every monomial of degree d in _monomials order, are built once per
    complex: a level extends the table by the degrees it adds, and the
    levels of one call share it.
    """

    def __init__(self, comps, f, check):
        n = len(comps)
        self.n, self.top = n, n - 1
        self.shifts = []
        self.forms = [list(itertools.combinations(range(n), j))
                      for j in range(n)]
        contractions = [[]] + [[_contraction_terms(comps, I)
                                for I in self.forms[j]]
                               for j in range(1, n)]
        grad = _gradient(f, n)
        relations = [[{(I, e): c for e, c in f.items()} for I in forms]
                     for forms in self.forms]
        for j in range(1, n):
            relations[j] += [_wedge_df_terms(grad, J)
                             for J in self.forms[j - 1]]
        dv = max([_terms_degree(t) for ts in contractions for t in ts] + [0])
        df = max([_terms_degree(t) for ts in relations for t in ts] + [0])
        self.base = _MAX_TRUNC + 2 + df + dv + 1
        self.span = self.base ** (n + 1)
        self.width = comb(n, n // 2)
        self.slots = [{K: s for s, K in enumerate(forms)}
                      for forms in self.forms]
        self.contractions = [[[(self.key(J, e), c) for (J, e), c in t.items()]
                              for t in ts] for ts in contractions]
        self.images = [[self._primitive_image(dict(t)) for t in ts]
                       for ts in self.contractions]
        self.relations = []
        for j, ts in enumerate(relations):
            templates = [self._primitive_image({self.key(K, e): c
                                                for (K, e), c in t.items()})
                         for t in ts if t]
            self.relations.append([
                (deg, row, self._primitive_image(self.contract(j, row))
                 if check and j else None) for deg, row in templates])

    def shift(self, e):
        return _code(e, self.base) - sum(e) * self.width * self.span

    def key(self, K, e):
        return self.slots[len(K)][K] * self.span + self.shift(e)

    def _primitive_image(self, row):
        return max((k % self.base for k in row), default=-1), _primitive(row)

    def contract(self, j, row):
        """Contraction of a row of j-forms, as a row of (j-1)-forms."""
        out = {}
        for k, c in row.items():
            s = k // self.span % self.width
            m = k - s * self.span
            for t, b in self.contractions[j][s]:
                t += m
                x = out.get(t, 0) + c * b
                if x:
                    out[t] = x
                else:
                    del out[t]
        return out

    def rows(self, N, window):
        """The rows truncation level N reads, by degree j of the forms:

          phi[j], j >= 1: (key of x^e dx_I, degree, row of i_v(x^e dx_I))
              for every basis form whose row has degree below N or whose
              |e| is below window; the degree is max(|e|, degree of the
              image), and window <= N;
          rel[j]: (row, pushed) for every relation f x^a dx_I and
              df ^ x^a dx_J of degree below N, where pushed is the row of
              its contraction when check is set and that has degree below
              N, else None.
        """
        span, shifts = self.span, self.shifts
        while len(shifts) < N:
            shifts.append([self.shift(e)
                           for e in _monomials(self.n, len(shifts))])
        phi = [[] for _ in range(self.n)]
        for j in range(1, self.top + 1):
            for s, (deg, image) in enumerate(self.images[j]):
                deg = max(deg, 0)
                for d in range(max(N - deg, window)):
                    for m in shifts[d]:
                        phi[j].append((s * span + m, d + deg,
                                       {k + m: c for k, c in image.items()}))
        rel = [[] for _ in range(self.n)]
        for j, templates in enumerate(self.relations):
            for deg, template, pushed in templates:
                for d in range(N - deg):
                    for m in shifts[d]:
                        image = None
                        if pushed and pushed[0] + d < N:
                            image = {k + m: c for k, c in pushed[1].items()}
                        rel[j].append(({k + m: c
                                        for k, c in template.items()}, image))
        return phi, rel


def _chi_at(cx, N, window):
    """Euler characteristic of the contraction complex truncated at N.

    Every dimension below is an exact integer rank, found by sparse
    fraction-free elimination (integer_rank) on the rows cx.rows(N,
    window).  The levels of one call share the templates of cx, and each
    builds and eliminates its own rows.

    Two precautions make the count honest.

    First, every generator row is kept whole or not at all.  Clipping a
    product at the truncation boundary leaves a head that is not a module
    element; a clipped tail of one relation can cancel the high part of an
    honest relation and the combination fakes a low-degree ideal member,
    which then poisons every rank below.  So a row whose image or product
    reaches degree N is left out.  Leaving it out is safe for realization:
    deg(f*h) = deg f + deg h exactly, so any relation of degree below N only
    needs multiplier rows of degree below N.

    Second, the low-order window.  A raw kernel-minus-image count in the
    truncated spaces is stably wrong: monomials near the truncation boundary
    are killed by truncation rather than by the differential and masquerade
    as homology at every N.  So homology is only counted on classes meeting
    the window U of coefficient degree below window = N - (1 + max input
    degree): the differential and the relation generators cannot push the
    window past the truncation boundary, hence within U nothing is lost.
    A column lies in U when its key's degree digit is below window.  With

        K_j = preimage of S_{j-1} under phi_j        (cycles upstairs)
        B_j = phi_{j+1}(W_{j+1}) + S_j               (boundaries upstairs)

    the window count of homology at j is dim(K_j n U_j) - dim(B_j n U_j);
    the shared dim(S_j n U_j) cancels in the difference.  Both terms reduce
    to ranks:

        dim(K_j n U_j) = |U_j| - (rank(phi_j(U_j) stacked on S_{j-1})
                                   - rank(S_{j-1}))
        dim(B_j n U_j) = rank(B_j rows) - rank(B_j rows cut down to the
                                                columns outside U)

    The columns outside U, of degree at least window, come first in the
    key order, so they are a prefix: by integer_rank's prefix rule the last
    rank is the number of pivots of B_j's echelon at degree window or more,
    and dim(B_j n U_j) is the number of its pivots in U.  One elimination
    of the B_j rows gives both ranks.

    So each row of the level is eliminated once, into one echelon per
    degree: S_(j-1) first; its rank is read, the stacked rows phi_j(U_j)
    extend it to an echelon of the stacked rows, whose rank is read; and
    the other phi_j rows of degree below N extend that to an echelon of
    B_(j-1), which holds every stacked row (a window row has degree below
    N).  S_top is B_top.  Nothing is carried from one level to the next.

    Two self-checks guard the count, and a failure raises RouteConflict
    (so they hold under python -O too): the differential keeps the window
    below the truncation boundary and, when cx was built with check set,
    contraction maps the relation span into itself at this level.
    """
    phi, rel = cx.rows(N, window)
    base, top = cx.base, cx.top
    echelons = [{} for _ in rel]
    for rows, echelon in zip(rel, echelons):
        integer_rank([row for row, _ in rows], echelon)

    h = [len(forms) * _count_below(cx.n, window) for forms in cx.forms]
    for j in range(1, top + 1):
        echelon = echelons[j - 1]
        rank = len(echelon)
        # a complex built without check pushes no row
        if integer_rank([p for _, p in rel[j] if p], echelon) != rank:
            raise RouteConflict(
                "contraction leaves the relation span at degree %d" % j)
        stacked = [(deg, row) for k, deg, row in phi[j] if k % base < window]
        if any(deg >= N for deg, _ in stacked):
            raise RouteConflict(
                "window element pushed past the truncation boundary")
        h[j] -= integer_rank([row for _, row in stacked], echelon) - rank
        integer_rank([row for k, _, row in phi[j] if k % base >= window],
                     echelon)
        h[j - 1] -= sum(1 for k in echelon if k % base < window)
    h[top] -= sum(1 for k in echelons[top] if k % base < window)
    return sum(-x if j % 2 else x for j, x in enumerate(h))


def contraction_complex_euler(v, germ):
    """Euler characteristic of the contraction complex of v, by truncation.
    The level doubles until the value is stabilized, up to _MAX_TRUNC, and
    TruncationNotStabilized is raised past it.

    germ may be a polynomial f: the complex of forms on the hypersurface
    f == 0, of length n - 1.  A level must exceed the degree buffer, and
    its value is stabilized when it recurs two levels up.

    Or germ may be variable indices D, for the complex of forms with
    logarithmic poles on the hyperplanes x_i == 0, i in D.  Omega^1(log D)
    is free on dx_i / x_i (i in D) and dx_j (j not in D), which contraction
    sends to the divided components c_i = v_i / x_i (exact, or
    NotLogarithmic) and c_j = v_j: the complex is the Koszul complex of c.
    If O / (c) has finite length, c is a system of parameters of the
    Cohen-Macaulay local ring O, so a regular sequence, the complex is
    exact but at degree 0, and chi = dim O / (c) (Serre).  That colength is
    the stabilized truncated_quotient_dim(c, N), which by Nakayama is local.
    """
    n = v.nvars
    if isinstance(germ, Poly):
        f = germ
        if f.nvars != n:
            raise InvalidInput("polynomial rings differ")
        if f.is_zero():
            raise InvalidInput("the zero polynomial defines no hypersurface")
        if _divide(v.apply(f), f) is None:
            raise NotInvariant(
                "vector field is not tangent to the hypersurface")
        buffer = 1 + max(1, f.degree(), *(c.degree() for c in v.components))
        level = max(8 if n <= 2 else 5, buffer + 2)
        if level > _MAX_TRUNC:
            raise TruncationNotStabilized(
                "the input degrees need truncation level %d, past the "
                "oracle's limit %d" % (level, _MAX_TRUNC))
        cx = _Complex(_integer_terms(v.components), _integer_terms([f])[0],
                      check=n <= 2)

        def euler(level):
            value = _chi_at(cx, level, level - buffer)
            return value, value == _chi_at(cx, level + 2, level + 2 - buffer)
    else:
        divisor = _check_divisor(germ, n)
        cs = []
        for i in range(n):
            if i in divisor:
                h = _divide(v.components[i], Poly.var(n, i))
                if h is None:
                    raise NotLogarithmic(
                        "component %d does not vanish on its hyperplane" % i)
                cs.append(h)
            else:
                cs.append(v.components[i])
        level = 1

        def euler(level):
            return truncated_quotient_dim(cs, level)

    while level <= _MAX_TRUNC:
        value, stabilized = euler(level)
        if stabilized:
            return value
        level *= 2
    raise TruncationNotStabilized(
        "no stable Euler characteristic up to truncation %d" % _MAX_TRUNC)
