"""Brute-force truncation oracle for local dimensions and homological
Euler characteristics.

Everything here works in the finite window of monomials of total degree
below a truncation level N and reduces questions to exact integer ranks.
It shares no code with the standard-basis machinery, which is the point:
the two routes confirm each other.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, lcm

from .errors import NotInvariant, NotLogarithmic, RouteConflict, TruncationNotStabilized
from .polyring import DiffForm, Poly, VectorField, contract, exterior_derivative, wedge

__all__ = [
    "integer_rank",
    "truncated_quotient_dim",
    "contraction_complex_euler",
]


@lru_cache(maxsize=None)
def _monomials_below(n, N):
    return tuple(e for e in itertools.product(range(N), repeat=n) if sum(e) < N)


def _primitive(row):
    """Divide a sparse integer row by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        return {k: a // g for k, a in row.items()}
    return row


def _intify(row):
    """Primitive integer multiple of a sparse rational row {column: c}."""
    den = lcm(*(c.denominator for c in row.values()))
    return _primitive({k: c.numerator * (den // c.denominator)
                       for k, c in row.items()})


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


def integer_rank(rows):
    """Rank of a list of integer rows, by sparse fraction-free elimination.

    A row is a dense sequence or a sparse {column: int} dict.  Each row is
    reduced on its lowest column against the pivot row owning that column,
    by an integer combination that cancels the column exactly, and divided
    by its content after every step to hold coefficient growth down.  A row
    that does not reduce to zero becomes the pivot of its lowest column.
    The pivots have distinct lowest columns, so their count is the rank.
    """
    pivots = {}
    for r in rows:
        items = r.items() if isinstance(r, dict) else enumerate(r)
        row = {k: a for k, a in items if a}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            a, p = row[col], pivot[col]
            g = gcd(a, p)
            a, p = a // g, p // g
            out = {k: p * c for k, c in row.items()}
            for k, c in pivot.items():
                s = out.get(k, 0) - a * c
                if s:
                    out[k] = s
                else:
                    del out[k]
            row = _primitive(out)
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
    """
    gens = tuple(gens)
    assert gens
    n = gens[0].nvars

    def value(level):
        mons = _monomials_below(n, level)
        pos = {e: k for k, e in enumerate(mons)}
        rows = []
        for g in gens:
            if g.is_zero():
                continue
            for a in _monomials_below(n, level - min(map(sum, g.terms))):
                prod = g * Poly.monomial(a)
                rows.append(_intify({pos[e]: c for e, c in prod.terms.items()
                                     if sum(e) < level}))
        return len(mons) - integer_rank(rows)

    v = value(N)
    return v, v == value(N + 1)


# ---------------------------------------------------------------------------
# contraction complex


def _basis(n, N, j):
    order = []
    idx = {}
    for I in itertools.combinations(range(n), j):
        for e in _monomials_below(n, N):
            idx[(I, e)] = len(order)
            order.append((I, e))
    return order, idx


def _form_to_row(form, idx):
    """Sparse integer row of a form whose degree is below the level."""
    return _intify({idx[(I, e)]: c
                    for I, p in form.coeffs.items() for e, c in p.terms.items()})


def _zero_low_columns(rows, low_cols):
    return [{k: a for k, a in r.items() if k not in low_cols} for r in rows]


def _form_degree(form):
    return max((p.degree() for p in form.coeffs.values()), default=-1)


def _chi_at(v, f, N, top, window, check, images):
    """Euler characteristic of the truncated contraction complex.

    Every dimension below is an exact integer rank, found by sparse
    fraction-free elimination (integer_rank) on rows built straight from
    polynomial terms.  images caches the contraction of each basis form
    x^e dx_I, keyed by (I, e); it does not depend on N, so the caller
    shares one cache between truncation levels.

    Two precautions make the count honest.

    First, every generator row is kept whole or not at all.  Clipping a
    product at the truncation boundary leaves a head that is not a module
    element; a clipped tail of one relation can cancel the high part of an
    honest relation and the combination fakes a low-degree ideal member,
    which then poisons every rank below.  So a row whose image or product
    reaches degree N is dropped outright.  Dropping is safe for realization:
    deg(f*h) = deg f + deg h exactly, so any relation of degree below N only
    needs multiplier rows that survive the filter.

    Second, the low-order window.  A raw kernel-minus-image count in the
    truncated spaces is stably wrong: monomials near the truncation boundary
    are killed by truncation rather than by the differential and masquerade
    as homology at every N.  So homology is only counted on classes meeting
    the window U of coefficient degree below window = N - (1 + max input
    degree): the differential and the relation generators cannot push the
    window past the truncation boundary, hence within U nothing is lost.
    With

        K_j = preimage of S_{j-1} under phi_j        (cycles upstairs)
        B_j = phi_{j+1}(W_{j+1}) + S_j               (boundaries upstairs)

    the window count of homology at j is dim(K_j n U_j) - dim(B_j n U_j);
    the shared dim(S_j n U_j) cancels in the difference.  Both terms reduce
    to ranks:

        dim(K_j n U_j) = |U_j| - (rank(phi_j(U_j) stacked on S_{j-1})
                                   - rank(S_{j-1}))
        dim(B_j n U_j) = rank(B_j rows) - rank(B_j rows with the U columns
                                                zeroed out)

    Three self-checks run on the way, and a failure raises RouteConflict
    (so they hold under python -O too): the differential keeps the window
    below the truncation boundary, and, when check is set, contraction maps
    the relation span into itself and contracting twice gives zero.
    """
    n = v.nvars

    bases = {}
    idxs = {}
    for j in range(top + 1):
        bases[j], idxs[j] = _basis(n, N, j)

    def phi_image(j, k):
        key = bases[j][k]
        image = images.get(key)
        if image is None:
            I, e = key
            image = images[key] = contract(
                DiffForm(n, j, {I: Poly.monomial(e)}), v)
        return image

    phi_keep = {}
    for j in range(1, top + 1):
        kept = {}
        for k in range(len(bases[j])):
            image = phi_image(j, k)
            if _form_degree(image) < N:
                kept[k] = _form_to_row(image, idxs[j - 1])
        phi_keep[j] = kept

    def s_forms(j):
        forms = []
        if f is None:
            return forms
        for I in itertools.combinations(range(n), j):
            for a in _monomials_below(n, N - f.degree()):
                forms.append(DiffForm(n, j, {I: f * Poly.monomial(a)}))
        if j >= 1:
            df = exterior_derivative(f)
            for J in itertools.combinations(range(n), j - 1):
                for a in _monomials_below(n, N):
                    form = wedge(df, DiffForm(n, j - 1, {J: Poly.monomial(a)}))
                    if form.is_zero() or _form_degree(form) >= N:
                        continue
                    forms.append(form)
        return forms

    forms = {j: s_forms(j) for j in range(top + 1)}
    s_int = {j: [_form_to_row(form, idxs[j]) for form in forms[j]]
             for j in range(top + 1)}
    rank_s = {j: integer_rank(s_int[j]) for j in range(top + 1)}
    u_positions = {
        j: [k for k, (I, e) in enumerate(bases[j]) if sum(e) < window]
        for j in range(top + 1)
    }
    for j in range(1, top + 1):
        if not all(k in phi_keep[j] for k in u_positions[j]):
            raise RouteConflict(
                "window element pushed past the truncation boundary")

    if check:
        for j in range(1, top + 1):
            # contraction maps the relation span into the relation span one
            # step down; verified exactly on every honest generator whose
            # image stays below the level
            pushed = []
            for form in forms[j]:
                image = contract(form, v)
                if image.is_zero() or _form_degree(image) >= N:
                    continue
                pushed.append(_form_to_row(image, idxs[j - 1]))
            if integer_rank(s_int[j - 1] + pushed) != rank_s[j - 1]:
                raise RouteConflict(
                    "contraction leaves the relation span at degree %d" % j)
        for j in range(2, top + 1):
            # contracting twice kills every basis form identically
            for k in range(len(bases[j])):
                if not contract(phi_image(j, k), v).is_zero():
                    raise RouteConflict(
                        "contracting %r twice is not zero" % (bases[j][k],))

    chi = 0
    for j in range(top + 1):
        nu = len(u_positions[j])
        if j == 0:
            dim_ku = nu
        else:
            stacked = [phi_keep[j][k] for k in u_positions[j]] + s_int[j - 1]
            dim_ku = nu - (integer_rank(stacked) - rank_s[j - 1])
        b_rows = list(s_int[j])
        if j < top:
            b_rows = list(phi_keep[j + 1].values()) + b_rows
        rb = integer_rank(b_rows)
        rb_high = integer_rank(_zero_low_columns(b_rows, set(u_positions[j])))
        dim_bu = rb - rb_high
        h = dim_ku - dim_bu
        chi += h if j % 2 == 0 else -h
    return chi


def contraction_complex_euler(v, germ, N=None, max_trunc=32):
    """Euler characteristic of the contraction complex of v, by truncation.

    germ may be a polynomial f (complex of differential forms on the
    hypersurface f == 0, length one less than the ambient dimension) or an
    iterable of variable indices D (complex of forms with logarithmic poles
    on the union of coordinate hyperplanes x_i == 0, i in D; the modified
    contraction coefficients v_i / x_i must divide exactly).

    Returns (value, stabilized), where stabilized means the value recurs at
    truncation N + 2.  With N omitted, the level is raised automatically
    until stable, and TruncationNotStabilized is raised past max_trunc.
    """
    n = v.nvars
    if isinstance(germ, Poly):
        f = germ
        assert f.nvars == n and not f.is_zero()
        if _divide(v.apply(f), f) is None:
            raise NotInvariant(
                "vector field is not tangent to the hypersurface")
        cs = list(v.components)
        top = n - 1
        degs = [f.degree()] + [c.degree() for c in cs]
    else:
        divisor = sorted(set(germ))
        assert all(isinstance(i, int) and 0 <= i < n for i in divisor)
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
        f = None
        top = n
        degs = [c.degree() for c in v.components]
    buffer = 1 + max([d for d in degs if d >= 0] + [1])
    check = n <= 2

    v_mod = VectorField(tuple(cs))
    images = {}

    def chi(level):
        return _chi_at(v_mod, f, level, top, level - buffer, check, images)

    if N is not None:
        if N <= buffer:
            raise TruncationNotStabilized(
                "truncation level %d too small for the input degrees; it "
                "must exceed %d" % (N, buffer))
        value = chi(N)
        return value, value == chi(N + 2)

    level = max(8 if n <= 2 else 5, buffer + 2)
    while level <= max_trunc:
        value = chi(level)
        if value == chi(level + 2):
            return value, True
        level *= 2
    raise TruncationNotStabilized(
        "no stable Euler characteristic up to truncation %d" % max_trunc)
