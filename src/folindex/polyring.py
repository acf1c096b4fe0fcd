"""Sparse multivariate polynomials over the rationals and the exterior
algebra of polynomial differential forms and vector fields.

Every coefficient is a `fractions.Fraction`; nothing here ever rounds.
All values are immutable after construction and safe to share.

A product of two polynomials puts each factor over the least common
denominator of its coefficients, multiplies and adds the integer numerators
term by term, and builds one Fraction per term of the result (numerator
over the product of the two denominators), so no term pair pays for a
Fraction gcd.  A translation p(x + q) is an integer Taylor shift in the
same way: one Fraction per term of the result.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import add

from .errors import InvalidInput

__all__ = [
    "Poly",
    "VectorField",
    "DiffForm",
    "PolyMatrix",
    "translate_to_origin",
    "translate_field",
    "contract",
    "wedge",
    "dual_form",
    "char_poly_coeffs",
    "jacobian",
    "homogenize",
    "set_coordinate_one",
]


def _rat(c):
    if isinstance(c, Fraction):
        return c
    # a bool is an int to Python, but no coefficient
    if type(c) is int:
        return Fraction(c)
    raise TypeError("rational coefficient expected, got %r" % (c,))


def _over_common_denominator(terms):
    """(d, [(exponent, integer numerator)]) with terms == numerator / d
    term by term, for the least common denominator d of the coefficients."""
    d = lcm(*(c.denominator for c in terms.values()))
    return d, [(e, c.numerator * (d // c.denominator))
               for e, c in terms.items()]


def _check_index(i, nvars):
    if not (type(i) is int and 0 <= i < nvars):
        raise InvalidInput("%r is not a variable index below %d" % (i, nvars))


class Poly:
    """Polynomial in ``nvars`` variables, stored as {exponent tuple: coefficient}.

    Zero coefficients are never stored; exponent tuples always have length
    ``nvars``.  Terms iterate in plain lexicographic key order, which fixes a
    canonical form for printing and hashing.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        if not (type(nvars) is int and nvars >= 0):
            raise InvalidInput("a ring has a nonnegative number of variables, "
                               "got %r" % (nvars,))
        clean = {}
        if terms:
            for exp, c in terms.items():
                if len(exp) != nvars or not all(type(a) is int and a >= 0
                                                for a in exp):
                    raise InvalidInput("exponent %r is not a monomial in %d "
                                       "variables" % (exp, nvars))
                c = _rat(c)
                if c:
                    clean[tuple(exp)] = c
        self.nvars = nvars
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: _rat(c)})

    @classmethod
    def var(cls, nvars, i):
        _check_index(i, nvars)
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exp: Fraction(1)})

    @classmethod
    def variables(cls, nvars):
        return tuple(cls.var(nvars, i) for i in range(nvars))

    @classmethod
    def monomial(cls, exp, c=1):
        return cls(len(exp), {tuple(exp): _rat(c)})

    # -- predicates / views ---------------------------------------------

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_part(self, k):
        return Poly(self.nvars, {e: c for e, c in self.terms.items() if sum(e) == k})

    def sorted_terms(self):
        return sorted(self.terms.items())

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return self._raw(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self.nvars, {e: -c for e, c in self.terms.items()})

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
        if isinstance(other, (int, Fraction)):
            c = _rat(other)
            if not c:
                return Poly.zero(self.nvars)
            return self._raw(self.nvars, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        if other.nvars != self.nvars:
            raise InvalidInput("polynomial rings differ")
        dp, P = _over_common_denominator(self.terms)
        dq, Q = _over_common_denominator(other.terms)
        acc = {}
        for e1, c1 in P:
            for e2, c2 in Q:
                e = tuple(map(add, e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        den = dp * dq
        return self._raw(self.nvars, {e: Fraction(c, den)
                                      for e, c in acc.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _rat(other)
            if not c:
                raise InvalidInput("division of a polynomial by zero")
            return self * (Fraction(1) / c)
        return NotImplemented

    def __pow__(self, k):
        if not (type(k) is int and k >= 0):
            raise InvalidInput("exponent must be a nonnegative integer, got %r"
                               % (k,))
        result = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise InvalidInput("polynomial rings differ")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.nvars, other)
        return NotImplemented

    @classmethod
    def _raw(cls, nvars, terms):
        # internal: terms already clean (no zeros, right arity)
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    # -- calculus / substitution ----------------------------------------

    def diff(self, i):
        _check_index(i, self.nvars)
        # distinct exponents have distinct derivatives: no two terms meet
        return self._raw(self.nvars, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
            for e, c in self.terms.items() if e[i]})

    def __call__(self, *point):
        if len(point) == 1 and isinstance(point[0], (tuple, list)):
            point = point[0]
        return self.subst(point)

    def subst(self, values):
        """Substitute values[i] for variable i.  The values share one ring
        whose elements add, multiply and scale by a rational (the rationals,
        one polynomial ring or truncated series), and the result lies in it;
        a series result has the least order of the values.  InvalidInput for
        a wrong count or for values that share no such ring."""
        values = tuple(values)
        if len(values) != self.nvars:
            raise InvalidInput("%d values for %d variables"
                               % (len(values), self.nvars))
        try:
            zero = sum((0 * q for q in values), Fraction(0))
        except TypeError:
            zero = None
        if zero is None or isinstance(zero, (float, complex)):
            raise InvalidInput("the values %r share no exact ring" % (values,))
        powers = [[zero + 1] for _ in values]   # powers[i][k] = values[i]^k
        total = zero
        for e, c in self.terms.items():
            piece = c
            for i, k in enumerate(e):
                if k:
                    row = powers[i]
                    while len(row) <= k:
                        row.append(row[-1] * values[i])
                    piece = row[k] * piece
            total = total + piece
        return total

    # -- equality / display ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def format(self, names=None):
        if names is None:
            names = default_names(self.nvars)
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append("%s^%d" % (name, k))
            if not factors:
                parts.append(str(c))
                continue
            body = "*".join(factors)
            if c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append("%s*%s" % (c, body))
        out = parts[0]
        for part in parts[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out

    def __repr__(self):
        return "Poly(%s)" % self.format()


def default_names(nvars):
    if nvars <= 3:
        return ("x", "y", "z")[:nvars]
    return tuple("x%d" % (i + 1) for i in range(nvars))


# ---------------------------------------------------------------------------
# vector fields, matrices


class VectorField:
    """A polynomial vector field: one component per variable."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components or any(p.nvars != len(components)
                                 for p in components):
            raise InvalidInput(
                "a vector field needs one component per variable")
        self.components = components

    @property
    def nvars(self):
        return len(self.components)

    def apply(self, f):
        """Directional derivative: sum v_i * df/dx_i."""
        if f.nvars != self.nvars:
            raise InvalidInput("polynomial rings differ")
        total = Poly.zero(self.nvars)
        for i, vi in enumerate(self.components):
            total = total + vi * f.diff(i)
        return total

    def jacobian(self):
        return PolyMatrix([[vi.diff(j) for j in range(self.nvars)]
                           for vi in self.components])

    def __eq__(self, other):
        return isinstance(other, VectorField) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return "VectorField(%s)" % (", ".join(p.format() for p in self.components))


class PolyMatrix:
    """A rectangular matrix of polynomials in a common ring."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not (rows and rows[0]
                and all(len(r) == len(rows[0]) for r in rows)):
            raise InvalidInput("a matrix needs rows of one positive length")
        n = rows[0][0].nvars
        if not all(p.nvars == n for r in rows for p in r):
            raise InvalidInput("matrix entries live in different rings")
        self.rows = rows

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]))

    @property
    def nvars(self):
        return self.rows[0][0].nvars

    def submatrix(self, row_ids, col_ids):
        return PolyMatrix([[self.rows[i][j] for j in col_ids] for i in row_ids])

    def det(self):
        """Determinant by cofactor expansion (matrices here are tiny)."""
        nr, nc = self.shape
        if nr != nc:
            raise InvalidInput("determinant of a %d x %d matrix" % (nr, nc))
        if nr == 1:
            return self.rows[0][0]
        total = Poly.zero(self.nvars)
        cols = list(range(nc))
        for j in range(nc):
            minor = PolyMatrix([[self.rows[i][c] for c in cols if c != j]
                                for i in range(1, nr)])
            piece = self.rows[0][j] * minor.det()
            total = total + (piece if j % 2 == 0 else -piece)
        return total

    def __repr__(self):
        return "PolyMatrix(%d x %d)" % self.shape


# ---------------------------------------------------------------------------
# differential forms


class DiffForm:
    """Polynomial exterior form of pure degree q.

    coeffs maps strictly increasing index tuples (i_1 < ... < i_q) to their
    Poly coefficients; a 0-form is the single coefficient at the empty tuple.
    """

    __slots__ = ("nvars", "degree", "coeffs")

    def __init__(self, nvars, degree, coeffs=None):
        if not (type(nvars) is int and type(degree) is int
                and 0 <= degree <= nvars):
            raise InvalidInput("no %r-forms in %r variables"
                               % (degree, nvars))
        clean = {}
        if coeffs:
            for idx, p in coeffs.items():
                idx = tuple(idx)
                if (len(idx) != degree
                        or not all(type(i) is int and 0 <= i < nvars
                                   for i in idx)
                        or any(a >= b for a, b in zip(idx, idx[1:]))):
                    raise InvalidInput(
                        "%r is not a strictly increasing tuple of %d "
                        "variable indices" % (idx, degree))
                if not (isinstance(p, Poly) and p.nvars == nvars):
                    raise InvalidInput("a form's coefficients are "
                                       "polynomials in its ring")
                if not p.is_zero():
                    clean[idx] = p
        self.nvars = nvars
        self.degree = degree
        self.coeffs = clean

    @classmethod
    def from_poly(cls, p):
        return cls(p.nvars, 0, {(): p})

    @classmethod
    def dx(cls, nvars, i):
        return cls(nvars, 1, {(i,): Poly.const(nvars, 1)})

    @classmethod
    def volume(cls, nvars):
        return cls(nvars, nvars, {tuple(range(nvars)): Poly.const(nvars, 1)})

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, idx):
        return self.coeffs.get(tuple(idx), Poly.zero(self.nvars))

    def __add__(self, other):
        if not (isinstance(other, DiffForm) and (other.nvars, other.degree)
                == (self.nvars, self.degree)):
            raise InvalidInput("only forms of one degree in one ring add")
        coeffs = dict(self.coeffs)
        for idx, p in other.coeffs.items():
            coeffs[idx] = coeffs.get(idx, Poly.zero(self.nvars)) + p
        return DiffForm(self.nvars, self.degree, coeffs)

    def __neg__(self):
        return DiffForm(self.nvars, self.degree,
                        {idx: -p for idx, p in self.coeffs.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            scalar = Poly.const(self.nvars, scalar)
        if not isinstance(scalar, Poly):
            raise InvalidInput("a form scales by a polynomial, not %r"
                               % (scalar,))
        return DiffForm(self.nvars, self.degree,
                        {idx: p * scalar for idx, p in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, DiffForm)
                and (self.nvars, self.degree) == (other.nvars, other.degree)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.nvars, self.degree, frozenset(self.coeffs.items())))

    def format(self, names=None):
        if names is None:
            names = default_names(self.nvars)
        if not self.coeffs:
            return "0"
        parts = []
        for idx in sorted(self.coeffs):
            body = " ^ ".join("d%s" % names[i] for i in idx)
            coef = self.coeffs[idx].format(names)
            if not idx:
                parts.append(coef)
            elif coef == "1":
                parts.append(body)
            else:
                parts.append("(%s) %s" % (coef, body))
        return " + ".join(parts)

    def __repr__(self):
        return "DiffForm(%s)" % self.format()


# ---------------------------------------------------------------------------
# free functions used by the index and residue layers


def _check_point(q, n):
    """q as a tuple; InvalidInput unless it is n ints or Fractions."""
    q = _as_tuple(q, "a point of %d rationals" % n)
    if len(q) != n or not all(type(c) is int or isinstance(c, Fraction)
                              for c in q):
        raise InvalidInput("the point %r is not %d rationals" % (q, n))
    return q


def _as_tuple(items, what):
    """items as a tuple; InvalidInput naming what they should be when they
    are not a collection."""
    try:
        return tuple(items)
    except TypeError:
        raise InvalidInput("%r is not %s" % (items, what)) from None


def _check_divisor(divisor, n):
    """The sorted distinct entries of a coordinate divisor; InvalidInput
    unless it is a collection of int indices of the n coordinates."""
    entries = _as_tuple(divisor, "a divisor: a set of variable indices")
    bad = [i for i in entries if type(i) is not int or not 0 <= i < n]
    if bad:
        raise InvalidInput("divisor entries %r are not variable indices "
                           "below %d" % (bad, n))
    return tuple(sorted(set(entries)))


def translate_to_origin(p, q):
    """p(x + q): the germ of p at the point q, presented at the origin.

    An integer Taylor shift (von zur Gathen-Gerhard 1997): with p == P / d
    and q == a / b over common denominators, x_i + q_i == (b x_i + a_i) / b,
    so for the top degree D of p

        p(x + q) == sum_e P_e b^(D - |e|) prod_i (b x_i + a_i)^(e_i) / (d b^D)

    and each factor expands by the binomial theorem.  The sum runs over
    integers, and each term of the result is one Fraction."""
    q = _check_point(q, p.nvars)
    if not (p.terms and any(q)):
        return p
    d, P = _over_common_denominator(p.terms)
    b = lcm(*(c.denominator for c in q))
    a = [c.numerator * (b // c.denominator) for c in q]
    top = p.degree()
    bpow = [1]
    for _ in range(top):
        bpow.append(bpow[-1] * b)
    # rows[i, k]: the pairs (j, C(k, j) a_i^(k - j) b^j) of (b x_i + a_i)^k
    rows = {}
    acc = {}
    for e, c in P:
        parts = [((), c * bpow[top - sum(e)])]
        for i, k in enumerate(e):
            row = rows.get((i, k))
            if row is None:
                row = rows[i, k] = [(j, comb(k, j) * a[i] ** (k - j) * bpow[j])
                                    for j in range(k + 1)
                                    if a[i] or j == k]
            parts = [(f + (j,), u * r) for f, u in parts for j, r in row]
        for f, u in parts:
            acc[f] = acc.get(f, 0) + u
    den = d * bpow[top]
    return Poly._raw(p.nvars, {f: Fraction(u, den)
                               for f, u in acc.items() if u})


def translate_field(v, q):
    """The field v at the point q, presented at the origin."""
    return VectorField(translate_to_origin(c, q) for c in v.components)


def contract(omega, v):
    """Interior product i_v(omega).

    Sign convention: i_v(dx_{i1} ^ ... ^ dx_{iq}) =
    sum_j (-1)^{j-1} v_{i_j} dx_{i1} ^ ... (j-th factor removed) ... ^ dx_{iq}.
    """
    if not (isinstance(omega, DiffForm) and isinstance(v, VectorField)
            and omega.nvars == v.nvars and omega.degree >= 1):
        raise InvalidInput("a field contracts a form of positive degree in "
                           "its own ring")
    n = omega.nvars
    out = {}
    for idx, p in omega.coeffs.items():
        for pos, i in enumerate(idx):
            coeff = p * v.components[i]
            if pos % 2:
                coeff = -coeff
            rest = idx[:pos] + idx[pos + 1:]
            out[rest] = out.get(rest, Poly.zero(n)) + coeff
    return DiffForm(n, omega.degree - 1, out)


def wedge(a, b):
    """Exterior product a ^ b."""
    if not (isinstance(a, DiffForm) and isinstance(b, DiffForm)
            and a.nvars == b.nvars):
        raise InvalidInput("only forms in one ring wedge")
    n = a.nvars
    q = a.degree + b.degree
    if q > n:
        raise InvalidInput("wedge degree exceeds the number of variables")
    out = {}
    for ia, pa in a.coeffs.items():
        seta = set(ia)
        for ib, pb in b.coeffs.items():
            if seta & set(ib):
                continue
            # sign of the shuffle sorting ia + ib (each side already sorted)
            inversions = sum(1 for x in ia for y in ib if x > y)
            merged = tuple(sorted(ia + ib))
            coeff = pa * pb
            if inversions % 2:
                coeff = -coeff
            out[merged] = out.get(merged, Poly.zero(n)) + coeff
    return DiffForm(n, q, out)


def dual_form(v):
    """omega_v := i_v(dx_1 ^ ... ^ dx_n), an (n-1)-form.

    For n = 2 and v = (v1, v2) this is v1 dy - v2 dx; the classical plane
    notation omega = P dx + Q dy therefore reads P = -v2, Q = v1.
    """
    return contract(DiffForm.volume(v.nvars), v)


def field_from_dual(omega):
    """Inverse of dual_form: recover v with omega = i_v(dx_1 ^ ... ^ dx_n)."""
    if not isinstance(omega, DiffForm):
        raise InvalidInput("a dual form is a DiffForm, not %r" % (omega,))
    n = omega.nvars
    if omega.degree != n - 1:
        raise InvalidInput("a dual form has degree %d" % (n - 1))
    comps = []
    full = tuple(range(n))
    for j in range(n):
        rest = full[:j] + full[j + 1:]
        c = omega.coefficient(rest)
        comps.append(-c if j % 2 else c)
    return VectorField(comps)


def char_poly_coeffs(m):
    """Coefficients (c_1, ..., c_n) with det(I + t*M) = 1 + c_1 t + ... + c_n t^n.

    c_k is the sum of the principal k x k minors: division-free and valid
    over any commutative ring.
    """
    if not isinstance(m, PolyMatrix) or m.shape[0] != m.shape[1]:
        raise InvalidInput("characteristic coefficients need a square "
                           "matrix")
    nr = m.shape[0]
    from itertools import combinations

    out = []
    for k in range(1, nr + 1):
        total = Poly.zero(m.nvars)
        for subset in combinations(range(nr), k):
            total = total + m.submatrix(subset, subset).det()
        out.append(total)
    return out


def jacobian(v):
    """Jacobian matrix of a vector field: entry (i, j) = d v_i / d x_j."""
    return v.jacobian()


# ---------------------------------------------------------------------------
# homogeneous-coordinate plumbing


def homogenize(p, degree):
    """Insert a homogenizing variable first, so that every term of the
    result has total degree ``degree``, an int."""
    if type(degree) is not int or degree < p.degree():
        raise InvalidInput("cannot homogenize degree %d to degree %r"
                           % (p.degree(), degree))
    return Poly(p.nvars + 1, {(degree - sum(e),) + e: c
                              for e, c in p.terms.items()})


def set_coordinate_one(p, at):
    """Evaluate variable ``at`` to 1, dropping it from the ring."""
    _check_index(at, p.nvars)
    terms = {}
    for e, c in p.terms.items():
        exp = e[:at] + e[at + 1:]
        terms[exp] = terms.get(exp, 0) + c
    return Poly(p.nvars - 1, terms)
