"""Point residues of rational data at isolated zeros of a vector field.

The residue of h dx_1 ^ ... ^ dx_n / (v_1 ... v_n) at an isolated common
zero is computed through the transformation law: once every pure power
x_i^N lies in the component ideal, membership cofactors A with

    u_i * x_i^N == sum_j A[i][j] * v_j,     u_i a unit,

turn the residue into a coefficient extraction against the monomial
denominator (x_1^N, ..., x_n^N): the value is the coefficient of
x^(N-1, ..., N-1) in h * det(A) / (u_1 ... u_n), expanded in the box ring
C[x]/(x_1^N, ..., x_n^N): a Poly cut by _box, which drops every term with an
exponent reaching N.  The witness data (N, units, cofactor matrix) is
fingerprinted so runs can be compared.

The witnesses are only needed modulo m^T, T = (n+1)N - n + 1, where m is
the maximal ideal.  Suppose u_i x_i^N == sum_j A[i][j] v_j + R_i with every
R_i in m^T.  A monomial of degree T has some exponent of at least N (else
its degree is at most n(N-1) < T), so R_i == sum_k B[i][k] x_k^N with every
B[i][k] in m^(n(N-1)+1).  Then (U - B) x^N == A v for U = diag(u_i), and
the transformation law reads the residue as the coefficient of
x^(N-1, ..., N-1) in h * det(A) / det(U - B).  Every term of det(U - B)
other than u_1 ... u_n contains an entry of B, so det(U - B) and
u_1 ... u_n, and hence their inverses, agree below degree n(N-1) + 1; the
coefficient read has degree n(N-1), so the value is the one of the exact
witnesses.  The standard basis that yields the witnesses works modulo a
power of m that contains them: with corner degree c (m^c in the ideal) the
power bound N is at most c, so one basis cut at (n+1)c - n + 1 serves both
the power bound and the witnesses; only an explicit bound above c raises
the cut to T.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeMismatch, InvalidInput, RouteConflict
from .localalgebra import (
    MonomialOrder,
    membership_with_cofactors,
    monomial_power_bound,
    standard_basis,
)
from .polyring import Poly, PolyMatrix, char_poly_coeffs

__all__ = [
    "ResidueResult",
    "PhiSpec",
    "grothendieck_residue",
    "baum_bott_residue",
]


@dataclass(frozen=True)
class ResidueResult:
    value: Fraction
    bound: int
    certificate: str


def _box(p, N):
    """p in the box ring: its terms with every exponent below N."""
    return Poly._raw(p.nvars, {e: c for e, c in p.terms.items()
                               if max(e) < N})


def _box_inverse(u, N):
    """1/u in the box ring for u(0) == 1: the geometric series of the
    nilpotent w = 1 - u, summed until a power of w leaves the box."""
    if u.constant_term() != 1:
        raise RouteConflict("box inverse of a non-unit")
    w = _box(1 - u, N)
    inv = power = Poly.const(u.nvars, 1)
    while not power.is_zero():
        power = _box(power * w, N)
        inv = inv + power
    return inv


def _certificate(bound, units, rows):
    pieces = ["N=%d" % bound]
    pieces.extend("u%d=%s" % (i, u.format()) for i, u in enumerate(units))
    for i, row in enumerate(rows):
        pieces.append("A%d=%s" % (i, "|".join(q.format() for q in row)))
    return hashlib.sha256(";".join(pieces).encode()).hexdigest()


def grothendieck_residue(h, v, bound=None):
    """Residue of h over the components of v at an isolated zero at the
    origin; data at another point is moved there first (series.moved).

    bound overrides the computed pure-power exponent and must be a positive
    integer; NotMember surfaces if it is too small, NotZeroDimensional if
    the zero is not isolated.  The witnesses hold modulo
    m^((n+1)N - n + 1) (see the module docstring).
    """
    n = v.nvars
    if not (isinstance(h, Poly) and h.nvars == n):
        raise InvalidInput("the numerator must be a polynomial in the %d "
                           "variables of the field" % n)
    if bound is not None and not (type(bound) is int and bound >= 1):
        raise InvalidInput("the power bound must be a positive integer, "
                           "got %r" % (bound,))
    least = 1 if bound is None else bound

    def modulo(c):
        # the cut serves every power bound up to max(c, bound)
        return (n + 1) * max(c, least) - n + 1

    sb = standard_basis(v.components, MonomialOrder.local(n), modulo)
    N = monomial_power_bound(sb) if bound is None else bound
    rows = []
    units = []
    for i in range(n):
        wit = membership_with_cofactors(Poly.var(n, i) ** N, sb)
        rows.append(wit.cofactors)
        units.append(wit.unit)
    det = PolyMatrix(rows).det()
    u_prod = Poly.const(n, 1)
    for u in units:
        u_prod = _box(u_prod * _box(u, N), N)
    series = _box(h * det, N) * _box_inverse(u_prod, N)
    value = series.terms.get((N - 1,) * n, Fraction(0))
    return ResidueResult(value=value, bound=N,
                         certificate=_certificate(N, units, rows))


class PhiSpec:
    """A weighted-homogeneous symmetric polynomial in the symbols c_1..c_n.

    terms is a sequence of (coefficient, exponents) pairs; exponents[i] is
    the power of c_(i+1), and each term must have weighted degree n with
    c_(i+1) carrying weight i+1.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms):
        if not (type(n) is int and n >= 1):
            raise InvalidInput("phi needs a dimension n >= 1, got %r" % (n,))
        clean = []
        for coeff, exps in terms:
            if not (type(coeff) is int or isinstance(coeff, Fraction)):
                raise InvalidInput("phi coefficient %r is not rational"
                                   % (coeff,))
            exps = tuple(exps)
            if not all(type(e) is int for e in exps):
                raise InvalidInput("phi exponents %r are not integers"
                                   % (exps,))
            if len(exps) != n or any(e < 0 for e in exps):
                raise DegreeMismatch(
                    "term needs %d nonnegative exponents, got %r" % (n, exps))
            weight = sum((i + 1) * e for i, e in enumerate(exps))
            if weight != n:
                raise DegreeMismatch(
                    "term weight %d differs from the dimension %d"
                    % (weight, n))
            if coeff:
                clean.append((Fraction(coeff), exps))
        self.n = n
        self.terms = tuple(clean)

    def apply(self, cs):
        """Evaluate at concrete polynomials cs = [c_1, ..., c_n]."""
        return sum((Poly.monomial(exps, coeff) for coeff, exps in self.terms),
                   Poly.zero(self.n)).subst(cs)

    def __repr__(self):
        body = " + ".join(
            "%s*%s" % (coeff, "*".join("c%d^%d" % (i + 1, e)
                                       for i, e in enumerate(exps) if e))
            for coeff, exps in self.terms) or "0"
        return "PhiSpec(%s)" % body


def baum_bott_residue(v, phi):
    """Residue of phi(c_1, ..., c_n) of the Jacobian over the components
    of v, the local contribution of an isolated singular point at the
    origin."""
    if not (isinstance(phi, PhiSpec) and phi.n == v.nvars):
        raise InvalidInput("phi must be a PhiSpec in the %d Chern classes of "
                           "the field" % v.nvars)
    cs = char_poly_coeffs(v.jacobian())
    return grothendieck_residue(phi.apply(cs), v)
