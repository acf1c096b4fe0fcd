"""Truncated characteristic-class arithmetic on projective space.

Everything lives in Q[h]/(h^{n+1}) with h the hyperplane class, so a class
is a TruncSeries of order n+1 in h and the integral over the ambient space
is reading off the top coefficient.  The module also knows the closed-form
right-hand sides of the global index identities, keyed by name.
"""

from math import prod

from .errors import UnsupportedIdentity
from .series import TruncSeries

def pn_chern_integral(n, numerator_degrees, denominator_degrees=()):
    """Degree of the h^n part of prod(1+a_i h) / prod(1+b_j h) on P^n."""

    def roots_product(roots):
        out = TruncSeries.const(1, n + 1)
        for r in roots:
            out = out * TruncSeries(n + 1, (1, r))
        return out

    top = (roots_product(numerator_degrees)
           * roots_product(denominator_degrees).inverse()).coeffs[n]
    return int(top) if top.denominator == 1 else top


def _require(cond, kind, detail):
    if not cond:
        raise UnsupportedIdentity("%s: %s" % (kind, detail))


class IdentitySpec:
    """Parameter bundle for one named global identity.

    d is the foliation degree, m a hypersurface (curve) degree, degrees the
    multidegree of a complete intersection, divisor_degrees the component
    degrees of a normal crossing divisor.  Each kind checks exactly the
    parameters it consumes.
    """

    __slots__ = ("kind", "n", "d", "m", "degrees", "divisor_degrees")

    def __init__(self, kind, n=None, d=None, m=None, degrees=None,
                 divisor_degrees=None):
        _require(kind in _RHS, kind, "unknown identity")
        self.kind = kind
        self.n = n
        self.d = d
        self.m = m
        self.degrees = None if degrees is None else tuple(degrees)
        self.divisor_degrees = (None if divisor_degrees is None
                                else tuple(divisor_degrees))
        need_d = kind not in ("cs_total",)
        if need_d:
            _require(d is not None and d >= 0, kind, "needs degree d >= 0")
        if kind in ("brunella", "cs_total", "var_total"):
            _require(m is not None and m >= 1, kind, "needs curve degree m >= 1")
        if kind in ("milnor_total", "pfaff_degree", "log_bb"):
            _require(n is not None and n >= 2, kind, "needs ambient dimension n >= 2")
        if kind == "pfaff_degree":
            _require(self.degrees and all(di >= 1 for di in self.degrees),
                     kind, "needs positive multidegrees")
            _require(len(self.degrees) <= self.n - 1, kind,
                     "codimension exceeds n-1")
        if kind == "log_bb":
            _require(self.divisor_degrees is not None
                     and all(mi >= 1 for mi in self.divisor_degrees),
                     kind, "needs divisor component degrees")

    def __repr__(self):
        fields = []
        for name in self.__slots__[1:]:
            value = getattr(self, name)
            if value is not None:
                fields.append("%s=%r" % (name, value))
        return "IdentitySpec(%r, %s)" % (self.kind, ", ".join(fields))


# The closed-form right-hand side of each identity kind.
_RHS = {
    "brunella": lambda s: (s.d + 2) * s.m - s.m * s.m,
    "cs_total": lambda s: s.m * s.m,
    "var_total": lambda s: (s.d + 2) * s.m,
    "bb_total": lambda s: (s.d + 2) ** 2,
    # c_n of the virtual bundle TP^n - TF, a geometric sum in d
    "milnor_total": lambda s: pn_chern_integral(
        s.n, (1,) * (s.n + 1), (1 - s.d,)),
    "pfaff_degree": lambda s: ((s.d + len(s.degrees) + 1 - sum(s.degrees))
                               * prod(s.degrees)),
    "log_bb": lambda s: pn_chern_integral(
        s.n, (1,) * (s.n + 1), s.divisor_degrees + (1 - s.d,)),
}


def identity_rhs(spec):
    """Closed-form right-hand side of the named identity."""
    return _RHS[spec.kind](spec)
