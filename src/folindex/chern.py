"""Truncated characteristic-class arithmetic on projective space.

Everything lives in Q[h]/(h^{n+1}) with h the hyperplane class, so a class
is a TruncSeries of order n+1 in h and the integral over the ambient space
is reading off the top coefficient.  The module also knows the closed-form
right-hand sides of the global index identities, keyed by name: each a
plain function of n, d, the curve degrees and the number of divisor
hyperplanes.
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


# The closed-form right-hand side of each identity kind, from the ambient
# dimension n, the foliation degree d, the curve degrees and the number of
# divisor hyperplanes.
_RHS = {
    "brunella": lambda n, d, ms, k: (d + 2) * ms[0] - ms[0] * ms[0],
    "cs_total": lambda n, d, ms, k: ms[0] * ms[0],
    "var_total": lambda n, d, ms, k: (d + 2) * ms[0],
    # the integral of c_1^n of TP^n - TF
    "bb_total": lambda n, d, ms, k: (n + d) ** n,
    # c_n of the virtual bundle TP^n - TF, a geometric sum in d
    "milnor_total": lambda n, d, ms, k: pn_chern_integral(
        n, (1,) * (n + 1), (1 - d,)),
    "pfaff_degree": lambda n, d, ms, k: (d + len(ms) + 1 - sum(ms)) * prod(ms),
    "log_bb": lambda n, d, ms, k: pn_chern_integral(
        n, (1,) * (n + 1), (1,) * k + (1 - d,)),
}


def identity_rhs(kind, n, d, degrees=(), divisors=0):
    """Closed-form right-hand side of the named identity on P^n for a
    foliation of degree d, curves of the given degrees and a divisor of
    that many hyperplanes.  The caller has checked the data the kind
    reads; UnsupportedIdentity for an unknown kind."""
    if kind not in _RHS:
        raise UnsupportedIdentity(kind)
    return _RHS[kind](n, d, degrees, divisors)
