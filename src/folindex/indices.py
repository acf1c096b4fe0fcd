"""Local indices of vector fields and foliation germs at singular points.

Every operation returns an IndexReport carrying the value, the method that
produced it, and the outcome of whatever independent cross-checks were run.
A failed cross-check never passes silently: RouteConflict is raised with
the report attached.

Every function reads the germ of its data at the origin, and a branch
passes through the origin at t == 0.  Data given at another point is moved
there first, with series.moved or the translation helpers of polyring.

The GSV index along a curve is a difference of vanishing orders along it:
one loop reads them for the plane Saito variants and for the space
Jacobian minors alike, and one finisher reports the first route's value
with every other route checked against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    DegenerateDecomposition,
    DegenerateMinors,
    InvalidInput,
    NotInvariant,
    NotLogarithmic,
    NotZeroDimensional,
    RouteConflict,
    TruncationNotStabilized,
)
from .jetoracle import contraction_complex_euler
from .localalgebra import (
    INFINITE,
    MonomialOrder,
    at_corner,
    exact_divide,
    normal_form,
    order_along_curve,
    quotient_dim,
    standard_basis,
)
from .polyring import (
    DiffForm,
    Poly,
    PolyMatrix,
    VectorField,
    _as_tuple,
    _check_divisor,
    dual_form,
)
from .residues import grothendieck_residue
from .series import (
    BranchParam,
    InsufficientOrder,
    laurent_residue,
    poly_on_branch,
    pullback_one_form,
)

__all__ = [
    "IndexReport",
    "DecompositionTriple",
    "milnor_number",
    "tjurina_number",
    "ph_index",
    "tangency_cofactor",
    "homological_index",
    "saito_decomposition",
    "gsv_curve",
    "gsv_pfaff_curve",
    "cs_index",
    "var_index",
    "radial_index",
    "log_index",
]

@dataclass
class IndexReport:
    value: object
    method: str
    crosschecks: list = field(default_factory=list)


def _finish(value, method, crosschecks=()):
    report = IndexReport(value=value, method=method,
                         crosschecks=list(crosschecks))
    bad = [name for name, ok, _ in report.crosschecks if not ok]
    if bad:
        raise RouteConflict(
            "independent routes disagree (%s)" % ", ".join(bad), report=report)
    return report


def _agreed(method, routes):
    """Report the first route's value, with every other route checked
    against it; a route is (label, value, detail format)."""
    value = routes[0][1]
    return _finish(value, method, [(label, val == value, detail % val)
                                   for label, val, detail in routes[1:]])


def _vanishing_orders(pairs, curve, error):
    """(key, ord(a) - ord(g), ord(a)) for each pair (key, g, a), in order,
    whose g and then a have finite order along the curve; error if none."""
    out = []
    for key, g, a in pairs:
        ord_g = order_along_curve(g, curve)
        if ord_g is INFINITE:
            continue
        ord_a = order_along_curve(a, curve)
        if ord_a is not INFINITE:
            out.append((key, ord_a - ord_g, ord_a))
    if not out:
        raise error
    return out


def _plane(v, f, what):
    if v.nvars != 2 or f.nvars != 2:
        raise InvalidInput("%s needs a plane field and a plane curve" % what)


def _local_dim(gens, n, what):
    d = quotient_dim(gens, MonomialOrder.local(n))
    if d is INFINITE:
        raise NotZeroDimensional("%s is not isolated" % what)
    return d


# ---------------------------------------------------------------------------
# classical numbers


def milnor_number(f):
    """Dimension of the local ring modulo the partials of f."""
    n = f.nvars
    value = _local_dim([f.diff(i) for i in range(n)], n,
                       "critical point of the function")
    return _finish(value, "local-algebra")


def tjurina_number(f):
    """Dimension of the local ring modulo f and its partials."""
    n = f.nvars
    value = _local_dim([f] + [f.diff(i) for i in range(n)], n,
                       "singular point of the hypersurface")
    return _finish(value, "local-algebra")


def ph_index(v):
    """Index of an isolated zero of v in the ambient space: the dimension of
    the local ring modulo the components.  Cross-checked against the residue
    of the Jacobian determinant, which must agree exactly."""
    n = v.nvars
    value = _local_dim(v.components, n, "zero of the vector field")
    res = grothendieck_residue(v.jacobian().det(), v)
    checks = [("jacobian-residue", res.value == value,
               "residue %s at power bound %d" % (res.value, res.bound))]
    return _finish(value, "local-algebra", checks)


# ---------------------------------------------------------------------------
# tangency and the induced data on a hypersurface


def tangency_cofactor(v, f):
    """The polynomial h with v(f) == h * f; NotInvariant when there is none."""
    if v.nvars != f.nvars:
        raise InvalidInput("vector field and curve live in different rings")
    if f.is_zero():
        raise InvalidInput("the zero polynomial does not define a curve")
    h = exact_divide(v.apply(f), f)
    if h is None:
        raise NotInvariant("vector field is not tangent to the hypersurface")
    return h


def homological_index(v, f, oracle=False):
    """Euler characteristic of the contraction complex on the hypersurface,
    out of closed module-dimension formulas split by the parity of the
    hypersurface dimension.  With oracle=True the truncation oracle recomputes
    the characteristic independently and must agree."""
    value = _homological(v, f, tangency_cofactor(v, f))
    checks = []
    if oracle:
        chi = contraction_complex_euler(v, f)
        checks.append(("truncation-oracle", chi == value,
                       "oracle characteristic %s" % chi))
    return _finish(value, "module-dimension-formula", checks)


def _homological(v, f, h):
    """The module-dimension formula at the origin, for the cofactor h of
    v(f) == h * f."""
    n = f.nvars
    a = v.components
    jac = [f.diff(i) for i in range(n)]
    htop = _local_dim([f] + jac, n, "singular point of the hypersurface")
    if (n - 1) % 2 == 1:
        h0 = _local_dim((f,) + a, n, "zero of the field on the hypersurface")
        value = h0 - htop
    else:
        value = (_local_dim(a, n, "ambient zero of the field")
                 - _local_dim((h,) + a, n, "cofactor locus")
                 + htop)
    return value


# ---------------------------------------------------------------------------
# plane-curve decomposition and the indices built on it


@dataclass(frozen=True)
class DecompositionTriple:
    g: Poly
    xi: Poly
    eta: DiffForm
    variant: str


def _saito_variants(v, f, h):
    """Both decomposition variants, fy then fx, from the cofactor h of
    v(f) == h * f.  For omega_v == p dx + q dy, p f_y - q f_x == -v(f) ==
    -h f, so eta is -h dx when g is f_y and h dy when g is f_x.  Each
    variant's identity g * omega_v == xi * df + f * eta is verified
    exactly."""
    omega = dual_form(v)
    fx, fy = f.diff(0), f.diff(1)
    df = DiffForm(2, 1, {(0,): fx, (1,): fy})
    out = []
    for variant, g, xi, eta in (
            ("fy", fy, omega.coefficient((1,)), DiffForm(2, 1, {(0,): -h})),
            ("fx", fx, omega.coefficient((0,)), DiffForm(2, 1, {(1,): h}))):
        if g * omega != xi * df + f * eta:
            raise RouteConflict("decomposition identity broke")
        out.append(DecompositionTriple(g=g, xi=xi, eta=eta, variant=variant))
    return out


def saito_decomposition(v, f):
    """Decompose the dual form of v along the invariant curve f == 0:
    g * omega_v == xi * df + f * eta, for the first variant, fy then fx,
    whose g and xi have finite vanishing order along the curve;
    DegenerateDecomposition when neither has."""
    _plane(v, f, "saito_decomposition")
    return _plane_germ(v, f)[1][0][0]


def _plane_germ(v, f):
    """The tangency cofactor and the valid variants as (triple, order
    difference, ord(xi)), for gsv_curve, cs_index and var_index.  Both
    variants are built from the cofactor, the germ's one exact division."""
    h = tangency_cofactor(v, f)
    return h, _vanishing_orders(
        ((t, t.g, t.xi) for t in _saito_variants(v, f, h)), (f,),
        DegenerateDecomposition(
            "both decomposition variants vanish along the curve"))


def _branch_germ(v, f, branch, what):
    """_plane_germ of plane data v, f along a BranchParam branch."""
    _plane(v, f, what)
    if not isinstance(branch, BranchParam):
        raise InvalidInput("%s needs a BranchParam, got %r" % (what, branch))
    return _plane_germ(v, f)


def _gsv(v, f, h, valid):
    """gsv_curve on a germ of _plane_germ."""
    hom = _homological(v, f, h)
    return _agreed("vanishing-orders", [
        ("variant-" + t.variant, d, "order difference %s")
        for t, d, _ in valid] + [("homological", hom, "homological index %s")])


def _cs(f, valid, branch):
    """cs_index on a germ of _plane_germ, along a branch through the origin.

    ord_t(gamma) is read once, from the branch at order max(20, its
    order): an extendable series branch is lifted to 20 first, a capped one
    is read at its own order, and an exact one's polynomials as they are.
    The refusals of a constant branch and of one that misses the point come
    from that reading.

    The working order starts at 20, or at the order of a capped branch
    below 20, passes ord_t(gamma), and doubles up to a ceiling K computed
    before the loop.  Let omega = dim O/(f, xi) be the order of a variant's
    xi along the curve, taken at least 1.  gamma = beta(t^e) for a
    primitive parametrization beta of a branch phi of f, so
    ord_t(xi o gamma) = e I(xi, phi) <= e omega, since the intersection
    number of xi with f sums those with its branches; and e <= ord_t(gamma).
    laurent_residue resolves once the working order exceeds
    2 ord_t(xi o gamma), so K = 2 ord_t(gamma) omega + 1, the largest over
    the variants, suffices for an extendable branch and passes ord_t(gamma).
    A capped branch is known only to its own order, its ceiling.  An exact
    branch is checked on the curve once and exactly, a series branch at
    each working order.  TruncationNotStabilized is raised at the ceiling."""
    omega = max(1, max(w for _, _, w in valid))
    read = (branch.at_order(max(20, branch.order)) if branch.extendable
            else branch)
    if any(p.constant_term() for p in read.polys):
        raise NotInvariant("branch does not pass through the point")
    if all(p.is_zero() for p in read.polys):
        raise NotInvariant("branch is constant at the point")
    if branch.exact and not f.subst(read.polys).is_zero():
        raise NotInvariant("branch does not lie on the curve")
    ord_t = min(k for p in read.polys for (k,) in p.terms)
    ceiling = 2 * ord_t * omega + 1 if branch.extendable else branch.order
    order = 20 if branch.extendable else min(20, branch.order)
    while order <= ord_t:
        order = min(2 * order, ceiling)

    while True:
        comps = branch.at_order(order).comps
        if not branch.exact and not poly_on_branch(f, comps).is_zero():
            raise NotInvariant("branch does not lie on the curve")
        try:
            values = []
            for triple, _, _ in valid:
                num = pullback_one_form(triple.eta, comps)
                den = poly_on_branch(triple.xi, comps).truncate(num.order)
                values.append(("variant-" + triple.variant,
                               -laurent_residue(num, den), "residue %s"))
            break
        except InsufficientOrder:
            if order < ceiling:
                order = min(2 * order, ceiling)
                continue
            raise TruncationNotStabilized(
                "branch order %d cannot resolve the residue" % order)

    return _agreed("branch-residue", values)


def gsv_curve(v, f):
    """Index of v along the invariant plane curve f == 0, via vanishing
    orders of the decomposition data.  Every valid variant is computed and
    must agree, as must the homological route."""
    _plane(v, f, "gsv_curve")
    return _gsv(v, f, *_plane_germ(v, f))


def cs_index(v, f, branch):
    """Residue-type index of v along one parametrized branch of the invariant
    curve f == 0: minus the t-residue of the pulled-back eta over xi.

    The branch is a BranchParam that must lie on the curve and pass through
    the origin.  Its ord_t is read once, at order max(20, its order); an
    exact branch, given by polynomials, is checked exactly, a series branch
    to each working order.  The working orders are worked out from the
    germ: from 20, an extendable branch is re-lifted up to an order proven
    to resolve the residue, a capped one is used up to the order it was
    given, and TruncationNotStabilized is raised when that does not
    suffice."""
    return _cs(f, _branch_germ(v, f, branch, "cs_index")[1], branch)


def var_index(v, f, branch):
    """Variation-type index along one branch: the curve index plus the
    branch residue index, whose series order is worked out as in cs_index.
    Both parts read one cofactor and one decomposition."""
    h, valid = _branch_germ(v, f, branch, "var_index")
    gsv = _gsv(v, f, h, valid)
    cs = _cs(f, valid, branch)
    return _finish(gsv.value + cs.value, "sum-of-parts")


def radial_index(v, f):
    """Index with the Milnor-number defect removed: the homological index
    minus (-1)^dim(V) times the Milnor number of f."""
    dim_v = f.nvars - 1
    hom = homological_index(v, f)
    mu = milnor_number(f)
    sign = -1 if dim_v % 2 else 1
    return _finish(hom.value - sign * mu.value, "defect-corrected")


# ---------------------------------------------------------------------------
# complete intersection curves in higher dimension


def gsv_pfaff_curve(v, curve_polys):
    """Index of the vector field v along a complete-intersection curve in
    n-space cut out by n - 1 polynomials: the order along the curve of the
    coefficient of omega_v on dx_I minus that of the Jacobian minor on the
    columns I.  Every index set I with finite orders is evaluated; all of
    them must give the same value."""
    if not isinstance(v, VectorField):
        raise InvalidInput("gsv_pfaff_curve needs a vector field, got %r"
                           % (v,))
    n = v.nvars
    curve_polys = _as_tuple(curve_polys, "a tuple of curve polynomials")
    if len(curve_polys) != n - 1 or not all(
            isinstance(g, Poly) and g.nvars == n for g in curve_polys):
        raise InvalidInput("a curve in %d-space needs %d polynomials in %d "
                           "variables, got %r" % (n, n - 1, n, curve_polys))

    omega = dual_form(v)
    curve = standard_basis(curve_polys, MonomialOrder.local(n), at_corner)
    for g in curve_polys:
        if not normal_form(v.apply(g), curve).is_zero():
            raise NotInvariant(
                "vector field is not tangent to the curve")

    minors = ((idx, PolyMatrix([[g.diff(j) for j in idx]
                                for g in curve_polys]).det(),
               omega.coefficient(idx))
              for idx in itertools.combinations(range(n), n - 1))
    valid = _vanishing_orders(minors, curve_polys, DegenerateMinors(
        "no minor of the curve Jacobian has finite order along the curve"))
    return _agreed("minor-orders", [
        ("minors-%s" % (idx,), val, "order difference %s")
        for idx, val, _ in valid])


# ---------------------------------------------------------------------------
# logarithmic index


def log_index(v, divisor, oracle=False):
    """Index of v relative to the union of coordinate hyperplanes x_i == 0
    for i in divisor.  Components over the divisor must divide by their
    coordinate (NotLogarithmic otherwise); the value is the dimension of the
    local ring modulo the divided components and the untouched ones."""
    n = v.nvars
    divisor = _check_divisor(divisor, n)
    gens = []
    for i in range(n):
        if i in divisor:
            h = exact_divide(v.components[i], Poly.var(n, i))
            if h is None:
                raise NotLogarithmic(
                    "component %d does not vanish on its hyperplane" % i)
            gens.append(h)
        else:
            gens.append(v.components[i])
    value = _local_dim(gens, n, "zero of the field relative to the divisor")
    checks = []
    if oracle:
        chi = contraction_complex_euler(v, divisor)
        checks.append(("truncation-oracle", chi == value,
                       "oracle characteristic %s" % chi))
    return _finish(value, "local-algebra", checks)
