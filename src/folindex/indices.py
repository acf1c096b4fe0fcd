"""Local indices of vector fields and foliation germs at singular points.

Every operation returns an IndexReport carrying the value, the method that
produced it, and the outcome of whatever independent cross-checks were run.
A failed cross-check never passes silently: RouteConflict is raised with
the report attached.

Every function reads the germ of its data at the origin, and a branch
passes through the origin at t == 0.  Data given at another point is moved
there first, with series.moved or the translation helpers of polyring.
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
    dual_form,
    field_from_dual,
)
from .residues import grothendieck_residue
from .series import (
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
        chi, _ = contraction_complex_euler(v, f)
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


def _saito_valid_variants(v, f, h):
    """(triple, order difference, ord(xi)) for the variants whose g and xi
    have finite order along the curve, in the order fy, fx; the difference
    is ord(xi) - ord(g).  DegenerateDecomposition when there is none."""
    out = []
    for triple in _saito_variants(v, f, h):
        ord_g = order_along_curve(triple.g, (f,))
        if ord_g is INFINITE:
            continue
        ord_xi = order_along_curve(triple.xi, (f,))
        if ord_xi is not INFINITE:
            out.append((triple, ord_xi - ord_g, ord_xi))
    if not out:
        raise DegenerateDecomposition(
            "both decomposition variants vanish along the curve")
    return out


def saito_decomposition(v, f, variant="auto"):
    """Decompose the dual form of v along the invariant curve f == 0:
    g * omega_v == xi * df + f * eta.

    variant "fy" or "fx" forces which partial plays g; "auto" returns the
    first variant whose g and xi have finite vanishing order along the curve
    and raises DegenerateDecomposition when neither does.
    """
    _plane(v, f, "saito_decomposition")
    if variant not in ("fy", "fx", "auto"):
        raise InvalidInput("variant must be 'fy', 'fx' or 'auto', got %r"
                           % (variant,))
    h = tangency_cofactor(v, f)
    if variant != "auto":
        return {t.variant: t for t in _saito_variants(v, f, h)}[variant]
    return _saito_valid_variants(v, f, h)[0][0]


def _plane_germ(v, f):
    """What gsv_curve, cs_index and var_index share: the tangency cofactor,
    and the valid decomposition variants with their order differences and
    orders of xi.  The cofactor's exact division is the germ's only one:
    both variants are built from it."""
    h = tangency_cofactor(v, f)
    return h, _saito_valid_variants(v, f, h)


def _gsv(v, f, h, valid):
    """gsv_curve on a germ of _plane_germ."""
    value = valid[0][1]
    checks = [("variant-" + triple.variant, val == value,
               "order difference %s" % val) for triple, val, _ in valid[1:]]
    hom = _homological(v, f, h)
    checks.append(("homological", hom == value, "homological index %s" % hom))
    return _finish(value, "vanishing-orders", checks)


def _cs(f, valid, branch):
    """cs_index on a germ of _plane_germ, along a branch through the origin.

    The working order starts at 20 and doubles up to a ceiling K that the
    germ proves sufficient.  Let omega = dim O/(f, xi) be the order of a
    variant's xi along the curve.  gamma = beta(t^e) for a primitive
    parametrization beta of a branch phi of f, so ord_t(xi o gamma) =
    e I(xi, phi) <= e omega, since the intersection number of xi with f
    sums those with its branches; and e <= ord_t(gamma).  laurent_residue
    resolves once the working order exceeds 2 ord_t(xi o gamma), so
    K = 2 ord_t(gamma) omega + 1, the largest over the variants, suffices
    for an extendable branch.

    A branch given by polynomials is checked once and exactly, with the
    exact ord_t(gamma).  A series branch is checked at each working order,
    lifted past an order it vanishes to while below its ceiling, and read
    for ord_t(gamma) at the first order it does not vanish to.  A
    hand-entered branch is known only to its own order, which is its
    ceiling.  TruncationNotStabilized is raised at the ceiling."""
    omega = max(w for _, _, w in valid)
    ceiling = None if branch.extendable else branch.order
    order = 20 if ceiling is None else min(20, ceiling)
    if branch.polys is not None:
        polys = branch.polys
        if any(p.constant_term() for p in polys):
            raise NotInvariant("branch does not pass through the point")
        if all(p.is_zero() for p in polys):
            raise NotInvariant("branch is constant at the point")
        if not f.subst(polys).is_zero():
            raise NotInvariant("branch does not lie on the curve")
        ceiling = 2 * min(k for p in polys for (k,) in p.terms) * omega + 1

    while True:
        comps = branch.at_order(order).comps
        if branch.polys is None:
            vals = [s.valuation() for s in comps if not s.is_zero()]
            if not vals and ceiling is not None and order < ceiling:
                order = min(2 * order, ceiling)
                continue
            if not vals:
                raise NotInvariant("branch is constant at the point")
            if min(vals) == 0:
                raise NotInvariant("branch does not pass through the point")
            if not poly_on_branch(f, comps).is_zero():
                raise NotInvariant("branch does not lie on the curve")
            if ceiling is None:
                ceiling = 2 * min(vals) * omega + 1
        try:
            values = []
            for triple, _, _ in valid:
                num = pullback_one_form(triple.eta, comps)
                den = poly_on_branch(triple.xi, comps).truncate(num.order)
                values.append((triple.variant, -laurent_residue(num, den)))
            break
        except InsufficientOrder:
            if order < ceiling:
                order = min(2 * order, ceiling)
                continue
            raise TruncationNotStabilized(
                "branch order %d cannot resolve the residue" % order)

    value = values[0][1]
    checks = [("variant-" + variant, val == value, "residue %s" % val)
              for variant, val in values[1:]]
    return _finish(value, "branch-residue", checks)


def gsv_curve(v, f):
    """Index of v along the invariant plane curve f == 0, via vanishing
    orders of the decomposition data.  Every valid variant is computed and
    must agree, as must the homological route."""
    _plane(v, f, "gsv_curve")
    return _gsv(v, f, *_plane_germ(v, f))


def cs_index(v, f, branch):
    """Residue-type index of v along one parametrized branch of the invariant
    curve f == 0: minus the t-residue of the pulled-back eta over xi.

    The branch must lie on the curve and pass through the origin.  A branch
    given by polynomials is checked exactly, a series branch to the working
    order.  The series order is worked out from the germ: an extendable
    branch is re-lifted up to an order proven to resolve the residue, a
    hand-entered one is used up to the order it was given, and
    TruncationNotStabilized is raised when that does not suffice."""
    _plane(v, f, "cs_index")
    _, valid = _plane_germ(v, f)
    return _cs(f, valid, branch)


def var_index(v, f, branch):
    """Variation-type index along one branch: the curve index plus the
    branch residue index, whose series order is worked out as in cs_index.
    Both parts read one cofactor and one decomposition."""
    _plane(v, f, "var_index")
    h, valid = _plane_germ(v, f)
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


def gsv_pfaff_curve(data, curve_polys):
    """Index along a complete-intersection curve in n-space cut out by n - 1
    polynomials, from the coefficient form and the Jacobian minors.

    data may be a vector field or its dual (n-1)-form.  Every minor index set
    with finite orders is evaluated; all of them must give the same value."""
    v = field_from_dual(data) if isinstance(data, DiffForm) else data
    if not isinstance(v, VectorField):
        raise InvalidInput("gsv_pfaff_curve needs a vector field or its dual "
                           "form, got %r" % (data,))
    n = v.nvars
    curve_polys = tuple(curve_polys)
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

    candidates = []
    for idx_set in itertools.combinations(range(n), n - 1):
        rows = [[curve_polys[i].diff(j) for j in idx_set]
                for i in range(n - 1)]
        minor = PolyMatrix(rows).det()
        ord_minor = order_along_curve(minor, curve_polys)
        if ord_minor is INFINITE:
            continue
        # coefficient of omega on dx_I
        a = omega.coefficient(idx_set)
        ord_a = order_along_curve(a, curve_polys)
        if ord_a is INFINITE:
            continue
        candidates.append((idx_set, ord_a - ord_minor))
    if not candidates:
        raise DegenerateMinors(
            "no minor of the curve Jacobian has finite order along the curve")
    value = candidates[0][1]
    checks = [("minors-%s" % (idx_set,), val == value, "order difference %s" % val)
              for idx_set, val in candidates[1:]]
    return _finish(value, "minor-orders", checks)


# ---------------------------------------------------------------------------
# logarithmic index


def log_index(v, divisor, oracle=False):
    """Index of v relative to the union of coordinate hyperplanes x_i == 0
    for i in divisor.  Components over the divisor must divide by their
    coordinate (NotLogarithmic otherwise); the value is the dimension of the
    local ring modulo the divided components and the untouched ones."""
    n = v.nvars
    try:
        divisor = set(divisor)
    except TypeError:
        raise InvalidInput("divisor %r is not a set of variable indices"
                           % (divisor,)) from None
    bad = [i for i in divisor if not (isinstance(i, int) and 0 <= i < n)]
    if bad:
        raise InvalidInput("divisor entries %r are not variable indices "
                           "below %d" % (bad, n))
    divisor = tuple(sorted(divisor))
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
        chi, _ = contraction_complex_euler(v, divisor)
        checks.append(("truncation-oracle", chi == value,
                       "oracle characteristic %s" % chi))
    return _finish(value, "local-algebra", checks)
