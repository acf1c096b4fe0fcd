"""Local indices of vector fields and foliation germs at singular points.

Every operation returns an IndexReport carrying the value, the method that
produced it, and the outcome of whatever independent cross-checks were run.
A failed cross-check never passes silently: RouteConflict is raised with
the report attached.

Points default to the origin; all computations translate their inputs there
first.  Curve branches are given in absolute coordinates (the branch passes
through the point at t == 0).
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
    IdealGens,
    MonomialOrder,
    exact_divide,
    normal_form,
    order_along_curve,
    quotient_dim,
)
from .polyring import (
    DiffForm,
    Poly,
    PolyMatrix,
    VectorField,
    dual_form,
    field_from_dual,
    translate_field,
    translate_to_origin,
)
from .residues import grothendieck_residue
from .series import (
    InsufficientOrder,
    laurent_residue,
    poly_on_branch,
    pullback_one_form,
)

__all__ = [
    "DEFAULT_MAX_ORDER",
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

# series order up to which cs_index re-lifts an extendable branch
DEFAULT_MAX_ORDER = 160


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


def _at_point(p, point):
    return p if point is None else translate_to_origin(p, point)


def _field_at_point(v, point):
    return v if point is None else translate_field(v, point)


def _plane(v, f, what):
    if v.nvars != 2 or f.nvars != 2:
        raise InvalidInput("%s needs a plane field and a plane curve" % what)


def _local_dim(gens, n, what):
    d = quotient_dim(IdealGens(tuple(gens), MonomialOrder.local(n)))
    if d is INFINITE:
        raise NotZeroDimensional("%s is not isolated" % what)
    return d


# ---------------------------------------------------------------------------
# classical numbers


def milnor_number(f, point=None):
    """Dimension of the local ring modulo the partials of f."""
    f0 = _at_point(f, point)
    n = f.nvars
    value = _local_dim([f0.diff(i) for i in range(n)], n,
                       "critical point of the function")
    return _finish(value, "local-algebra")


def tjurina_number(f, point=None):
    """Dimension of the local ring modulo f and its partials."""
    f0 = _at_point(f, point)
    n = f.nvars
    value = _local_dim([f0] + [f0.diff(i) for i in range(n)], n,
                       "singular point of the hypersurface")
    return _finish(value, "local-algebra")


def ph_index(v, point=None):
    """Index of an isolated zero of v in the ambient space: the dimension of
    the local ring modulo the components.  Cross-checked against the residue
    of the Jacobian determinant, which must agree exactly."""
    v0 = _field_at_point(v, point)
    n = v.nvars
    value = _local_dim(v0.components, n, "zero of the vector field")
    res = grothendieck_residue(v0.jacobian().det(), v0)
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


def homological_index(v, f, point=None, oracle=False):
    """Euler characteristic of the contraction complex on the hypersurface,
    out of closed module-dimension formulas split by the parity of the
    hypersurface dimension.  With oracle=True the truncation oracle recomputes
    the characteristic independently and must agree."""
    f0 = _at_point(f, point)
    v0 = _field_at_point(v, point)
    value = _homological(v0, f0, tangency_cofactor(v0, f0))
    checks = []
    if oracle:
        chi, _ = contraction_complex_euler(v0, f0)
        checks.append(("truncation-oracle", chi == value,
                       "oracle characteristic %s" % chi))
    return _finish(value, "module-dimension-formula", checks)


def _homological(v0, f0, h):
    """The module-dimension formula at the origin, for the cofactor h of
    v0(f0) == h * f0."""
    n = f0.nvars
    a = v0.components
    jac = [f0.diff(i) for i in range(n)]
    htop = _local_dim([f0] + jac, n, "singular point of the hypersurface")
    if (n - 1) % 2 == 1:
        h0 = _local_dim((f0,) + a, n, "zero of the field on the hypersurface")
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


def _saito_triple(v, f, variant):
    """Build one decomposition variant and verify its defining identity
    g * omega_v == xi * df + f * eta exactly."""
    omega = dual_form(v)
    p_coeff = omega.coefficient((0,))
    q_coeff = omega.coefficient((1,))
    fx = f.diff(0)
    fy = f.diff(1)
    c = exact_divide(p_coeff * fy - q_coeff * fx, f)
    if c is None:
        raise RouteConflict("tangency guarantees this division")
    if variant == "fy":
        g, xi, eta = fy, q_coeff, DiffForm(2, 1, {(0,): c})
    else:
        g, xi, eta = fx, p_coeff, DiffForm(2, 1, {(1,): -c})
    lhs = g * omega
    rhs = DiffForm(2, 1, {(0,): xi * fx, (1,): xi * fy}) + f * eta
    if lhs != rhs:
        raise RouteConflict("decomposition identity broke")
    return DecompositionTriple(g=g, xi=xi, eta=eta, variant=variant)


def _saito_valid_variants(v, f):
    """(triple, order difference) for the variants whose g and xi have
    finite order along the curve, in the order fy, fx; the difference is
    ord(xi) - ord(g).  DegenerateDecomposition when there is none."""
    curve = IdealGens((f,), MonomialOrder.local(2))
    out = []
    for variant in ("fy", "fx"):
        triple = _saito_triple(v, f, variant)
        ord_g = order_along_curve(triple.g, curve)
        if ord_g is INFINITE:
            continue
        ord_xi = order_along_curve(triple.xi, curve)
        if ord_xi is not INFINITE:
            out.append((triple, ord_xi - ord_g))
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
    tangency_cofactor(v, f)
    if variant != "auto":
        return _saito_triple(v, f, variant)
    return _saito_valid_variants(v, f)[0][0]


def _plane_germ(v, f, point):
    """What gsv_curve, cs_index and var_index share: the field and curve
    translated to the origin, the tangency cofactor, and the valid
    decomposition variants with their order differences."""
    f0 = _at_point(f, point)
    v0 = _field_at_point(v, point)
    h = tangency_cofactor(v0, f0)
    return v0, f0, h, _saito_valid_variants(v0, f0)


def _gsv(v0, f0, h, valid):
    """gsv_curve on a germ of _plane_germ."""
    value = valid[0][1]
    checks = [("variant-" + triple.variant, val == value,
               "order difference %s" % val) for triple, val in valid[1:]]
    hom = _homological(v0, f0, h)
    checks.append(("homological", hom == value, "homological index %s" % hom))
    return _finish(value, "vanishing-orders", checks)


def _check_max_order(max_order):
    if not (isinstance(max_order, int) and max_order >= 1):
        raise InvalidInput("truncation order must be a positive integer, "
                           "got %r" % (max_order,))


def _cs(f0, valid, branch, point, max_order):
    """cs_index on a germ of _plane_germ; the branch is in absolute
    coordinates."""
    order = 20
    cap = branch.max_order()
    if cap is not None:
        order = min(order, cap)

    while True:
        br = branch.at_order(order)
        comps = br.comps if point is None else tuple(
            s - q for s, q in zip(br.comps, point))
        if all(s.valuation() is None for s in comps):
            raise NotInvariant("branch is constant at the point")
        if any(s.coeffs[0] != 0 for s in comps):
            raise NotInvariant("branch does not pass through the point")
        if not poly_on_branch(f0, comps).is_zero():
            raise NotInvariant("branch does not lie on the curve")
        try:
            values = []
            for triple, _ in valid:
                num = pullback_one_form(triple.eta, comps)
                den = poly_on_branch(triple.xi, comps).truncate(num.order)
                values.append((triple.variant, -laurent_residue(num, den)))
            break
        except InsufficientOrder:
            if cap is None and order < max_order:
                order = min(2 * order, max_order)
                continue
            raise TruncationNotStabilized(
                "branch order %d cannot resolve the residue" % order)

    value = values[0][1]
    checks = [("variant-" + variant, val == value, "residue %s" % val)
              for variant, val in values[1:]]
    return _finish(value, "branch-residue", checks)


def gsv_curve(v, f, point=None):
    """Index of v along the invariant plane curve f == 0, via vanishing
    orders of the decomposition data.  Every valid variant is computed and
    must agree, as must the homological route."""
    _plane(v, f, "gsv_curve")
    return _gsv(*_plane_germ(v, f, point))


def cs_index(v, f, branch, point=None, max_order=DEFAULT_MAX_ORDER):
    """Residue-type index of v along one parametrized branch of the invariant
    curve f == 0: minus the t-residue of the pulled-back eta over xi.

    The branch must lie on the curve and pass through the point.  The residue
    is exact once the working order suffices; extendable branches are re-lifted
    up to max_order before TruncationNotStabilized is raised."""
    _plane(v, f, "cs_index")
    _check_max_order(max_order)
    _, f0, _, valid = _plane_germ(v, f, point)
    return _cs(f0, valid, branch, point, max_order)


def var_index(v, f, branch, point=None, max_order=DEFAULT_MAX_ORDER):
    """Variation-type index along one branch: the curve index plus the
    branch residue index, whose series are capped at max_order as in
    cs_index.  Both parts read one translation, one cofactor and one
    decomposition."""
    _plane(v, f, "var_index")
    v0, f0, h, valid = _plane_germ(v, f, point)
    gsv = _gsv(v0, f0, h, valid)
    _check_max_order(max_order)
    cs = _cs(f0, valid, branch, point, max_order)
    return _finish(gsv.value + cs.value, "sum-of-parts")


def radial_index(v, f, point=None):
    """Index with the Milnor-number defect removed: the homological index
    minus (-1)^dim(V) times the Milnor number of f."""
    dim_v = f.nvars - 1
    hom = homological_index(v, f, point=point)
    mu = milnor_number(f, point=point)
    sign = -1 if dim_v % 2 else 1
    return _finish(hom.value - sign * mu.value, "defect-corrected")


# ---------------------------------------------------------------------------
# complete intersection curves in higher dimension


def _curve_ideal(curve_polys, n):
    return IdealGens(tuple(curve_polys), MonomialOrder.local(n))


def gsv_pfaff_curve(data, curve_polys, point=None):
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

    f0s = tuple(_at_point(g, point) for g in curve_polys)
    v0 = _field_at_point(v, point)
    omega0 = dual_form(v0)
    curve = _curve_ideal(f0s, n)
    for g in f0s:
        if not normal_form(v0.apply(g), curve).is_zero():
            raise NotInvariant(
                "vector field is not tangent to the curve")

    candidates = []
    for idx_set in itertools.combinations(range(n), n - 1):
        rows = [[f0s[i].diff(j) for j in idx_set] for i in range(n - 1)]
        minor = PolyMatrix(rows).det()
        ord_minor = order_along_curve(minor, curve)
        if ord_minor is INFINITE:
            continue
        # coefficient of omega on dx_I
        a = omega0.coefficient(idx_set)
        ord_a = order_along_curve(a, curve)
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


def log_index(v, divisor, point=None, oracle=False):
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
    v0 = _field_at_point(v, point)
    gens = []
    for i in range(n):
        if i in divisor:
            h = exact_divide(v0.components[i], Poly.var(n, i))
            if h is None:
                raise NotLogarithmic(
                    "component %d does not vanish on its hyperplane" % i)
            gens.append(h)
        else:
            gens.append(v0.components[i])
    value = _local_dim(gens, n, "zero of the field relative to the divisor")
    checks = []
    if oracle:
        chi, _ = contraction_complex_euler(v0, divisor)
        checks.append(("truncation-oracle", chi == value,
                       "oracle characteristic %s" % chi))
    return _finish(value, "local-algebra", checks)
