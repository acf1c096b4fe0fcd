"""Foliations on projective space: charts, degree bookkeeping, global checks.

A foliation by curves is stored as a homogeneous vector field T on the
n+1 homogeneous coordinates, considered modulo multiples of the radial
field.  Chart j is the affine piece {x_j = 1} with coordinates the
remaining variables in order; the affine representative there is
w_i = (T_i - u_i T_j)|_{x_j=1}, which is well defined modulo radial.

Global identity checks sum local indices over user-declared singular
points and compare against the closed-form right-hand side.  Each kind is
one entry of CHECKS: the shape of data it needs (a plane curve, n-1 curves,
a divisor or nothing) and the local quantity it sums at a declared point.
run_global_check runs every kind down one path.  It turns each declared
point into one germ: the field, the curve equations and the branches
moved once (series.moved) to the origin of the point's first visible
chart, which every later step reads.  Because a declared list can
silently omit a point, it first certifies completeness chart by chart:
the global affine quotient dimension of the ideal of the field and the
curve equations must equal the sum of the declared local multiplicities,
with one multiplicity per point, summed into every chart that sees it.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .chern import identity_rhs
from .errors import (
    DegreeMismatch,
    IncompleteSingularities,
    InvalidInput,
    NotZeroDimensional,
    UnsupportedIdentity,
)
from .indices import (
    cs_index,
    gsv_curve,
    gsv_pfaff_curve,
    log_index,
    ph_index,
    var_index,
)
from .localalgebra import (
    INFINITE,
    MonomialOrder,
    exact_divide,
    quotient_dim,
)
from .polyring import (
    DiffForm,
    Poly,
    VectorField,
    _as_tuple,
    _check_divisor,
    _check_point,
    field_from_dual,
    homogenize,
    set_coordinate_one,
)
from .residues import PhiSpec, baum_bott_residue
from .series import BranchParam, moved


class ProjPoint:
    """A rational point of P^n, normalized so the first nonzero
    homogeneous coordinate is 1."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = _as_tuple(coords, "a tuple of rationals")
        _check_point(coords, len(coords))
        coords = tuple(map(Fraction, coords))
        if len(coords) < 2:
            raise InvalidInput("a point of P^n needs at least 2 coordinates")
        if not any(coords):
            raise InvalidInput("the zero tuple is not a projective point")
        for c in coords:
            if c:
                coords = tuple(q / c for q in coords)
                break
        self.coords = coords

    @property
    def n(self):
        return len(self.coords) - 1

    def visible_in(self, chart):
        return self.coords[chart] != 0

    def affine_in(self, chart):
        c = self.coords[chart]
        if c == 0:
            raise InvalidInput("point not visible in chart %d" % chart)
        return tuple(q / c for i, q in enumerate(self.coords) if i != chart)

    def first_chart(self):
        return self.coords.index(1)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "[" + ":".join(str(c) for c in self.coords) + "]"


class ProjectiveFoliation:
    """A one-dimensional foliation of P^n of degree d, read from its field.

    field: homogeneous VectorField on the n+1 coordinates, components all
    homogeneous of one common degree d, taken modulo the radial field.
    """

    __slots__ = ("n", "d", "field")

    def __init__(self, field):
        if not isinstance(field, VectorField) or field.nvars < 2:
            raise InvalidInput("a foliation of P^n needs a vector field on "
                               "n + 1 >= 2 homogeneous coordinates, got %r"
                               % (field,))
        deg = None
        for c in field.components:
            if c.is_zero():
                continue
            if not c.is_homogeneous():
                raise DegreeMismatch("field components must be homogeneous")
            if deg is None:
                deg = c.degree()
            elif c.degree() != deg:
                raise DegreeMismatch("components of mixed degrees")
        if deg is None:
            raise DegreeMismatch("zero field")
        self.n = field.nvars - 1
        self.d = deg
        self.field = field

    @classmethod
    def from_affine_field(cls, v):
        """Extend an affine polynomial field on chart 0 to P^n.

        The foliation degree is the top polynomial degree of the
        components, dropping by one exactly when the top homogeneous part
        is a multiple of the radial field.  Then the top parts are x_i * q,
        the homogenized field (0, T_1, ..., T_n) is x0 * (-q, (T_i - x_i q)
        / x0) modulo q times the radial field, and the saturated second
        factor, of degree d, is the field stored.
        """
        n = v.nvars
        delta = max((c.degree() for c in v.components if not c.is_zero()),
                    default=-1)
        if delta < 0:
            raise DegreeMismatch("zero field")
        tops = [c.homogeneous_part(delta) for c in v.components]
        quotients = []
        for i, t in enumerate(tops):
            if t.is_zero():
                quotients = None
                break
            q = exact_divide(t, Poly.var(n, i))
            if q is None:
                quotients = None
                break
            quotients.append(q)
        radial_top = quotients is not None and all(
            q == quotients[0] for q in quotients)
        comps = [homogenize(c, delta) for c in v.components]
        if not radial_top:
            return cls(VectorField([Poly.zero(n + 1)] + comps))
        q = homogenize(quotients[0], delta - 1)
        x0 = Poly.var(n + 1, 0)
        return cls(VectorField([-q] + [
            exact_divide(t - Poly.var(n + 1, i + 1) * q, x0)
            for i, t in enumerate(comps)]))

    def chart_restrict(self, chart):
        """Affine representative in {x_chart = 1}, coordinates in order
        with x_chart removed."""
        if not (isinstance(chart, int) and 0 <= chart <= self.n):
            raise InvalidInput("P^%d has charts 0 to %d, not %r"
                               % (self.n, self.n, chart))
        tj = set_coordinate_one(self.field.components[chart], chart)
        out = []
        pos = 0
        for i in range(self.n + 1):
            if i == chart:
                continue
            ti = set_coordinate_one(self.field.components[i], chart)
            out.append(ti - Poly.var(self.n, pos) * tj)
            pos += 1
        return VectorField(out)

    def __repr__(self):
        return "ProjectiveFoliation(n=%d, d=%d)" % (self.n, self.d)


def curve_to_homogeneous(f):
    """Homogenize an affine chart-0 curve polynomial; returns the
    homogeneous polynomial and its degree."""
    m = f.degree()
    if m < 1:
        raise InvalidInput("a constant does not define a curve")
    return homogenize(f, m), m


def affine_singular_audit(v):
    """Number of affine singular points counted with multiplicity: the
    global quotient dimension of the component (or coefficient) ideal."""
    if isinstance(v, DiffForm):
        v = field_from_dual(v)
    n = v.nvars
    gens = [c for c in v.components if not c.is_zero()]
    if not gens:
        raise InvalidInput("the zero field has no isolated singular points")
    dim = quotient_dim(gens, MonomialOrder.degrevlex(n))
    if dim is INFINITE:
        raise NotZeroDimensional("singular set is positive dimensional")
    return dim


@dataclass(frozen=True)
class CheckRow:
    point: ProjPoint
    chart: int
    quantity: str
    value: object


@dataclass(frozen=True)
class CheckReport:
    kind: str
    rows: tuple
    local_sum: object
    rhs: object
    verdict: str
    diagnostics: tuple

    def passed(self):
        return self.verdict == "PASS"


class _Site(NamedTuple):
    """One declared point as a germ: the check's data translated once to the
    origin of the point's first visible chart."""
    point: ProjPoint
    chart: int              # the point's first visible chart
    field: VectorField      # the chart's affine field, at the origin
    curves: tuple           # the check's curve equations, at the origin
    branches: tuple         # declared branches, through the origin
    divisor: tuple          # homogeneous coordinate indices
    oracle: bool


def _certify(kind, gens_by_chart, sites):
    """Per-chart completeness: the global quotient dimension of the chart
    ideal must equal the sum of local multiplicities at the declared
    points visible there.

    Each point's multiplicity dim O_p/I is computed once, from its germ in
    its first visible chart, and counts toward every chart that sees the
    point, because it does not depend on the chart.  Write M_ab for the
    minor x_a T_b - x_b T_a of the homogeneous field T.  The chart-j field
    w_i = T_i - x_i T_j at x_j = 1 is M_ji there, and the identity
    x_j M_ab = x_a M_jb - x_b M_ja puts every other minor in its ideal, so
    the chart-j field ideal is the dehomogenized ideal of all the minors.
    At a point seen by charts j and k, x_k / x_j is a unit, so the two
    dehomogenizations of each minor differ by a unit power of it, and so do
    the two chart equations of each curve.  The chart transition therefore
    maps one local ideal onto the other, and dim O_p/I is the same in both.

    Charts are certified in order, so a chart's mismatch is reported before
    a later chart's error.  A point's multiplicity is therefore computed in
    its first visible chart, after that chart's global dimension came out
    finite, so the local ideal has finite colength.
    """
    local = {}
    for j, gens in enumerate(gens_by_chart):
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            raise IncompleteSingularities(
                "%s: chart %d has identically singular data" % (kind, j))
        n = gens[0].nvars
        total = quotient_dim(gens, MonomialOrder.degrevlex(n))
        if total is INFINITE:
            raise IncompleteSingularities(
                "%s: chart %d meets the data in positive dimension" % (kind, j))
        declared = 0
        for s in sites:
            if not s.point.visible_in(j):
                continue
            if s.point not in local:
                germ = [g for g in s.field.components + s.curves
                        if not g.is_zero()]
                local[s.point] = quotient_dim(germ, MonomialOrder.local(n))
            declared += local[s.point]
        if declared != total:
            raise IncompleteSingularities(
                "%s: chart %d carries multiplicity %d, declared points "
                "cover %d" % (kind, j, total, declared))


def _branch_sum(index, s):
    return sum((index(s.field, s.curves[0], br).value
                for br in s.branches), Fraction(0))


def _bb(s):
    # phi = c_1^n, whose residues sum to (n + d)^n on P^n
    n = s.point.n
    return "bb_c1^%d" % n, baum_bott_residue(
        s.field, PhiSpec(n, [(1, (n,) + (0,) * (n - 1))])).value


def _log(s):
    # divisor components through the point, as local coordinates
    local = tuple(i - (i > s.chart) for i in s.divisor
                  if s.point.coords[i] == 0)
    if not local:
        return "milnor", ph_index(s.field).value
    return "log", log_index(s.field, local, oracle=s.oracle).value


class _Check(NamedTuple):
    shape: str      # what the kind needs of its data: a shape name of the
                    # session language, or None
    local: object   # _Site -> (quantity, value), summed over the points


# Every checkable identity, keyed by the kind identity_rhs evaluates.  The
# entries call the engine through this module's names at call time, so a
# wrapper bound to one of those names sees every call.
CHECKS = {
    "milnor_total": _Check(None, lambda s: (
        "milnor", ph_index(s.field).value)),
    "bb_total": _Check(None, _bb),
    "brunella": _Check("plane", lambda s: (
        "gsv", gsv_curve(s.field, s.curves[0]).value)),
    "cs_total": _Check("plane", lambda s: ("cs", _branch_sum(cs_index, s))),
    "var_total": _Check("plane", lambda s: ("var", _branch_sum(var_index, s))),
    "pfaff_degree": _Check("curves", lambda s: (
        "gsv", gsv_pfaff_curve(s.field, s.curves).value)),
    "log_bb": _Check("divisor", _log),
}


def _shaped(kind, shape, n, curve, divisor):
    """The check's affine curve equations, 0, 1 or n-1 of them, and its
    divisor, once the data have the shape the kind needs."""
    if shape == "plane":
        if not isinstance(curve, Poly) or n != 2:
            raise InvalidInput("%s needs a plane foliation and an affine "
                               "plane curve" % kind)
        return [curve], ()
    if shape == "curves":
        if (not isinstance(curve, (tuple, list)) or len(curve) != n - 1
                or not all(isinstance(f, Poly) for f in curve)):
            raise InvalidInput("%s needs n-1 affine curve equations" % kind)
        return list(curve), ()
    if shape == "divisor":
        divisor = _check_divisor(divisor, n + 1)
        if not divisor:
            raise InvalidInput("divisor: indices of homogeneous coordinate "
                               "hyperplanes")
        return [], divisor
    return [], ()


def run_global_check(fol, kind, curve=None, points=(), branches=(),
                     divisor=(), oracle=False):
    """Evaluate one global identity: local indices at the declared
    singular points against the closed-form total.

    curve: affine chart-0 polynomial (plane identities) or a tuple of
    n-1 of them (complete intersection curve in P^n).  divisor: indices
    of homogeneous coordinates whose hyperplanes form the invariant
    normal crossing divisor.  branches: (ProjPoint, BranchParam) pairs at
    declared points (InvalidInput otherwise), each branch written in the
    affine coordinates of the point's first visible chart.
    """
    n = fol.n
    if n < 2:
        raise UnsupportedIdentity("%s: global identities need P^n with "
                                  "n >= 2" % (kind,))
    points = _as_tuple(points, "a collection of ProjPoints")
    for i, p in enumerate(points):
        if not isinstance(p, ProjPoint) or p.n != n:
            raise InvalidInput("%r is not a point of P^%d" % (p, n))
        if p in points[:i]:
            raise InvalidInput("point %r is declared twice" % (p,))
    try:
        branches = [(p, br) for p, br in branches]
    except (TypeError, ValueError):
        raise InvalidInput("branches %r are not (ProjPoint, BranchParam) "
                           "pairs" % (branches,)) from None
    grouped = {}
    for p, br in branches:
        if p not in points:
            raise InvalidInput("branch at %r, which is not a declared point"
                               % (p,))
        if not isinstance(br, BranchParam):
            raise InvalidInput("branch at %r is %r, not a BranchParam"
                               % (p, br))
        grouped.setdefault(p, []).append(br)
    if not isinstance(kind, str) or kind not in CHECKS:
        raise UnsupportedIdentity(kind)
    check = CHECKS[kind]
    curves, divisor = _shaped(kind, check.shape, n, curve, divisor)
    homs = [curve_to_homogeneous(f) for f in curves]
    charts = range(n + 1)
    fields = [fol.chart_restrict(j) for j in charts]
    chart_curves = [[set_coordinate_one(h, j) for h, _ in homs]
                    for j in charts]
    sites = []
    for p in points:
        j = p.first_chart()
        at = p.affine_in(j)
        sites.append(_Site(p, j, *moved(
            (fields[j], chart_curves[j], grouped.get(p, ())), at),
            divisor, oracle))
    _certify(kind, [list(fields[j].components) + chart_curves[j]
                    for j in charts], sites)
    rows = [CheckRow(s.point, s.chart, *check.local(s)) for s in sites]
    total = sum(row.value for row in rows)
    diagnostics = tuple(
        "gsv %s at %r: a nondicritical separatrix would force a "
        "nonnegative value" % (row.value, row.point)
        for row in rows if row.quantity == "gsv" and row.value < 0)
    rhs = identity_rhs(kind, n, fol.d, tuple(m for _, m in homs),
                       len(divisor))
    verdict = "PASS" if total == rhs else "FAIL"
    return CheckReport(kind=kind, rows=tuple(rows), local_sum=total, rhs=rhs,
                       verdict=verdict, diagnostics=diagnostics)
