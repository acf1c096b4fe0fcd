"""Exact local indices and residues of singular holomorphic foliations.

Everything is computed over the rationals with no floating point: local
multiplicities via standard bases for a local monomial order, residues via
the transformation law, and several independently computed routes for each
index that are compared before a value is reported.
"""

from .errors import (
    DegenerateDecomposition,
    DegenerateMinors,
    DegreeMismatch,
    FolindexError,
    IncompleteSingularities,
    InvalidInput,
    NotInvariant,
    NotLogarithmic,
    NotMember,
    NotZeroDimensional,
    ParseError,
    ResourceCap,
    RingMismatch,
    RouteConflict,
    SessionError,
    TruncationNotStabilized,
    UndeclaredName,
    UnsupportedIdentity,
)
from .polyring import (
    DiffForm,
    Poly,
    PolyMatrix,
    VectorField,
    char_poly_coeffs,
    contract,
    dual_form,
    field_from_dual,
    homogenize,
    jacobian,
    set_coordinate_one,
    translate_field,
    translate_to_origin,
    wedge,
)
from .localalgebra import (
    DEFAULT_MAX_STEPS,
    INFINITE,
    MonomialOrder,
    at_corner,
    exact_divide,
    monomial_power_bound,
    normal_form,
    order_along_curve,
    quotient_dim,
    standard_basis,
    step_budget,
)
from .series import (
    BranchParam,
    InsufficientOrder,
    TruncSeries,
    laurent_residue,
    moved,
    newton_lift,
    poly_on_branch,
    pullback_one_form,
)
from .jetoracle import (
    contraction_complex_euler,
    truncated_quotient_dim,
)
from .residues import (
    PhiSpec,
    ResidueResult,
    baum_bott_residue,
    grothendieck_residue,
)
from .indices import (
    IndexReport,
    cs_index,
    gsv_curve,
    gsv_pfaff_curve,
    homological_index,
    log_index,
    milnor_number,
    ph_index,
    radial_index,
    saito_decomposition,
    tangency_cofactor,
    tjurina_number,
    var_index,
)
from .chern import pn_chern_integral
from .projective import (
    CheckReport,
    CheckRow,
    ProjPoint,
    ProjectiveFoliation,
    affine_singular_audit,
    curve_to_homogeneous,
    run_global_check,
)
from .dsl import (
    parse_session,
    print_session,
    run_session,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "FolindexError", "ResourceCap", "NotZeroDimensional", "NotMember",
    "NotInvariant", "NotLogarithmic", "DegenerateDecomposition",
    "DegenerateMinors", "DegreeMismatch", "IncompleteSingularities",
    "RouteConflict", "TruncationNotStabilized", "UnsupportedIdentity",
    "SessionError", "ParseError", "UndeclaredName", "RingMismatch",
    "InsufficientOrder", "InvalidInput",
    # polynomials, fields, forms
    "Poly", "VectorField", "DiffForm", "PolyMatrix", "contract", "wedge",
    "dual_form", "field_from_dual", "char_poly_coeffs", "jacobian",
    "homogenize", "set_coordinate_one", "translate_to_origin",
    "translate_field",
    # local algebra
    "MonomialOrder", "INFINITE", "DEFAULT_MAX_STEPS", "standard_basis",
    "at_corner", "normal_form", "quotient_dim", "monomial_power_bound",
    "exact_divide", "order_along_curve", "step_budget",
    # series and branches
    "TruncSeries", "BranchParam", "laurent_residue", "newton_lift",
    "poly_on_branch", "pullback_one_form", "moved",
    # jet-truncation oracle
    "truncated_quotient_dim", "contraction_complex_euler",
    # residues
    "ResidueResult", "PhiSpec", "grothendieck_residue", "baum_bott_residue",
    # indices
    "IndexReport", "milnor_number", "tjurina_number", "ph_index",
    "tangency_cofactor", "homological_index", "saito_decomposition",
    "gsv_curve", "gsv_pfaff_curve", "cs_index", "var_index", "radial_index",
    "log_index",
    # degree arithmetic on projective space
    "pn_chern_integral",
    # projective foliations and global checks
    "ProjPoint", "ProjectiveFoliation", "curve_to_homogeneous",
    "affine_singular_audit", "run_global_check", "CheckRow", "CheckReport",
    # session language
    "parse_session", "print_session", "run_session",
]
