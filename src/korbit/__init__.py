"""Verification toolkit for the coadjoint orbits of the eight
five-dimensional solvable Lie algebra families whose derived ideal is
three-dimensional and abelian.

The package builds the families from structure constants, exponentiates
adjoint matrices in closed form, computes Kirillov forms and orbit
dimensions, classifies orbits into per-family cases with explicit
constraint equations, and checks all of it by seeded sampling.
"""

from .errors import (
    AsymmetryError,
    DomainError,
    EvaluationError,
    KorbitError,
    ParameterWarning,
)
from .algebra import (
    DEFAULT_PARAMS,
    FAMILY_TAGS,
    PARAM_NAMES,
    LieAlgebra,
    ad_matrix,
    ad2_matrix,
    bracket,
    build_algebra,
    family_catalog,
    jacobi_residual,
    normalize_family,
    params_from_sequence,
    validate_params,
)
from .exp_action import (
    ExpAdMatrix,
    OrbitSample,
    coadjoint_move,
    coadjoint_move_531,
    exp_ad,
    exp_ad_closed,
    phi_series,
    sample_orbit,
)
from .kirillov import (
    KirillovForm,
    MdReport,
    kirillov_form,
    kirillov_forms,
    md_scan,
    orbit_dimension,
)
from .orbits import (
    Constraint,
    OrbitCase,
    OrbitDescriptor,
    VerificationReport,
    canonical_bases,
    case_indices,
    classify_orbit,
    constraint_residuals,
    descriptor_summary,
    gradient_fd_error,
    is_member,
    jacobian_rank_check,
    orbits_equal,
    tangency_residual,
    verify_proposition,
)
from .foliation import (
    StratumReport,
    generic_stratum_contains,
    local_triviality_probe,
    partition_check,
)

__version__ = "0.1.0"

__all__ = [
    "AsymmetryError",
    "DomainError",
    "EvaluationError",
    "KorbitError",
    "ParameterWarning",
    "DEFAULT_PARAMS",
    "FAMILY_TAGS",
    "PARAM_NAMES",
    "LieAlgebra",
    "ad_matrix",
    "ad2_matrix",
    "bracket",
    "build_algebra",
    "family_catalog",
    "jacobi_residual",
    "normalize_family",
    "params_from_sequence",
    "validate_params",
    "ExpAdMatrix",
    "OrbitSample",
    "coadjoint_move",
    "coadjoint_move_531",
    "exp_ad",
    "exp_ad_closed",
    "phi_series",
    "sample_orbit",
    "KirillovForm",
    "MdReport",
    "kirillov_form",
    "kirillov_forms",
    "md_scan",
    "orbit_dimension",
    "Constraint",
    "OrbitCase",
    "OrbitDescriptor",
    "VerificationReport",
    "canonical_bases",
    "case_indices",
    "classify_orbit",
    "constraint_residuals",
    "descriptor_summary",
    "gradient_fd_error",
    "is_member",
    "jacobian_rank_check",
    "orbits_equal",
    "tangency_residual",
    "verify_proposition",
    "StratumReport",
    "generic_stratum_contains",
    "local_triviality_probe",
    "partition_check",
    "__version__",
]
