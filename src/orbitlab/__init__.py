"""Certified orbit-density experiments for shift-type operators.

The library splits into a sparse exact layer (sequence vectors, symbolic
operators, coordinate subspaces, hitting-time construction, criterion
checks) and a dense numerical layer (finite-matrix obstructions) backed by
numpy kernels.  ``orbitlab.cli`` drives both from JSON configs.
"""

from .constructor import (
    CertReport,
    HittingSchedule,
    ScheduleEntry,
    assemble,
    build_schedule,
    certify,
    geometric_tail_bound,
    length,
    tail_bound,
)
from .criterion import (
    CriterionReport,
    backsolve,
    check_criterion,
    transitivity_probe,
)
from .errors import (
    ComplementNotInvariant,
    ConfigError,
    DimensionMismatch,
    InvalidModulus,
    NotEigenvector,
    NotInGeneralizedKernel,
    OrbitlabError,
    ScheduleUnderflow,
    UnsupportedOperator,
)
from .obstructions import (
    DichotomyVerdict,
    compression_orbit_check,
    density_defect,
    eigen_orbit_pairing,
    generalized_pairing_polynomial,
    jordan_orbit,
    orbit_span_rank,
    planted_chain_instance,
    planted_eigen_instance,
    spectral_dichotomy,
    unit_ball_net,
)
from .seqspace import (
    BackwardShift,
    Diagonal,
    DirectSum,
    FiniteMatrix,
    ForwardShift,
    Identity,
    Operator,
    ScalarMultiple,
    SeqVec,
    adjoint,
    adjoint_apply,
    apply,
    apply_power,
    inner,
    norm,
    to_matrix,
)
from .subspace import (
    DenseFamilySpec,
    PrefixZero,
    ResidueZero,
    RightBlockZero,
    SupportIn,
    ZeroPattern,
    dense_family,
    dyadic_net,
    invariance_check,
    invariance_scan,
    membership_defect,
    project,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # seqspace
    "SeqVec",
    "BackwardShift",
    "ForwardShift",
    "Identity",
    "ScalarMultiple",
    "Diagonal",
    "DirectSum",
    "FiniteMatrix",
    "Operator",
    "apply",
    "apply_power",
    "adjoint",
    "adjoint_apply",
    "inner",
    "norm",
    "to_matrix",
    # subspace
    "PrefixZero",
    "ResidueZero",
    "SupportIn",
    "RightBlockZero",
    "ZeroPattern",
    "membership_defect",
    "project",
    "invariance_check",
    "invariance_scan",
    "DenseFamilySpec",
    "dense_family",
    "dyadic_net",
    # constructor
    "length",
    "ScheduleEntry",
    "HittingSchedule",
    "build_schedule",
    "assemble",
    "tail_bound",
    "geometric_tail_bound",
    "CertReport",
    "certify",
    # criterion
    "backsolve",
    "CriterionReport",
    "check_criterion",
    "transitivity_probe",
    # obstructions
    "jordan_orbit",
    "eigen_orbit_pairing",
    "generalized_pairing_polynomial",
    "DichotomyVerdict",
    "spectral_dichotomy",
    "orbit_span_rank",
    "density_defect",
    "unit_ball_net",
    "compression_orbit_check",
    "planted_eigen_instance",
    "planted_chain_instance",
    # errors
    "OrbitlabError",
    "DimensionMismatch",
    "InvalidModulus",
    "ScheduleUnderflow",
    "UnsupportedOperator",
    "NotEigenvector",
    "NotInGeneralizedKernel",
    "ComplementNotInvariant",
    "ConfigError",
]
