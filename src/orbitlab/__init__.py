"""Certified orbit-density experiments for shift-type operators.

The library splits into a sparse exact layer (sequence vectors, symbolic
operators, coordinate subspaces, hitting-time construction, criterion
checks) and a dense numerical layer (finite-matrix obstructions) backed by
numpy kernels.  ``orbitlab.cli`` drives both from JSON configs.  The dense
layer's names are exported lazily: importing ``orbitlab`` loads no numpy.
"""

from .constructor import (
    CertReport,
    HittingSchedule,
    ScheduleEntry,
    WindowedVector,
    assemble,
    build_schedule,
    certify,
    length,
    tail_bounds,
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
    UnsupportedOperator,
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
    apply_power,
    distance,
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
    is_member,
    membership_defect,
    project,
)

__version__ = "0.1.0"

# Exported from ``obstructions``, which imports numpy, on first access.
_LAZY = frozenset(
    {
        "DichotomyVerdict",
        "compression_orbit_check",
        "density_defect",
        "eigen_orbit_pairing",
        "generalized_pairing_polynomial",
        "jordan_orbit",
        "orbit_rows",
        "orbit_span_rank",
        "planted_chain_instance",
        "planted_eigen_instance",
        "spectral_dichotomy",
        "unit_ball_net",
    }
)


def __getattr__(name: str):
    if name in _LAZY:
        from . import obstructions

        return getattr(obstructions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _LAZY)

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
    "apply_power",
    "distance",
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
    "is_member",
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
    "WindowedVector",
    "tail_bounds",
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
    "orbit_rows",
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
    "UnsupportedOperator",
    "NotEigenvector",
    "NotInGeneralizedKernel",
    "ComplementNotInvariant",
    "ConfigError",
]
