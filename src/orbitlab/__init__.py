"""Certified orbit-density experiments for shift-type operators.

The library splits into a sparse exact layer (sequence vectors, symbolic
operators, coordinate subspaces, hitting-time construction, criterion
checks) and a dense numerical layer (finite-matrix obstructions) backed by
numpy kernels.  ``orbitlab.cli`` drives both from JSON configs.  The dense
layer's names are exported lazily: importing ``orbitlab`` loads no numpy.
The top-level names are each module's ``__all__``.
"""

from . import constructor, criterion, errors, seqspace, subspace
from .constructor import *  # noqa: F403
from .criterion import *  # noqa: F403
from .errors import *  # noqa: F403
from .seqspace import *  # noqa: F403
from .subspace import *  # noqa: F403

__version__ = "0.1.0"

# Exported from ``obstructions``, which imports numpy, on first access; this
# is the one list of them, so the package names them without importing it,
# and ``obstructions.__all__`` reads it.
_LAZY = frozenset(
    {
        "DichotomyVerdict",
        "PairingChunk",
        "compression_orbit_check",
        "density_defect",
        "eigen_orbit_pairing",
        "generalized_pairing_polynomial",
        "jordan_orbit",
        "orbit_rows",
        "orbit_span_rank",
        "pairing_chunk",
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
    *seqspace.__all__,
    *subspace.__all__,
    *constructor.__all__,
    *criterion.__all__,
    *sorted(_LAZY),
    *errors.__all__,
]
