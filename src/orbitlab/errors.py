"""Exception types shared across the package."""

__all__ = [
    "OrbitlabError",
    "DimensionMismatch",
    "InvalidModulus",
    "UnsupportedOperator",
    "NotEigenvector",
    "NotInGeneralizedKernel",
    "ComplementNotInvariant",
    "ConfigError",
]


class OrbitlabError(Exception):
    """Base class for every orbitlab-specific error."""


class DimensionMismatch(OrbitlabError):
    """Vector support reaches outside a finite matrix's index range."""


class InvalidModulus(OrbitlabError):
    """A scaling factor violates a modulus precondition."""


class UnsupportedOperator(OrbitlabError):
    """The operation only handles specific operator kinds."""


class NotEigenvector(OrbitlabError):
    """The supplied functional is not an adjoint eigenvector."""


class NotInGeneralizedKernel(OrbitlabError):
    """The supplied vector is not annihilated by the expected power."""


class ComplementNotInvariant(OrbitlabError):
    """The coordinate complement is not carried into itself."""


class ConfigError(OrbitlabError):
    """A run configuration is malformed or inconsistent."""
