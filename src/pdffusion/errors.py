"""Exception hierarchy shared by all pdffusion modules."""
from __future__ import annotations


class FusionError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FusionError):
    """Invalid domain bounds (e.g. upper <= lower)."""


class DimensionError(FusionError):
    """Dimension mismatch or unsupported dimensionality."""


class GridMismatchError(FusionError):
    """Densities expected on a shared grid live on different grids."""


class NotNormalizedError(FusionError):
    """An operation requiring a normalized density received an unnormalized one."""


class DegenerateError(FusionError):
    """A normalization constant is undefined (integral at or below machine noise)."""


class PositivityError(FusionError):
    """A strictly positive density or profile is required but not supplied."""


class BoundednessError(FusionError):
    """A density ratio, or a power of a density, exceeds the floating-point overflow threshold."""


class SupportError(FusionError):
    """Absolute-continuity violation: mass where the reference density vanishes."""


class SimplexError(FusionError):
    """Weights are not a valid point of the probability simplex."""


class SingularityError(FusionError):
    """A matrix required to be positive definite or invertible is not."""


class RankError(FusionError):
    """An observation matrix does not have full column rank."""


class NonConvergenceError(FusionError):
    """An iterative optimizer exhausted its iteration budget.

    The best iterate found is attached as the ``result`` attribute so
    callers can still inspect it.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class UnsupportedAxiomError(FusionError):
    """The requested axiom is not applicable to the given pooling function."""
