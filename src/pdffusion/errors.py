"""Exception hierarchy shared by all pdffusion modules, and the one check of each kind of input
they share: whole numbers, finite numbers, finite vectors and points of the probability simplex."""
from __future__ import annotations

import math

import numpy as np


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
    """A power of a density exceeds the floating-point overflow threshold."""


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


def whole_number(value, what: str) -> int:
    """``value`` as an int: 2.0 is 2; ValueError naming ``what`` for 1.9, inf or nan."""
    if not float(value).is_integer():
        raise ValueError(f"{what} must be a whole number, got {value}")
    return int(value)


def finite_number(value, what: str) -> float:
    """``value`` as a float: "2" is 2.0; ValueError naming ``what`` unless it is finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


def finite_vector(x, length: int, what: str, error: type[Exception] | None = None) -> np.ndarray:
    """``x`` as a fresh float vector; DimensionError naming ``what`` unless it has ``length``
    entries, ValueError naming its first non-finite entry, or ``error`` for both when given."""
    x = np.array(x, dtype=np.float64, ndmin=1)
    if x.shape != (length,):
        raise (error or DimensionError)(f"{what} length {x.shape}, expected ({length},)")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise (error or ValueError)(f"{what} entry {bad[0]} is not finite ({x[bad[0]]})")
    return x


def check_simplex(weights, n: int) -> np.ndarray:
    """``weights`` as a finite nonnegative vector of length ``n`` summing to 1 within 1e-9, else SimplexError."""
    w = finite_vector(weights, n, "weights", SimplexError)
    if np.any(w < 0.0):
        raise SimplexError(f"weights must be nonnegative, got {w}")
    if abs(float(np.sum(w)) - 1.0) > 1e-9:
        raise SimplexError(f"weights must sum to 1, got sum {float(np.sum(w))!r}")
    return w
