"""Grid-based probability densities.

A :class:`Grid` holds the bounds and node counts of a uniform rectangular
grid in one or two dimensions. It is the one place that validates them, and
it builds its node coordinates and trapezoid weights once for all densities
on it; :meth:`Grid.integral` is the package's only quadrature sum. A
:class:`GridDensity` pairs a grid with node values and validates only those.
Every other module reduces its non closed-form work to these objects.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateError,
    DimensionError,
    DomainError,
    GridMismatchError,
    NotNormalizedError,
)

# Grids smaller than this per dimension are rejected outright.
MIN_POINTS_PER_DIM = 16

# Integrals at or below this are treated as an undefined normalization constant.
DEGENERATE_INTEGRAL = float(np.finfo(np.float64).eps)

NORMALIZATION_TOL = 1e-9


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Grid:
    """A uniform rectangular grid in one or two dimensions.

    ``lower`` and ``upper`` are finite per-dimension bounds with upper >
    lower, kept as tuples of floats; ``shape`` counts the nodes per
    dimension, at least 16 each. Nodes include both endpoints, so node ``i``
    of dimension ``d`` sits at ``lower[d] + i * (upper[d] - lower[d]) /
    (shape[d] - 1)``. Equal grids compare equal and hash alike; derived
    arrays are cached on first use and read-only.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=np.float64))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=np.float64))
        shape = tuple(int(n) for n in np.atleast_1d(self.shape))
        if not (len(lower) == len(upper) == len(shape)):
            raise DimensionError(
                f"inconsistent lengths: lower {len(lower)}, upper {len(upper)}, shape {len(shape)}"
            )
        if len(shape) not in (1, 2):
            raise DimensionError(f"grids support 1 or 2 dimensions, got {len(shape)}")
        if not np.all(np.isfinite(lower)) or not np.all(np.isfinite(upper)):
            raise DomainError("domain bounds must be finite")
        if np.any(upper <= lower):
            raise DomainError(f"upper bounds must exceed lower bounds, got {lower} .. {upper}")
        if any(n < MIN_POINTS_PER_DIM for n in shape):
            raise ValueError(f"each dimension needs at least {MIN_POINTS_PER_DIM} nodes, got {shape}")
        object.__setattr__(self, "lower", tuple(lower.tolist()))
        object.__setattr__(self, "upper", tuple(upper.tolist()))
        object.__setattr__(self, "shape", shape)

    @cached_property
    def dims(self) -> int:
        return len(self.shape)

    @cached_property
    def spacing(self) -> np.ndarray:
        """Node spacing per dimension."""
        return _frozen((np.array(self.upper) - np.array(self.lower)) / (np.array(self.shape) - 1))

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Node coordinates per dimension."""
        return tuple(
            _frozen(np.linspace(self.lower[d], self.upper[d], self.shape[d]))
            for d in range(self.dims)
        )

    @cached_property
    def axis_weights(self) -> tuple[np.ndarray, ...]:
        """One-dimensional trapezoid weights per dimension."""
        parts = []
        for d in range(self.dims):
            w = np.full(self.shape[d], self.spacing[d])
            w[0] *= 0.5
            w[-1] *= 0.5
            parts.append(_frozen(w))
        return tuple(parts)

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Tensor-product trapezoid quadrature weights, shaped like the grid."""
        if self.dims == 1:
            return self.axis_weights[0]
        return _frozen(np.multiply.outer(*self.axis_weights))

    def integral(self, *factors: np.ndarray, where: np.ndarray | None = None) -> float:
        """Trapezoid integral of the product of ``factors``, node arrays on this grid.

        The factors multiply into the quadrature weights from left to right.
        ``where``, a boolean node mask, restricts the sum to the flagged
        nodes.
        """
        terms = self.quad_weights if where is None else self.quad_weights[where]
        for f in factors:
            terms = terms * (f if where is None else f[where])
        return float(np.sum(terms))


@dataclass(frozen=True, eq=False)
class GridDensity:
    """A pdf (or unnormalized density) sampled at the nodes of a :class:`Grid`.

    ``values`` are finite nonnegative node samples, row-major, flat or shaped
    like the grid; they are copied and frozen. ``normalized`` claims that
    they integrate to one, which is enforced to 1e-9.
    """

    grid: Grid
    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        if not isinstance(self.grid, Grid):
            raise TypeError(f"grid must be a Grid, got {type(self.grid).__name__}")
        values = np.asarray(self.values, dtype=np.float64).reshape(self.grid.shape).copy()
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        if np.any(values < 0.0):
            raise ValueError("density values must be nonnegative")
        object.__setattr__(self, "values", _frozen(values))
        if self.normalized:
            total = self.grid.integral(values)
            if abs(total - 1.0) > NORMALIZATION_TOL:
                raise NotNormalizedError(
                    f"density claims to be normalized but integrates to {total!r}"
                )

    @property
    def quad_weights(self) -> np.ndarray:
        """The grid's trapezoid weights, shaped like ``values``."""
        return self.grid.quad_weights


def from_samples(lower, upper, shape, values) -> GridDensity:
    """Build an unnormalized :class:`GridDensity` on a new grid from raw node samples.

    Raises
    ------
    DomainError
        If any upper bound does not exceed its lower bound.
    ValueError
        If values are negative, non-finite, or all zero.
    """
    d = GridDensity(Grid(lower, upper, shape), values)
    require_mass(d)
    return d


def require_mass(d: GridDensity) -> None:
    """Raise ValueError unless some value of ``d`` is positive."""
    if not np.any(d.values > 0.0):
        raise ValueError("density values are all zero")


def integrate(d: GridDensity) -> float:
    """Composite trapezoid integral of ``d`` over its domain."""
    return d.grid.integral(d.values)


def normalize(d: GridDensity) -> GridDensity:
    """Scale ``d`` so it integrates to one.

    Raises
    ------
    DegenerateError
        If the integral is at or below machine epsilon, i.e. the
        normalization constant is undefined.
    """
    total = integrate(d)
    if not np.isfinite(total) or total <= DEGENERATE_INTEGRAL:
        raise DegenerateError(f"cannot normalize density with integral {total!r}")
    return GridDensity(d.grid, d.values / total, normalized=True)


def moments(d: GridDensity) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix of a normalized density.

    Returns
    -------
    mean : ndarray, shape (dims,)
    cov : ndarray, shape (dims, dims)
        Symmetrized as ``(A + A.T) / 2``.

    Raises
    ------
    NotNormalizedError
        If ``d`` is not marked normalized.
    """
    if not d.normalized:
        raise NotNormalizedError("moments require a normalized density")
    grid, v = d.grid, d.values
    if grid.dims == 1:
        x = grid.axes[0]
        mean = grid.integral(v, x)
        var = grid.integral(v, (x - mean) ** 2)
        return np.array([mean]), np.array([[var]])
    x0, x1 = np.meshgrid(grid.axes[0], grid.axes[1], indexing="ij")
    mean = np.array([grid.integral(v, x0), grid.integral(v, x1)])
    c0, c1 = x0 - mean[0], x1 - mean[1]
    cov = np.array(
        [
            [grid.integral(v, c0, c0), grid.integral(v, c0, c1)],
            [grid.integral(v, c1, c0), grid.integral(v, c1, c1)],
        ]
    )
    return mean, 0.5 * (cov + cov.T)


def event_probability(d: GridDensity, cells: np.ndarray) -> float:
    """Probability of a union of grid cells under ``d``.

    Parameters
    ----------
    cells : boolean ndarray
        One flag per grid cell: shape ``(n1 - 1,)`` in one dimension or
        ``(n1 - 1, n2 - 1)`` in two. The event is the union of the flagged
        cells; its mass is the trapezoid rule restricted to those cells.
    """
    cells = np.asarray(cells, dtype=bool)
    grid = d.grid
    expected = tuple(n - 1 for n in grid.shape)
    if cells.shape != expected:
        raise DimensionError(f"cell mask shape {cells.shape} does not match cell grid {expected}")
    v = d.values
    if grid.dims == 1:
        mass = grid.spacing[0] * 0.5 * (v[:-1] + v[1:])
        return float(np.sum(mass[cells]))
    area = grid.spacing[0] * grid.spacing[1]
    mass = area * 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])
    return float(np.sum(mass[cells]))


def require_same_grid(*grids: Grid) -> None:
    """Raise :class:`GridMismatchError` unless all grids are equal."""
    first = grids[0]
    for other in grids[1:]:
        if other != first:
            raise GridMismatchError(f"grids differ: {first} vs {other}")


@dataclass(frozen=True, eq=False)
class OpinionProfile:
    """An ordered collection of agent densities on a shared grid.

    The ``positive`` flag records whether every value of every member is
    strictly positive; pooling functions that divide by or take logarithms
    of agent densities require it.
    """

    densities: tuple[GridDensity, ...]
    positive: bool = field(init=False)

    def __post_init__(self):
        densities = tuple(self.densities)
        if len(densities) < 1:
            raise ValueError("an opinion profile needs at least one agent")
        require_same_grid(*(q.grid for q in densities))
        object.__setattr__(self, "densities", densities)
        positive = all(float(q.values.min()) > 0.0 for q in densities)
        object.__setattr__(self, "positive", positive)

    @property
    def K(self) -> int:
        return len(self.densities)

    @property
    def grid(self) -> Grid:
        """The grid every member lives on."""
        return self.densities[0].grid

    @property
    def values(self) -> np.ndarray:
        """The members' values stacked into one K x shape array, built on each access."""
        return np.stack([q.values for q in self.densities])

    def permuted(self, order) -> OpinionProfile:
        """The profile with agents reordered by the given permutation."""
        order = list(order)
        if sorted(order) != list(range(self.K)):
            raise ValueError(f"not a permutation of 0..{self.K - 1}: {order}")
        return OpinionProfile(tuple(self.densities[i] for i in order))
