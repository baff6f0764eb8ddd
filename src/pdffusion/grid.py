"""Grid-based probability densities.

A :class:`Grid` holds the bounds and node counts of a uniform rectangular
grid in one or two dimensions. It is the one place that validates them, and
it builds its node coordinates, offsets and trapezoid weights once for all
densities on it. It owns the trapezoid rule: the per-axis weights,
:meth:`Grid.integral` over all nodes, and :meth:`Grid.marginals`, which
integrates out all but one axis so that moments need only per-axis vectors.
An unmasked 2-D integral also contracts one axis at a time, ``w0 @ t @ w1``.
A :class:`GridDensity` pairs a grid with node values and validates only
those; it adopts a read-only, owned, C-contiguous float64 array of grid
shape without a copy, which is how kernels hand over a full-grid result (see
:func:`frozen`), and copies anything else. Whether a density is strictly
positive and whether it integrates to one are read off its values here and
nowhere else, and an array given for a grid's nodes (a calibration function,
a likelihood) is checked against its shape by :func:`grid_shaped`. Every
other module reduces its non closed-form work to these objects.

:func:`adopt_normalized` is the one normalization: it divides a fresh array,
which only its caller holds, in place by its integral, and a new density
adopts it. The kernels that compute a full-grid array (``gaussian.to_grid``,
the normalized pools, ``pooling.bayes_update``) and the axiom harness call it
directly; :func:`normalize` hands it a copy of a density's values.

Importing this module fixes glibc's two heap thresholds at the values that
glibc's own dynamic rule reaches once a 32 MiB block has been freed: blocks
up to 32 MiB come from the heap, and the heap top is given back to the kernel
only when more than 64 MiB of it is free. Left to the default, the free top
left behind by one 2-D operation (its member arrays, the profile's stack and
the result, 4 to 7 MB on a 257x257 grid) is trimmed, and the next operation
takes a page fault on every page of it again. The price is up to 64 MiB of
freed heap that stays resident. Off glibc, and when the environment sets a
malloc threshold or any ``glibc.malloc.`` tunable, the process keeps its own
policy and nothing is changed.
"""
from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateError,
    DimensionError,
    DomainError,
    GridMismatchError,
    NotNormalizedError,
    whole_number,
)

# Grids smaller than this per dimension are rejected outright.
MIN_POINTS_PER_DIM = 16

# Integrals at or below this are treated as an undefined normalization constant.
DEGENERATE_INTEGRAL = float(np.finfo(np.float64).eps)

NORMALIZATION_TOL = 1e-9

# mallopt(3) parameters and the caps of glibc's dynamic thresholds on 64-bit
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD
# environment variables by which a user sets glibc's malloc policy
_MALLOC_ENV = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_", "MALLOC_MMAP_THRESHOLD_", "MALLOC_MMAP_MAX_")


def _keep_freed_heap_mapped() -> bool:
    """Fix glibc's mmap and trim thresholds; True when both were set.

    Both are set, since setting either one turns glibc's dynamic rule off.
    Stands down off glibc, when ``mallopt`` is missing or refuses a value,
    and when the environment already sets the malloc policy.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return False
    if not libc or not libc.startswith("glibc"):
        return False
    if any(var in os.environ for var in _MALLOC_ENV):
        return False
    if "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)) and bool(
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    )


_keep_freed_heap_mapped()


def frozen(arr: np.ndarray) -> np.ndarray:
    """Mark ``arr`` read-only and return it; a fresh one is then adopted by GridDensity."""
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Grid:
    """A uniform rectangular grid in one or two dimensions.

    ``lower`` and ``upper`` are finite per-dimension bounds with upper >
    lower, kept as tuples of floats; ``shape`` counts the nodes per
    dimension, a whole number of at least 16 each. Nodes include both
    endpoints, so node ``i`` of dimension ``d`` sits at ``lower[d] + i *
    (upper[d] - lower[d]) / (shape[d] - 1)``; that spacing must be a
    positive float (DomainError where ``upper[d] - lower[d]`` overflows or
    the spacing rounds to 0). Densities are evaluated at ``centre +
    offsets``, which keep even spacing however far from 0 the bounds lie;
    ``axes`` round to the float spacing there. Where the bounds are symmetric
    about 0, the offsets are ``axes`` bit for bit. Equal grids compare equal
    and hash alike; derived arrays are cached on first use and read-only.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        lower = tuple(np.atleast_1d(np.asarray(self.lower, dtype=np.float64)).tolist())
        upper = tuple(np.atleast_1d(np.asarray(self.upper, dtype=np.float64)).tolist())
        shape = tuple(whole_number(n, "node count") for n in np.atleast_1d(self.shape).tolist())
        if not (len(lower) == len(upper) == len(shape)):
            raise DimensionError(
                f"inconsistent lengths: lower {len(lower)}, upper {len(upper)}, shape {len(shape)}"
            )
        if len(shape) not in (1, 2):
            raise DimensionError(f"grids support 1 or 2 dimensions, got {len(shape)}")
        if not all(map(math.isfinite, lower + upper)):
            raise DomainError("domain bounds must be finite")
        if any(hi <= lo for lo, hi in zip(lower, upper)):
            raise DomainError(
                f"upper bounds must exceed lower bounds, got {np.array(lower)} .. {np.array(upper)}"
            )
        if any(n < MIN_POINTS_PER_DIM for n in shape):
            raise ValueError(f"each dimension needs at least {MIN_POINTS_PER_DIM} nodes, got {shape}")
        for lo, hi, n in zip(lower, upper, shape):
            spacing = (hi - lo) / (n - 1)
            if spacing == math.inf:
                raise DomainError(f"the span of [{lo!r}, {hi!r}] overflows float64")
            if spacing == 0.0:
                raise DomainError(f"the spacing of {n} nodes on [{lo!r}, {hi!r}] rounds to 0")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "shape", shape)

    @cached_property
    def dims(self) -> int:
        return len(self.shape)

    @cached_property
    def spacing(self) -> np.ndarray:
        """Node spacing per dimension."""
        return frozen((np.array(self.upper) - np.array(self.lower)) / (np.array(self.shape) - 1))

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Node coordinates per dimension, each rounded to the float spacing where it lies."""
        return tuple(
            frozen(np.linspace(self.lower[d], self.upper[d], self.shape[d]))
            for d in range(self.dims)
        )

    @cached_property
    def centre(self) -> tuple[float, ...]:
        """Midpoint of the bounds per dimension; exactly 0 where they are symmetric about 0."""
        return tuple(0.5 * lo + 0.5 * hi for lo, hi in zip(self.lower, self.upper))

    @cached_property
    def offsets(self) -> tuple[np.ndarray, ...]:
        """Node coordinates per dimension less the centre, evenly spaced about 0."""
        return tuple(
            frozen(np.linspace(lo - c, hi - c, n))
            for lo, hi, c, n in zip(self.lower, self.upper, self.centre, self.shape)
        )

    @cached_property
    def axis_weights(self) -> tuple[np.ndarray, ...]:
        """One-dimensional trapezoid weights per dimension."""
        parts = []
        for d in range(self.dims):
            w = np.full(self.shape[d], self.spacing[d])
            w[0] *= 0.5
            w[-1] *= 0.5
            parts.append(frozen(w))
        return tuple(parts)

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Tensor-product trapezoid quadrature weights, shaped like the grid."""
        if self.dims == 1:
            return self.axis_weights[0]
        return frozen(np.multiply.outer(*self.axis_weights))

    def integral(self, *factors: np.ndarray) -> float:
        """Trapezoid integral of the product of ``factors``, node arrays on this grid.

        The factors multiply into the quadrature weights from left to right.
        In two dimensions the product of the factors is contracted with one
        axis's weights at a time, ``w0 @ t @ w1``.
        """
        if self.dims == 2:
            t = factors[0]
            for f in factors[1:]:
                t = t * f
            w0, w1 = self.axis_weights
            return float(w0 @ t @ w1)
        terms = self.quad_weights
        for f in factors:
            terms = terms * f
        return float(np.sum(terms))

    def marginals(self, values: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-axis marginals of the node array ``values``.

        Part ``d`` is ``values`` integrated over every other axis, a vector
        along axis ``d``; in one dimension it is ``values`` itself.
        """
        if self.dims == 1:
            return (values,)
        w0, w1 = self.axis_weights
        return values @ w1, w0 @ values


def _adoptable(values, shape: tuple[int, ...]) -> bool:
    """Whether ``values`` can become a density's values without a copy."""
    return (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and values.shape == shape
        and values.base is None
        and values.flags.c_contiguous
        and not values.flags.writeable
    )


@dataclass(frozen=True, eq=False)
class GridDensity:
    """A pdf (or unnormalized density) sampled at the nodes of a :class:`Grid`.

    ``values`` are finite nonnegative node samples, row-major, flat or shaped
    like the grid. A float64 array of grid shape that is read-only,
    C-contiguous and owns its data (``base is None``) is adopted as it is;
    anything else is copied and the copy frozen, so no writable caller
    array aliases a density. ``positive`` tells whether every value is
    strictly positive; ``normalized`` whether the values integrate to one
    within 1e-9, computed when first read.
    """

    grid: Grid
    values: np.ndarray
    positive: bool = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.grid, Grid):
            raise TypeError(f"grid must be a Grid, got {type(self.grid).__name__}")
        values = self.values
        if not _adoptable(values, self.grid.shape):
            values = frozen(np.asarray(values, dtype=np.float64).reshape(self.grid.shape).copy())
        # NaN propagates through min and max, so it reports "finite" as -inf does
        lo, hi = values.min(), values.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("density values must be finite")
        if lo < 0.0:
            raise ValueError("density values must be nonnegative")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "positive", bool(lo > 0.0))

    @cached_property
    def normalized(self) -> bool:
        """Whether the values integrate to one within ``NORMALIZATION_TOL``."""
        return abs(self.grid.integral(self.values) - 1.0) <= NORMALIZATION_TOL

    @property
    def quad_weights(self) -> np.ndarray:
        """The grid's trapezoid weights, shaped like ``values``."""
        return self.grid.quad_weights


def from_samples(lower, upper, shape, values) -> GridDensity:
    """Build a :class:`GridDensity` on a new grid from raw node samples, without normalizing them.

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
    if not d.values.max() > 0.0:
        raise ValueError("density values are all zero")


def integrate(d: GridDensity) -> float:
    """Composite trapezoid integral of ``d`` over its domain."""
    return d.grid.integral(d.values)


def normalize(d: GridDensity) -> GridDensity:
    """Scale ``d`` so it integrates to one: :func:`adopt_normalized` on a copy of its values.

    Raises
    ------
    DegenerateError
        If the integral is at or below machine epsilon, i.e. the
        normalization constant is undefined.
    """
    return adopt_normalized(d.grid, d.values.copy())


def adopt_normalized(grid: Grid, values: np.ndarray) -> GridDensity:
    """Divide ``values`` in place by their trapezoid integral; the result adopts them.

    ``values`` is a fresh, writable, C-contiguous float64 array of grid
    shape that only the caller holds. Raises ValueError for non-finite or
    negative values, as :class:`GridDensity` does, then
    :class:`DegenerateError` for an integral at or below machine epsilon.
    """
    total = grid.integral(values)
    if not np.isfinite(total) or total <= DEGENERATE_INTEGRAL:
        GridDensity(grid, values)  # invalid values raise ValueError first, as in GridDensity
        raise DegenerateError(f"cannot normalize density with integral {total!r}")
    values /= total
    return GridDensity(grid, frozen(values))


def moments(d: GridDensity) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix of a normalized density.

    Returns
    -------
    mean : ndarray, shape (dims,)
    cov : ndarray, shape (dims, dims)
        Symmetric: the one cross term fills both off-diagonal entries.

    Raises
    ------
    NotNormalizedError
        If ``d`` does not integrate to one.
    """
    if not d.normalized:
        raise NotNormalizedError("moments require a normalized density")
    grid, v = d.grid, d.values
    weights = grid.axis_weights
    # means and variances need only each axis's marginal mass; the mean is the centre plus the mean offset
    masses = [w * m for w, m in zip(weights, grid.marginals(v))]
    shift = [np.sum(m * x) for m, x in zip(masses, grid.offsets)]
    centered = [x - s for x, s in zip(grid.offsets, shift)]
    cov = np.diag([np.sum(m * c**2) for m, c in zip(masses, centered)])
    if grid.dims == 2:
        cov[0, 1] = cov[1, 0] = (weights[0] * centered[0]) @ v @ (weights[1] * centered[1])
    return np.add(grid.centre, shift), cov


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


def require_same_grid(*grids: Grid, names=None) -> None:
    """Raise :class:`GridMismatchError` unless all grids are equal, naming the first that differs and the first.

    ``names`` labels the grids, one each (the CLI passes file names); by default they are numbered from 0.
    """
    names = names or [f"grid {i}" for i in range(len(grids))]
    for name, other in zip(names[1:], grids[1:]):
        if other != grids[0]:
            raise GridMismatchError(f"grids differ: {name} has {other}, {names[0]} has {grids[0]}")


def grid_shaped(values, grid: Grid, what: str) -> np.ndarray:
    """``values`` as a float array; :class:`GridMismatchError` naming ``what`` unless it has ``grid``'s shape."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != grid.shape:
        raise GridMismatchError(f"{what} shape {values.shape} does not match grid {grid.shape}")
    return values


@dataclass(frozen=True, eq=False)
class OpinionProfile:
    """An ordered collection of agent densities on a shared grid.

    ``positive`` tells whether every member is strictly positive
    (:attr:`GridDensity.positive`); pooling functions that divide by or take
    logarithms of agent densities require it.
    """

    densities: tuple[GridDensity, ...]

    def __post_init__(self):
        densities = tuple(self.densities)
        if len(densities) < 1:
            raise ValueError("an opinion profile needs at least one agent")
        require_same_grid(*(q.grid for q in densities))
        object.__setattr__(self, "densities", densities)

    @property
    def positive(self) -> bool:
        return all(q.positive for q in self.densities)

    @property
    def K(self) -> int:
        return len(self.densities)

    @property
    def grid(self) -> Grid:
        """The grid every member lives on."""
        return self.densities[0].grid

    @property
    def values(self) -> np.ndarray:
        """The members' values stacked into one K x shape array, built on each access.

        The stack is fresh and writable on every access, and shares no
        memory with any member.
        """
        return np.stack([q.values for q in self.densities])

    @property
    def log_values(self) -> np.ndarray:
        """The members' log-densities stacked like :attr:`values`, fresh on each access.

        The one place where a profile's logs are taken, for the pools and for
        min-KLD weights; each member's log is written straight into its row.
        A zero logs to -inf, with numpy's divide warning unless the caller silences it.
        """
        stack = np.empty((self.K,) + self.grid.shape)
        for q, row in zip(self.densities, stack):
            np.log(q.values, out=row)
        return stack

    def permuted(self, order) -> OpinionProfile:
        """The profile with agents reordered by the given permutation."""
        order = list(order)
        if sorted(order) != list(range(self.K)):
            raise ValueError(f"not a permutation of 0..{self.K - 1}: {order}")
        return OpinionProfile(tuple(self.densities[i] for i in order))
