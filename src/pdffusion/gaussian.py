"""Closed-form Gaussian machinery.

Evaluation of multivariate normal densities, conversion to quadrature grids,
moment matching of weighted mixtures, and the covariance intersection rule,
which fuses Gaussian estimates by averaging their precisions and is the
closed-form counterpart of log-linear pooling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg, stats

from . import grid as gridmod
from .errors import DimensionError, SimplexError, SingularityError
from .grid import Grid, GridDensity

SYMMETRY_TOL = 1e-10
SIMPLEX_TOL = 1e-9

# to_grid defaults: node counts per dimension and half-width in standard deviations
DEFAULT_POINTS_1D = 2048
DEFAULT_POINTS_2D = 257
DEFAULT_HALF_WIDTH_SIGMAS = 8.0


def _cholesky(mat: np.ndarray, what: str) -> np.ndarray:
    try:
        return linalg.cholesky(mat, lower=True)
    except linalg.LinAlgError as exc:
        raise SingularityError(f"{what} is not positive definite") from exc


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """(A + A.T) / 2, suppressing round-off asymmetry."""
    return 0.5 * (mat + mat.T)


def pd_inverse(mat: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky."""
    c = _cholesky(mat, what)
    inv = linalg.cho_solve((c, True), np.eye(mat.shape[0]))
    return symmetrize(inv)


@dataclass(frozen=True, eq=False)
class Gaussian:
    """A multivariate normal distribution N(mean, cov).

    cov must be symmetric to 1e-10 times max(1, largest absolute entry)
    and positive definite.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64)).copy()
        cov = np.atleast_2d(np.asarray(self.cov, dtype=np.float64)).copy()
        if mean.ndim != 1 or cov.ndim != 2:
            raise DimensionError("mean must be a vector and cov a matrix")
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise DimensionError(f"cov shape {cov.shape} does not match mean length {d}")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ValueError("mean and cov must be finite")
        if np.max(np.abs(cov - cov.T)) > SYMMETRY_TOL * max(1.0, np.max(np.abs(cov))):
            raise ValueError("cov is not symmetric")
        cov = symmetrize(cov)
        _cholesky(cov, "cov")
        for arr in (mean, cov):
            arr.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def eval(g: Gaussian, theta) -> float:
    """Density of ``g`` at a single point."""
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if theta.shape != (g.dim,):
        raise DimensionError(f"point of dim {theta.shape} against Gaussian of dim {g.dim}")
    return float(stats.multivariate_normal.pdf(theta, mean=g.mean, cov=g.cov))


def eval_many(g: Gaussian, points: np.ndarray) -> np.ndarray:
    """Density of ``g`` at an (n, d) array of points."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if points.shape[1] != g.dim:
        raise DimensionError(f"points of dim {points.shape[1]} against Gaussian of dim {g.dim}")
    out = stats.multivariate_normal.pdf(points, mean=g.mean, cov=g.cov)
    return np.atleast_1d(out)


def default_grid_bounds(g: Gaussian, half_width_sigmas: float = DEFAULT_HALF_WIDTH_SIGMAS):
    """Per-dimension bounds mean +- the given multiple of the marginal std."""
    std = np.sqrt(np.diag(g.cov))
    return g.mean - half_width_sigmas * std, g.mean + half_width_sigmas * std


def to_grid(g: Gaussian, lower=None, upper=None, shape=None) -> GridDensity:
    """Sample ``g`` on a uniform grid and renormalize to absorb truncation.

    Defaults: bounds at mean +- 8 marginal standard deviations, 2048 nodes in
    one dimension, 257 per dimension in two.

    Raises
    ------
    DimensionError
        For dimensions above 2.
    """
    if g.dim > 2:
        raise DimensionError(f"grids support at most 2 dimensions, Gaussian has {g.dim}")
    if lower is None or upper is None:
        lo, hi = default_grid_bounds(g)
        lower = lo if lower is None else lower
        upper = hi if upper is None else upper
    if shape is None:
        shape = (DEFAULT_POINTS_1D,) if g.dim == 1 else (DEFAULT_POINTS_2D, DEFAULT_POINTS_2D)
    shape = tuple(int(n) for n in np.atleast_1d(shape))
    if len(shape) != g.dim:
        raise DimensionError(f"grid shape {shape} does not match Gaussian dim {g.dim}")
    return _on_grid(g, Grid(lower, upper, shape))


def _on_grid(g: Gaussian, grid: Grid) -> GridDensity:
    """``g`` sampled at the nodes of ``grid``, renormalized."""
    if grid.dims == 1:
        vals = eval_many(g, grid.axes[0])
    else:
        x0, x1 = np.meshgrid(grid.axes[0], grid.axes[1], indexing="ij")
        pts = np.column_stack([x0.ravel(), x1.ravel()])
        vals = eval_many(g, pts).reshape(grid.shape)
    d = GridDensity(grid, vals)
    gridmod.require_mass(d)
    return gridmod.normalize(d)


def common_grid(*inputs, points=None) -> tuple[GridDensity, ...]:
    """Every input on one shared grid, with Gaussians evaluated on it.

    Grid inputs fix the grid, and all of them must share it. Without one,
    the grid is the union of the Gaussians' default_grid_bounds boxes with
    ``points`` nodes per axis, or to_grid's default node counts when
    ``points`` is None. All outputs hold the same :class:`Grid` object.

    Raises
    ------
    DimensionError
        If the inputs differ in dimension.
    GridMismatchError
        If two grid inputs live on different grids.
    """
    dims = {d.grid.dims if isinstance(d, GridDensity) else d.dim for d in inputs}
    if len(dims) > 1:
        raise DimensionError(f"inputs mix dimensions {sorted(dims)}")
    out = list(inputs)
    grids = [d.grid for d in inputs if isinstance(d, GridDensity)]
    if grids:
        gridmod.require_same_grid(*grids)
    else:
        boxes = [default_grid_bounds(g) for g in inputs]
        lower = np.min([lo for lo, _ in boxes], axis=0)
        upper = np.max([hi for _, hi in boxes], axis=0)
        shape = None if points is None else (int(points),) * len(lower)
        out[0] = to_grid(inputs[0], lower, upper, shape)
        grids = [out[0].grid]
    return tuple(d if isinstance(d, GridDensity) else _on_grid(d, grids[0]) for d in out)


def check_simplex(weights, n: int, what: str = "weights") -> np.ndarray:
    """Validate a finite nonnegative vector of length ``n`` summing to 1 within 1e-9."""
    w = np.atleast_1d(np.asarray(weights, dtype=np.float64))
    if w.shape != (n,):
        raise SimplexError(f"{what} must have length {n}, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise SimplexError(f"{what} must be finite, got {w}")
    if np.any(w < 0.0):
        raise SimplexError(f"{what} must be nonnegative, got {w}")
    if abs(float(np.sum(w)) - 1.0) > SIMPLEX_TOL:
        raise SimplexError(f"{what} must sum to 1, got sum {float(np.sum(w))!r}")
    return w


def mixture_moments(gaussians, weights) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the weighted mixture of Gaussians.

    mean = sum_k w_k mu_k
    cov  = sum_k w_k (cov_k + (mu_k - mean)(mu_k - mean)^T)
    """
    gaussians = list(gaussians)
    w = check_simplex(weights, len(gaussians))
    d = gaussians[0].dim
    for g in gaussians:
        if g.dim != d:
            raise DimensionError("mixture components must share a dimension")
    mean = sum(wk * g.mean for wk, g in zip(w, gaussians))
    cov = np.zeros((d, d))
    for wk, g in zip(w, gaussians):
        delta = g.mean - mean
        cov = cov + wk * (g.cov + np.outer(delta, delta))
    return mean, symmetrize(cov)


def ci_fuse(gaussians, weights) -> Gaussian:
    """Covariance intersection: precision-average fusion of Gaussians.

    fused precision = sum_k w_k cov_k^{-1}
    fused mean      = fused cov . sum_k w_k cov_k^{-1} mu_k

    One-hot weights return the selected input verbatim.

    Raises
    ------
    SimplexError
        If weights leave the simplex.
    SingularityError
        If the combined precision is not positive definite.
    """
    gaussians = list(gaussians)
    w = check_simplex(weights, len(gaussians))
    for k, wk in enumerate(w):
        if wk == 1.0 and np.all(np.delete(w, k) == 0.0):
            return gaussians[k]
    d = gaussians[0].dim
    for g in gaussians:
        if g.dim != d:
            raise DimensionError("fusion inputs must share a dimension")
    precision = np.zeros((d, d))
    shift = np.zeros(d)
    for wk, g in zip(w, gaussians):
        pk = pd_inverse(g.cov, "agent cov")
        precision = precision + wk * pk
        shift = shift + wk * (pk @ g.mean)
    precision = symmetrize(precision)
    cov = pd_inverse(precision, "combined precision")
    return Gaussian(cov @ shift, cov)
