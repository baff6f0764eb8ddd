"""Closed-form Gaussian machinery.

Log-densities from each Gaussian's kept Cholesky factor,
conversion to quadrature grids, moment matching of weighted mixtures, the
covariance intersection rule (precision averaging, the closed-form
counterpart of log-linear pooling), and the checks of every covariance-like
matrix: `symmetric` (conversion, size, finiteness, symmetry) and `cholesky`
(positive definiteness); `errors` checks numbers, vectors and weights.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateError, DimensionError, SingularityError, check_simplex, finite_vector
from .grid import Grid, GridDensity, adopt_normalized, require_mass, require_same_grid

SYMMETRY_TOL = 1e-10

# to_grid defaults: node counts per dimension and half-width in standard deviations
DEFAULT_POINTS_1D = 2048
DEFAULT_POINTS_2D = 257
DEFAULT_HALF_WIDTH_SIGMAS = 8.0

LOG_2PI = float(np.log(2.0 * np.pi))


def cholesky(mat: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor; ValueError if non-finite, else SingularityError unless PD."""
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{what} has non-finite entries")
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"{what} is not positive definite") from exc


def symmetric(mat, what: str, n: int) -> np.ndarray:
    """``symmetrize(mat)`` of ``mat`` as a float matrix; DimensionError naming ``what`` unless it is
    n x n, ValueError if it has non-finite entries or max|A - A.T| > 1e-10 * max(1, max|A|)."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    if mat.shape != (n, n):
        raise DimensionError(f"{what} shape {mat.shape}, expected ({n}, {n})")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{what} has non-finite entries")
    if np.max(np.abs(mat - mat.T)) > SYMMETRY_TOL * max(1.0, np.max(np.abs(mat))):
        raise ValueError(f"{what} is not symmetric")
    return symmetrize(mat)


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """(A + A.T) / 2, suppressing round-off asymmetry."""
    return 0.5 * (mat + mat.T)


def cho_inverse(c: np.ndarray) -> np.ndarray:
    """Inverse of L L^T from its lower Cholesky factor L."""
    ci = np.linalg.inv(c)
    return symmetrize(ci.T @ ci)


def pd_inverse(mat: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky."""
    return cho_inverse(cholesky(mat, what))


@dataclass(frozen=True, eq=False)
class Gaussian:
    """A multivariate normal distribution N(mean, cov).

    cov must be symmetric to 1e-10 times max(1, largest absolute entry) and positive
    definite. ``chol`` is its lower Cholesky factor; ``from_information`` builds cov from it.
    """

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # mean is copied by finite_vector and cov by symmetrize, so no caller array is kept
        mean = finite_vector(self.mean, np.size(self.mean), "mean")
        cov = symmetric(self.cov, "cov", mean.size)
        _set_fields(self, mean, cov, cholesky(cov, "cov"))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def _set_fields(g: Gaussian, mean: np.ndarray, cov: np.ndarray, chol: np.ndarray) -> Gaussian:
    """Give ``g`` these mean, cov and lower factor of cov, made read-only."""
    for name, arr in (("mean", mean), ("cov", cov), ("chol", chol)):
        arr.flags.writeable = False
        object.__setattr__(g, name, arr)
    return g


def from_information(precision: np.ndarray, shift: np.ndarray, what: str) -> Gaussian:
    """N(P^{-1} h, P^{-1}) from precision P and shift h, by one factorization:
    with J the order reversal and R R^T = J P J, ``chol`` is J R^{-T} J.
    SingularityError naming ``what`` unless P is positive definite."""
    r = cholesky(symmetrize(precision)[::-1, ::-1], what)
    chol = np.tril(np.linalg.inv(r).T[::-1, ::-1])  # inv rounds some zeros above the diagonal
    cov = symmetrize(chol @ chol.T)
    mean = cov @ shift
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise ValueError("mean and cov must be finite")
    return _set_fields(object.__new__(Gaussian), mean, cov, chol)


def log_pdf(g: Gaussian, points) -> np.ndarray:
    """Log-density of ``g`` at points of shape (..., dim); returns shape (...).

    -|L^{-1}(x - mean)|^2 / 2 - sum_i log L_ii - (dim / 2) log(2 pi), with L
    the kept Cholesky factor. Finite wherever the pdf underflows.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] != g.dim:
        raise DimensionError(f"points of shape {x.shape} against Gaussian of dim {g.dim}")
    return _log_pdf(g, [x[..., j] for j in range(g.dim)])


def _log_norm(g: Gaussian) -> float:
    """log of the normalizing constant, sum_i log L_ii + (dim / 2) log(2 pi)."""
    return np.log(g.chol.diagonal()).sum() + 0.5 * g.dim * LOG_2PI


def _log_pdf(g: Gaussian, coords) -> np.ndarray:
    """``log_pdf`` at the points spanned by one broadcastable array per coordinate.

    L^{-1} is lower triangular, so z_i = sum_{j <= i} L^{-1}[i, j] (x_j - mean_j)
    broadcasts over x_0 .. x_i only. Only the last z spans every point; the
    quadratic form and the log-density are accumulated in place in it, so the
    result is the one array of that size.
    """
    inv = np.linalg.inv(g.chol)
    centered = [x - m for x, m in zip(coords, g.mean)]
    quad = 0.0
    for i in range(g.dim):
        z = np.asarray(sum(inv[i, j] * centered[j] for j in range(i + 1)))
        np.multiply(z, z, out=z)
        z += quad
        quad = z
    quad *= -0.5
    quad -= _log_norm(g)
    return quad


def _grid_log_pdf(g: Gaussian, grid: Grid) -> np.ndarray:
    """``log_pdf`` at every node of ``grid``, a fresh array of grid shape.

    In one dimension this is ``_log_pdf`` on the axis. In two, with u and v
    the centered coordinates of the two axes, z_0 = L^{-1}[0, 0] u, a =
    L^{-1}[1, 0] u and b = L^{-1}[1, 1] v, the log-density at node (i, j)
    expands into row terms, a cross term and column terms,

        -(z_0,i^2 + (a_i + b_j)^2) / 2 - log_norm
            = [-(z_0,i^2 + a_i^2) / 2 - log_norm] - a_i b_j - b_j^2 / 2,

    so one (n0 x 3) @ (3 x n1) product writes the whole array in one pass.
    The expansion is not bit for bit ``log_pdf``: where a and b nearly
    cancel it loses some ulps of a^2 + b^2. As a = -rho z_0 / sqrt(1 - rho^2),
    with rho the correlation, and z_0^2 <= 2 |log p + log_norm|, that is an
    absolute error of order eps |log p + log_norm| rho^2 / (1 - rho^2). For
    |rho| <= 0.97 and standard deviations from 1e-3 to 1e3 it stays below
    1e-13 * max(1, |log p|); narrower Gaussians, with a larger |log_norm|,
    come closer to that bound.
    """
    if grid.dims == 1:
        return _log_pdf(g, grid.axes)
    (l00, _), (l10, l11) = g.chol.tolist()
    u, v = (x - m for x, m in zip(grid.axes, g.mean.tolist()))
    z0, a, b = u / l00, u * (-l10 / (l00 * l11)), v / l11
    rows = np.empty((u.size, 3))
    rows[:, 0] = -0.5 * (z0 * z0 + a * a) - _log_norm(g)
    rows[:, 1] = -a
    rows[:, 2] = 1.0
    cols = np.empty((3, v.size))
    cols[0] = 1.0
    cols[1] = b
    cols[2] = -0.5 * (b * b)
    return rows @ cols


def default_grid_bounds(g: Gaussian):
    """Per-dimension bounds mean +- ``DEFAULT_HALF_WIDTH_SIGMAS`` marginal stds."""
    half_width = DEFAULT_HALF_WIDTH_SIGMAS * np.sqrt(np.diag(g.cov))
    return g.mean - half_width, g.mean + half_width


# the grid of the last to_grid call, reused with its axes and weights while the
# box repeats, as it does for every member of a profile; one entry, no more
_last_grid: Grid | None = None


def to_grid(g: Gaussian, lower=None, upper=None, shape=None) -> GridDensity:
    """Sample ``g`` on a uniform grid and renormalize to absorb truncation.

    Defaults: bounds at mean +- 8 marginal standard deviations, 2048 nodes in
    one dimension, 257 per dimension in two. In one dimension the values are
    those of ``log_pdf`` on the nodes, exponentiated and normalized, bit for
    bit; in two, the log-density is one matrix product (see
    ``_grid_log_pdf``), within 1e-13 * max(1, |log p|) of ``log_pdf`` for
    |rho| <= 0.97 and standard deviations from 1e-3 to 1e3. A call on the
    previous call's bounds and shape returns a density on that call's
    :class:`Grid` object, whose axes and weights are already built.

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
    shape = tuple(np.atleast_1d(shape).tolist())
    if len(shape) != g.dim:
        raise DimensionError(f"grid shape {shape} does not match Gaussian dim {g.dim}")
    global _last_grid
    grid, last = Grid(lower, upper, shape), _last_grid  # one read: another thread may replace it
    if grid == last:
        grid = last
    else:
        _last_grid = grid
    return _on_grid(g, grid)


def _on_grid(g: Gaussian, grid: Grid) -> GridDensity:
    """``g`` sampled at the nodes of ``grid``, renormalized."""
    values = _grid_log_pdf(g, grid)
    np.exp(values, out=values)
    try:
        return adopt_normalized(grid, values)
    except DegenerateError as exc:
        degenerate = exc
    # a Gaussian whose mass lies off the grid underflows to zero at every node
    require_mass(GridDensity(grid, values))
    raise degenerate


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
        require_same_grid(*grids)
    else:
        boxes = [default_grid_bounds(g) for g in inputs]
        lower = np.min([lo for lo, _ in boxes], axis=0)
        upper = np.max([hi for _, hi in boxes], axis=0)
        shape = None if points is None else (points,) * len(lower)
        out[0] = to_grid(inputs[0], lower, upper, shape)
        grids = [out[0].grid]
    return tuple(d if isinstance(d, GridDensity) else _on_grid(d, grids[0]) for d in out)


def shared_dim(gaussians, message: str) -> int:
    """The dimension every one of ``gaussians`` has; DimensionError(message) if they differ."""
    if len({g.dim for g in gaussians}) > 1:
        raise DimensionError(message)
    return gaussians[0].dim


def mixture_moments(gaussians, weights) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the weighted mixture of Gaussians.

    mean = sum_k w_k mu_k
    cov  = sum_k w_k (cov_k + (mu_k - mean)(mu_k - mean)^T)
    """
    gaussians = list(gaussians)
    w = check_simplex(weights, len(gaussians))
    shared_dim(gaussians, "mixture components must share a dimension")
    mean = sum(wk * g.mean for wk, g in zip(w, gaussians))
    cov = sum(wk * (g.cov + np.outer(g.mean - mean, g.mean - mean)) for wk, g in zip(w, gaussians))
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
    DimensionError
        If the inputs differ in dimension.
    SingularityError
        If the combined precision is not positive definite.
    """
    gaussians = list(gaussians)
    w = check_simplex(weights, len(gaussians))
    shared_dim(gaussians, "fusion inputs must share a dimension")
    for k, wk in enumerate(w):
        if wk == 1.0 and np.all(np.delete(w, k) == 0.0):
            return gaussians[k]
    precision = shift = 0.0
    for wk, g in zip(w, gaussians):
        pk = cho_inverse(g.chol)
        precision = precision + wk * pk
        shift = shift + wk * (pk @ g.mean)
    return from_information(precision, shift, "combined precision")
