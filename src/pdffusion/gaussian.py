"""Closed-form Gaussian machinery.

Log-densities from each Gaussian's kept Cholesky factor, conversion to quadrature grids
(``_grid_for`` is the one rule that decides a Gaussian's grid), moment matching of
weighted mixtures, the covariance intersection rule (precision averaging, the
closed-form counterpart of log-linear pooling), and the checks of every covariance-like
matrix: `symmetric` (conversion, size, finiteness, symmetry) and `cholesky` (positive
definiteness); `errors` checks numbers, vectors and weights.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DegenerateError, DimensionError, DomainError, SingularityError, check_simplex, finite_vector
from .grid import Grid, GridDensity, adopt_normalized, require_mass, require_same_grid

SYMMETRY_TOL = 1e-10

# the defaults of _grid_for: node counts per dimension and half-width in standard deviations
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
    n x n with n >= 1, ValueError if it has non-finite entries or max|A - A.T| > 1e-10 * max(1, max|A|)."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    if n < 1 or mat.shape != (n, n):
        expected = f"({n}, {n})" if n >= 1 else "at least (1, 1)"
        raise DimensionError(f"{what} shape {mat.shape}, expected {expected}")
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
    return _log_pdf(g, [x[..., j] - m for j, m in enumerate(g.mean)])


def _log_norm(g: Gaussian) -> float:
    """log of the normalizing constant, sum_i log L_ii + (dim / 2) log(2 pi)."""
    return np.log(g.chol.diagonal()).sum() + 0.5 * g.dim * LOG_2PI


def _log_pdf(g: Gaussian, centered) -> np.ndarray:
    """``log_pdf`` at the points spanned by one broadcastable array of x_j - mean_j per coordinate.

    L^{-1} is lower triangular, so z_i = sum_{j <= i} L^{-1}[i, j] (x_j - mean_j)
    broadcasts over x_0 .. x_i only. Only the last z spans every point; the
    quadratic form and the log-density are accumulated in place in it, so the
    result is the one array of that size.
    """
    inv = np.linalg.inv(g.chol)
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

    Each coordinate is offset + (centre - mean), which keeps its digits far
    from 0 (see :class:`Grid`); where the centre is 0 it is x - mean at
    ``grid.axes``. In one dimension this is ``_log_pdf`` of the centred axis.
    In two, with u and v the centred axes, z_0 = L^{-1}[0, 0] u, a =
    L^{-1}[1, 0] u and b = L^{-1}[1, 1] v, the log-density at node (i, j)
    expands into row terms, a cross term and column terms,

        -(z_0,i^2 + (a_i + b_j)^2) / 2 - log_norm
            = [-(z_0,i^2 + a_i^2) / 2 - log_norm] - a_i b_j - b_j^2 / 2,

    so one (n0 x 3) @ (3 x n1) product writes the whole array in one pass.
    The expansion is not bit for bit ``_log_pdf``: where a and b nearly
    cancel it loses some ulps of a^2 + b^2. As a = -rho z_0 / sqrt(1 - rho^2),
    with rho the correlation, and z_0^2 <= 2 |log p + log_norm|, that is an
    absolute error of order eps |log p + log_norm| rho^2 / (1 - rho^2). For
    |rho| <= 0.97 and standard deviations from 1e-3 to 1e3 it stays below
    1e-13 * max(1, |log p|); narrower Gaussians, with a larger |log_norm|,
    come closer to that bound.
    """
    centered = [x + (c - m) for x, c, m in zip(grid.offsets, grid.centre, g.mean.tolist())]
    if grid.dims == 1:
        return _log_pdf(g, centered)
    (l00, _), (l10, l11) = g.chol.tolist()
    u, v = centered
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


def _grid_for(gaussians, lower=None, upper=None, shape=None, names=None) -> Grid:
    """The grid of ``gaussians``, all of one dimension: the one rule that puts Gaussians on a grid.

    Missing bounds are the union of the boxes mean +- ``DEFAULT_HALF_WIDTH_SIGMAS``
    marginal standard deviations, each bound moved out one float spacing where
    rounding put it inside its box; a missing shape is ``DEFAULT_POINTS_1D`` nodes
    in one dimension, ``DEFAULT_POINTS_2D`` per axis in two. A grid equal to the
    previous call's is that call's :class:`Grid` object, with its offsets and
    weights already built. DimensionError above 2 dimensions or for a shape of
    another length; DomainError where missing bounds would come from a box
    narrower than the float spacing at its mean: bounds moved out to that
    spacing can lie thousands of standard deviations apart, with the nodes
    spaced wider than one. ``names``, one per Gaussian, starts that refusal
    with the offending one's.
    """
    dim = gaussians[0].dim
    if dim > 2:
        raise DimensionError(f"grids support at most 2 dimensions, Gaussian has {dim}")
    if lower is None or upper is None:
        half = [DEFAULT_HALF_WIDTH_SIGMAS * np.sqrt(np.diag(g.cov)) for g in gaussians]
        for i, (g, h) in enumerate(zip(gaussians, half)):
            for mean, width in zip(g.mean.tolist(), (2.0 * h).tolist()):
                if width < np.spacing(abs(mean)):
                    raise DomainError(
                        ("" if names is None else f"{names[i]}: ")
                        + f"the box mean +- {DEFAULT_HALF_WIDTH_SIGMAS:g} sd at {mean!r} is {width!r} wide, "
                        f"narrower than the float spacing {float(np.spacing(abs(mean)))!r} there"
                    )
        lower = np.min([_box_bound(g.mean, -h) for g, h in zip(gaussians, half)], axis=0) if lower is None else lower
        upper = np.max([_box_bound(g.mean, h) for g, h in zip(gaussians, half)], axis=0) if upper is None else upper
    if shape is None:
        shape = (DEFAULT_POINTS_1D,) if dim == 1 else (DEFAULT_POINTS_2D, DEFAULT_POINTS_2D)
    shape = tuple(np.atleast_1d(shape).tolist())
    if len(shape) != dim:
        raise DimensionError(f"grid shape {shape} does not match Gaussian dim {dim}")
    return _reused(Grid(lower, upper, shape))


def _box_bound(mean: np.ndarray, step: np.ndarray) -> np.ndarray:
    """``mean + step``, one float spacing further along ``step`` where rounding fell short (Knuth's two-sum error)."""
    bound = mean + step
    error = (mean - (bound - (bound - mean))) + (step - (bound - mean))
    return np.where(error * step > 0.0, np.nextafter(bound, step * np.inf), bound)


@lru_cache(maxsize=1)
def _reused(grid: Grid) -> Grid:
    """``grid``, or the equal grid of the previous call; one entry, no more."""
    return grid


def to_grid(g: Gaussian, lower=None, upper=None, shape=None) -> GridDensity:
    """Sample ``g`` on a uniform grid and renormalize to absorb truncation.

    The grid is ``_grid_for([g], lower, upper, shape)``: by default ±8
    marginal standard deviations, 2048 nodes in one dimension and 257 per
    dimension in two. In one dimension the values are ``log_pdf`` of ``g``
    moved by -centre at the grid's offsets, which is ``log_pdf`` on the nodes
    where the centre is 0, exponentiated and normalized, bit for bit; in two,
    one matrix product (see ``_grid_log_pdf``) within 1e-13 * max(1, |log p|)
    of that for |rho| <= 0.97 and standard deviations from 1e-3 to 1e3.

    Raises
    ------
    DimensionError
        For dimensions above 2.
    DomainError
        Without bounds, where ``g``'s box is narrower than the float spacing at its mean.
    """
    return _on_grid(g, _grid_for([g], lower, upper, shape))


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


def common_grid(*inputs, points=None, names=None) -> tuple[GridDensity, ...]:
    """Every input on one shared grid, with Gaussians evaluated on it.

    Grid inputs fix the grid, and all of them must share it. Without one,
    the grid is ``_grid_for`` of the Gaussians: the union of their boxes,
    with ``points`` nodes per axis, or the default node counts when
    ``points`` is None. All outputs hold the same :class:`Grid` object.
    ``names``, one per input, name the inputs in either refusal below.

    Raises
    ------
    DimensionError
        If the inputs differ in dimension.
    GridMismatchError
        If two grid inputs live on different grids (see ``require_same_grid``).
    DomainError
        If a Gaussian's box is narrower than the float spacing at its mean (see ``_grid_for``).
    """
    dims = {d.grid.dims if isinstance(d, GridDensity) else d.dim for d in inputs}
    if len(dims) > 1:
        raise DimensionError(f"inputs mix dimensions {sorted(dims)}")
    gridded = [i for i, d in enumerate(inputs) if isinstance(d, GridDensity)]
    grids = [inputs[i].grid for i in gridded]
    if grids:
        require_same_grid(*grids, names=None if names is None else [names[i] for i in gridded])
        grid = grids[0]
    else:
        grid = _grid_for(inputs, shape=None if points is None else (points,) * inputs[0].dim, names=names)
    return tuple(d if isinstance(d, GridDensity) else _on_grid(d, grid) for d in inputs)


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
