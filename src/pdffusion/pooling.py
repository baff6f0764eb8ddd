"""Pooling functions: maps from an opinion profile to one aggregate pdf.

Covers the arithmetic-average family (linear, generalized linear), the
geometric-average family (log-linear, generalized log-linear), power means
(Holder, inverse-linear), the multiplicative family with a calibrating pdf,
the trivial dictatorship and dogmatic rules, and pooling through an
invertible pointwise transform. Also provides the Bayesian update operator
that the commutativity axioms are stated with.

All products and powers of densities are computed in log space so that grid
tails near 1e-300 do not underflow before they can cancel.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import grid as gridmod
from .errors import (
    BoundednessError,
    DegenerateError,
    GridMismatchError,
    PositivityError,
    SimplexError,
)
from .gaussian import check_simplex
from .grid import GridDensity, OpinionProfile

# Holder exponents this close to zero are numerically meaningless; the limit
# is the log-linear pool and must be requested as such.
ALPHA_ZERO_BAND = 1e-6

# exp() overflows just above 709; ratios whose log exceeds this are unbounded
# for the purposes of the multiplicative family.
LOG_OVERFLOW = 700.0


class PoolingKind(enum.Enum):
    LINEAR = "linear"
    GENERALIZED_LINEAR = "generalized-linear"
    LOG_LINEAR = "log-linear"
    GENERALIZED_LOG_LINEAR = "generalized-log-linear"
    HOLDER = "holder"
    INVERSE_LINEAR = "inverse-linear"
    MULTIPLICATIVE = "multiplicative"
    GENERALIZED_MULTIPLICATIVE = "generalized-multiplicative"
    DICTATORSHIP = "dictatorship"
    DOGMATIC = "dogmatic"
    CHI_TRANSFORM = "chi-transform"


class ChiKind(enum.Enum):
    IDENTITY = "identity"
    LOG = "log"
    RECIPROCAL = "reciprocal"
    POWER = "power"


@dataclass(frozen=True)
class ChiTransform:
    """An invertible pointwise transform on (0, inf) used for pooling.

    Identity reproduces linear pooling, Log reproduces log-linear,
    Reciprocal reproduces inverse-linear, Power(alpha) reproduces Holder.
    """

    kind: ChiKind
    alpha: float | None = None

    def __post_init__(self):
        if self.kind is ChiKind.POWER:
            if self.alpha is None or abs(self.alpha) < ALPHA_ZERO_BAND:
                raise ValueError("Power transform needs alpha away from 0; use Log for the limit")
        elif self.alpha is not None:
            raise ValueError(f"alpha is only meaningful for Power, not {self.kind.value}")

    @property
    def needs_positive(self) -> bool:
        return self.kind in (ChiKind.LOG, ChiKind.RECIPROCAL) or (
            self.kind is ChiKind.POWER and self.alpha < 0
        )


@dataclass(frozen=True)
class PoolingSpec:
    """Declarative description of a pooling rule, used by the axiom harness
    and the command line front end."""

    kind: PoolingKind
    weights: np.ndarray | None = None
    alpha: float | None = None
    q0: GridDensity | None = None
    w0: float | None = None
    xi0: np.ndarray | None = None
    dictator: int | None = None
    chi: ChiTransform | None = None


def _require_positive(profile: OpinionProfile, op: str) -> None:
    if not profile.positive:
        raise PositivityError(f"{op} requires a strictly positive opinion profile")


def _finish(profile: OpinionProfile, values: np.ndarray) -> GridDensity:
    return gridmod.normalize(GridDensity(profile.grid, values))


def linear_pool(
    profile: OpinionProfile,
    weights,
    q0: GridDensity | None = None,
    w0: float | None = None,
) -> GridDensity:
    """Weighted arithmetic average of the agent densities.

    With ``q0`` and ``w0`` supplied, the average includes an extra fixed
    member with weight ``w0`` and the full weight vector (w0, w_1, ..., w_K)
    must lie on the simplex. The output is the pointwise combination with no
    renormalization: convex combinations of pdfs already integrate to one,
    and renormalizing would break the exact-zero preservation this family is
    valued for.
    """
    if (q0 is None) != (w0 is None):
        raise ValueError("q0 and w0 must be supplied together")
    if q0 is None:
        w = check_simplex(weights, profile.K)
        combined = np.tensordot(w, profile.values, axes=1)
        flag = all(q.normalized for q in profile.densities)
        return GridDensity(profile.grid, combined, normalized=flag)
    gridmod.require_same_grid(profile.grid, q0.grid)
    full = check_simplex(np.concatenate([[float(w0)], np.atleast_1d(weights)]), profile.K + 1)
    combined = np.tensordot(full[1:], profile.values, axes=1) + full[0] * q0.values
    flag = all(q.normalized for q in profile.densities) and q0.normalized
    return GridDensity(profile.grid, combined, normalized=flag)


def _check_xi0(profile: OpinionProfile, xi0) -> np.ndarray:
    xi = np.asarray(xi0, dtype=np.float64)
    if xi.shape != profile.grid.shape:
        raise GridMismatchError(f"xi0 shape {xi.shape} does not match grid {profile.grid.shape}")
    if not np.all(np.isfinite(xi)):
        raise PositivityError("xi0 must be finite (bounded on the grid)")
    if np.any(xi <= 0.0):
        raise PositivityError("xi0 must be strictly positive")
    return xi


def log_linear_pool(profile: OpinionProfile, weights, xi0=None) -> GridDensity:
    """Normalized weighted geometric average of the agent densities.

    ``xi0``, when given, is an arbitrary bounded positive function (node
    values) multiplied into the product before normalization.
    """
    _require_positive(profile, "log-linear pooling")
    w = check_simplex(weights, profile.K)
    logs = np.tensordot(w, np.log(profile.values), axes=1)
    if xi0 is not None:
        logs = logs + np.log(_check_xi0(profile, xi0))
    return _finish(profile, np.exp(logs - logs.max()))


def holder_pool(profile: OpinionProfile, weights, alpha: float) -> GridDensity:
    """Normalized weighted power mean with exponent ``alpha``.

    alpha=1 is the linear pool, alpha=-1 the inverse-linear pool, and the
    alpha->0 limit is the log-linear pool (request it explicitly: exponents
    inside (-1e-6, 1e-6) are rejected).
    """
    alpha = float(alpha)
    if abs(alpha) < ALPHA_ZERO_BAND:
        raise ValueError(
            "alpha too close to 0 for a stable power mean; use log_linear_pool for the limit"
        )
    if alpha < 0.0:
        _require_positive(profile, "negative-exponent Holder pooling")
    w = check_simplex(weights, profile.K)
    stack = profile.values
    # factor out the pointwise max so ratios stay in [0, 1] before powering
    m = stack.max(axis=0)
    pos = m > 0.0
    ratios = np.ones_like(stack)
    np.divide(stack, m, out=ratios, where=pos[None, ...])
    inner = np.tensordot(w, ratios**alpha, axes=1)
    combined = np.zeros_like(m)
    combined[pos] = m[pos] * inner[pos] ** (1.0 / alpha)
    return _finish(profile, combined)


def inverse_linear_pool(profile: OpinionProfile, weights) -> GridDensity:
    """Normalized weighted harmonic average; the alpha=-1 power mean."""
    return holder_pool(profile, weights, -1.0)


def multiplicative_pool(profile: OpinionProfile, q0: GridDensity, weights=None) -> GridDensity:
    """Product-of-ratios pooling against a calibrating pdf.

    Computes the normalization of q0^(1 - sum w) * prod q_k^{w_k}, i.e.
    q0 * prod (q_k/q0)^{w_k}. Weights default to all ones (the plain
    product rule) and may be arbitrary reals otherwise.

    Raises
    ------
    PositivityError
        If the profile or q0 has a zero.
    BoundednessError
        If some weighted log ratio exceeds the overflow threshold.
    """
    _require_positive(profile, "multiplicative pooling")
    gridmod.require_same_grid(profile.grid, q0.grid)
    if not float(q0.values.min()) > 0.0:
        raise PositivityError("calibrating pdf must be strictly positive")
    K = profile.K
    w = np.ones(K) if weights is None else np.atleast_1d(np.asarray(weights, dtype=np.float64))
    if w.shape != (K,):
        raise SimplexError(f"weights must have length {K}, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise SimplexError("weights must be finite")
    log_q0 = np.log(q0.values)
    log_ratios = np.log(profile.values) - log_q0[None, ...]
    weighted = w.reshape((K,) + (1,) * profile.grid.dims) * log_ratios
    worst = float(np.max(np.abs(weighted)))
    if worst > LOG_OVERFLOW:
        raise BoundednessError(
            f"weighted density ratio has log magnitude {worst:.1f}, beyond {LOG_OVERFLOW:g}"
        )
    logs = log_q0 + weighted.sum(axis=0)
    return _finish(profile, np.exp(logs - logs.max()))


def dictatorship_pool(profile: OpinionProfile, k: int) -> GridDensity:
    """Agent ``k``'s density, 1-based, ignoring everyone else."""
    k = int(k)
    if not 1 <= k <= profile.K:
        raise IndexError(f"dictator index {k} outside 1..{profile.K}")
    return profile.densities[k - 1]


def dogmatic_pool(profile: OpinionProfile, q0: GridDensity) -> GridDensity:
    """The fixed density ``q0``, ignoring the profile entirely."""
    gridmod.require_same_grid(profile.grid, q0.grid)
    return q0


def bayes_update(q: GridDensity, ell) -> GridDensity:
    """Multiply a density by a nonnegative likelihood and renormalize."""
    ell = np.asarray(ell, dtype=np.float64)
    if ell.shape != q.grid.shape:
        raise GridMismatchError(f"likelihood shape {ell.shape} does not match grid {q.grid.shape}")
    if np.any(ell < 0.0) or not np.all(np.isfinite(ell)):
        raise ValueError("likelihood values must be finite and nonnegative")
    return gridmod.normalize(GridDensity(q.grid, q.values * ell))


def chi_transform_pool(profile: OpinionProfile, weights, chi: ChiTransform) -> GridDensity:
    """Pool by averaging in transform space: chi^{-1}(sum w_k chi(q_k)).

    The result is normalized. Identity, Log, Reciprocal and Power(alpha)
    are the linear, log-linear, inverse-linear and Holder pools, and are
    computed by them.
    """
    if chi.kind is ChiKind.IDENTITY:
        return gridmod.normalize(linear_pool(profile, weights))
    if chi.kind is ChiKind.LOG:
        return log_linear_pool(profile, weights)
    if chi.kind is ChiKind.RECIPROCAL:
        return inverse_linear_pool(profile, weights)
    return holder_pool(profile, weights, chi.alpha)


# kind -> (spec fields the kind cannot run without, call)
_DISPATCH = {
    PoolingKind.LINEAR: ((), lambda s, p: linear_pool(p, s.weights)),
    PoolingKind.GENERALIZED_LINEAR: ((), lambda s, p: linear_pool(p, s.weights, q0=s.q0, w0=s.w0)),
    PoolingKind.LOG_LINEAR: ((), lambda s, p: log_linear_pool(p, s.weights)),
    PoolingKind.GENERALIZED_LOG_LINEAR: ((), lambda s, p: log_linear_pool(p, s.weights, xi0=s.xi0)),
    PoolingKind.HOLDER: (("alpha",), lambda s, p: holder_pool(p, s.weights, s.alpha)),
    PoolingKind.INVERSE_LINEAR: ((), lambda s, p: inverse_linear_pool(p, s.weights)),
    PoolingKind.MULTIPLICATIVE: (("q0",), lambda s, p: multiplicative_pool(p, s.q0)),
    PoolingKind.GENERALIZED_MULTIPLICATIVE: (("q0",), lambda s, p: multiplicative_pool(p, s.q0, s.weights)),
    PoolingKind.DICTATORSHIP: (("dictator",), lambda s, p: dictatorship_pool(p, s.dictator)),
    PoolingKind.DOGMATIC: (("q0",), lambda s, p: dogmatic_pool(p, s.q0)),
    PoolingKind.CHI_TRANSFORM: (("chi",), lambda s, p: chi_transform_pool(p, s.weights, s.chi)),
}


def pool(spec: PoolingSpec, profile: OpinionProfile) -> GridDensity:
    """Apply a declaratively specified pooling rule to a profile."""
    required, call = _DISPATCH[spec.kind]
    for field in required:
        if getattr(spec, field) is None:
            raise ValueError(f"{spec.kind.value} pooling requires {field}")
    return call(spec, profile)
