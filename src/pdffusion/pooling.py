"""Pooling functions: maps from an opinion profile to one aggregate pdf.

Covers the arithmetic-average family (linear, generalized linear), the
geometric-average family (log-linear, generalized log-linear), power means
(Holder, inverse-linear), the multiplicative family with a calibrating pdf,
the trivial dictatorship and dogmatic rules, and pooling through an
invertible pointwise transform. Also provides the Bayesian update operator
that the commutativity axioms are stated with.

Power means (Holder, inverse-linear, chi-transform) and their exponent-0
limits (log-linear, multiplicative) run through one kernel on the members'
logs, shifted by the maximum before one exp, so that grid tails near 1e-300
neither underflow nor overflow a power before they can cancel. The linear
pool adds values, and the Bayesian update multiplies values directly.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np

from .errors import PositivityError, SimplexError
from .errors import check_simplex, finite_number, finite_vector, whole_number
from .grid import GridDensity, OpinionProfile, adopt_normalized, frozen, grid_shaped, normalize, require_same_grid

# Holder exponents this close to zero are numerically meaningless; the limit
# is the log-linear pool and must be requested as such.
ALPHA_ZERO_BAND = 1e-6


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


# the pool each transform reproduces; a transform's exponent and its pooling are that pool's
_CHI_POOLS = {ChiKind.IDENTITY: PoolingKind.LINEAR, ChiKind.LOG: PoolingKind.LOG_LINEAR,
              ChiKind.RECIPROCAL: PoolingKind.INVERSE_LINEAR, ChiKind.POWER: PoolingKind.HOLDER}


def _needs_positive(exponent: float) -> bool:
    """A power mean of exponent <= 0 (0: the log limit) needs a strictly positive profile."""
    return exponent <= 0.0


def _power_exponent(alpha, what: str = "Holder exponent") -> float:
    """``alpha`` as a finite float (`finite_number`); ValueError naming ``what`` inside the band around 0."""
    alpha = finite_number(alpha, what)
    if abs(alpha) < ALPHA_ZERO_BAND:
        raise ValueError(f"{what} too close to 0 for a stable power mean; request its log limit instead")
    return alpha


@dataclass(frozen=True)
class ChiTransform:
    """An invertible pointwise transform on (0, inf) used for pooling.

    Each kind is chi(q) = q^p for its `exponent` p, with 0 standing for the
    p -> 0 limit log q: the exponent of the pool it reproduces (`_CHI_POOLS`).
    """

    kind: ChiKind
    alpha: float | None = None

    def __post_init__(self):
        if self.kind is ChiKind.POWER:
            if self.alpha is None:
                raise ValueError("Power transform requires alpha")
            object.__setattr__(self, "alpha", _power_exponent(self.alpha, "Power transform alpha"))
        elif self.alpha is not None:
            raise ValueError(f"alpha is only meaningful for Power, not {self.kind.value}")

    @property
    def exponent(self) -> float:  # Power's alpha, else that of the pool it reproduces in _DISPATCH
        return self.alpha if self.alpha is not None else _DISPATCH[_CHI_POOLS[self.kind]][1]

    @property
    def needs_positive(self) -> bool:
        return _needs_positive(self.exponent)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """chi(values): their log at exponent 0, else ``values ** exponent``."""
        return np.log(values) if self.exponent == 0.0 else values**self.exponent


@dataclass(frozen=True)
class PoolingSpec:
    """Declarative description of a pooling rule, used by the axiom harness and the command line
    front end. Construction raises ValueError unless the spec sets exactly the optional fields its
    kind reads (`fields_read`), the companions q0 and xi0 aside, which `pool` needs. ``weights`` becomes
    a read-only float64 array, ``alpha`` a float, ``dictator`` an int; `exponent` decides `needs_positive`."""

    kind: PoolingKind
    weights: np.ndarray | None = None
    alpha: float | None = None
    q0: GridDensity | None = None
    w0: float | None = None
    xi0: np.ndarray | None = None
    dictator: int | None = None
    chi: ChiTransform | None = None

    def __post_init__(self):
        check_fields(self, fields_read(self.kind), "pooling", optional=("q0", "xi0"))
        if self.weights is not None:
            object.__setattr__(self, "weights", frozen(np.array(self.weights, dtype=np.float64)))
        if self.alpha is not None:
            object.__setattr__(self, "alpha", _power_exponent(self.alpha))
        if self.dictator is not None:
            object.__setattr__(self, "dictator", whole_number(self.dictator, "dictator index"))

    @property
    def exponent(self) -> float | None:
        """The exponent of the power mean the spec pools by (0: the log limit): chi's, alpha, or its
        kind's in `_DISPATCH`; None for dictatorship and dogmatic, which are not power means."""
        if self.chi is not None:
            return self.chi.exponent
        return self.alpha if self.alpha is not None else _DISPATCH[self.kind][1]

    @property
    def needs_positive(self) -> bool:
        """Whether the pool needs a strictly positive profile: a power mean of `exponent` <= 0."""
        return self.exponent is not None and _needs_positive(self.exponent)


def _weighted_sum(w: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``np.tensordot(w, stack, axes=1)``, the same product, into a fresh owned array."""
    out = np.empty(stack.shape[1:])
    np.dot(w[None, :], stack.reshape(len(w), -1), out=out.reshape(1, -1))
    return out


def _power_mean(profile: OpinionProfile, w: np.ndarray, alpha: float, op: str, extra=None) -> GridDensity:
    """Normalized weighted power mean of the members, times exp(``extra``), from their logs L.

    log M_alpha = (t + log sum_k exp(alpha L_k + log w_k - t)) / alpha, with t
    the largest term at each node, and w . L at alpha = 0. Nodes where every
    weighted member is zero stay exactly zero. The one home of the positivity
    rule: at alpha <= 0 a zero in the profile raises PositivityError naming ``op``.
    """
    if _needs_positive(alpha) and not profile.positive:
        raise PositivityError(f"{op} requires a strictly positive opinion profile")
    with np.errstate(divide="ignore"):  # log 0 = -inf stands for the zero
        logs = profile.log_values
        if alpha == 0.0:
            out = _weighted_sum(w, logs)
        else:
            logs *= alpha
            logs += np.log(w).reshape((-1,) + (1,) * profile.grid.dims)
            out = logs.max(axis=0)
            np.copyto(out, 0.0, where=out == -np.inf)  # every term is 0: keep their sum 0, not nan
            logs -= out
            total = np.exp(logs, out=logs)[0]
            for row in logs[1:]:
                total += row
            out += np.log(total, out=total)
            out /= alpha
    if extra is not None:
        out += extra
    out -= out.max()
    return adopt_normalized(profile.grid, np.exp(out, out=out))


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
        combined = _weighted_sum(w, profile.values)
        return GridDensity(profile.grid, frozen(combined))
    require_same_grid(profile.grid, q0.grid)
    full = check_simplex(np.concatenate([[float(w0)], np.atleast_1d(weights)]), profile.K + 1)
    combined = _weighted_sum(full[1:], profile.values)
    combined += full[0] * q0.values
    return GridDensity(profile.grid, frozen(combined))


def _check_xi0(profile: OpinionProfile, xi0) -> np.ndarray:
    xi = grid_shaped(xi0, profile.grid, "xi0")
    if not (np.all(np.isfinite(xi)) and np.all(xi > 0.0)):
        raise PositivityError("xi0 must be finite and strictly positive")
    return xi


def log_linear_pool(profile: OpinionProfile, weights, xi0=None) -> GridDensity:
    """Normalized weighted geometric average of the agent densities.

    ``xi0``, when given, is an arbitrary bounded positive function (node
    values) multiplied into the product before normalization.
    """
    w = check_simplex(weights, profile.K)
    extra = None if xi0 is None else np.log(_check_xi0(profile, xi0))
    return _power_mean(profile, w, 0.0, "log-linear pooling", extra)


def holder_pool(profile: OpinionProfile, weights, alpha: float) -> GridDensity:
    """Normalized weighted power mean with exponent ``alpha``.

    alpha=1 is the linear pool, alpha=-1 the inverse-linear pool, and the
    alpha->0 limit is the log-linear pool (request it explicitly: exponents
    inside (-1e-6, 1e-6) are rejected).

    Raises
    ------
    PositivityError
        If alpha < 0 and the profile has a zero.
    """
    alpha = _power_exponent(alpha)
    return _power_mean(profile, check_simplex(weights, profile.K), alpha, "negative-exponent Holder pooling")


def inverse_linear_pool(profile: OpinionProfile, weights) -> GridDensity:
    """Normalized weighted harmonic average; the alpha=-1 power mean."""
    return holder_pool(profile, weights, -1.0)


def multiplicative_pool(profile: OpinionProfile, q0: GridDensity, weights=None) -> GridDensity:
    """Product-of-ratios pooling against a calibrating pdf.

    Computes the normalization of q0^(1 - sum w) * prod q_k^{w_k}, i.e.
    q0 * prod (q_k/q0)^{w_k}, in logs. Weights default to all ones (the
    plain product rule) and may be arbitrary reals otherwise. A product
    without a finite integral is not detected: the grid truncates it.

    Raises
    ------
    PositivityError
        If the profile or q0 has a zero.
    """
    require_same_grid(profile.grid, q0.grid)
    if not q0.positive:
        raise PositivityError("calibrating pdf must be strictly positive")
    w = np.ones(profile.K) if weights is None else finite_vector(weights, profile.K, "weights", SimplexError)
    log_q0 = np.log(q0.values)
    log_q0 *= 1.0 - w.sum()
    return _power_mean(profile, w, 0.0, "multiplicative pooling", log_q0)


def dictatorship_pool(profile: OpinionProfile, k: int) -> GridDensity:
    """Agent ``k``'s density, 1-based, ignoring everyone else."""
    k = whole_number(k, "dictator index")
    if not 1 <= k <= profile.K:
        raise IndexError(f"dictator index {k} outside 1..{profile.K}")
    return profile.densities[k - 1]


def dogmatic_pool(profile: OpinionProfile, q0: GridDensity) -> GridDensity:
    """The fixed density ``q0``, ignoring the profile entirely."""
    require_same_grid(profile.grid, q0.grid)
    return q0


def bayes_update(q: GridDensity, ell) -> GridDensity:
    """Multiply a density by a nonnegative likelihood and renormalize."""
    ell = grid_shaped(ell, q.grid, "likelihood")
    if np.any(ell < 0.0) or not np.all(np.isfinite(ell)):
        raise ValueError("likelihood values must be finite and nonnegative")
    return adopt_normalized(q.grid, q.values * ell)


def chi_transform_pool(profile: OpinionProfile, weights, chi: ChiTransform) -> GridDensity:
    """Pool by averaging in transform space: chi^{-1}(sum w_k chi(q_k)), normalized.

    Computed, validated and refused as the pool ``chi`` reproduces (`_CHI_POOLS`);
    the linear pool's result is passed through `normalize`.
    """
    kind = _CHI_POOLS[chi.kind]
    pooled = _DISPATCH[kind][2](PoolingSpec(kind, weights=weights, alpha=chi.alpha), profile)
    return normalize(pooled) if kind is PoolingKind.LINEAR else pooled


# kind -> (spec fields the kind reads, exponent of its power mean, call); the exponent is None where
# the spec supplies it (Holder's alpha, the transform's chi) and where the rule is not a power mean
_DISPATCH = {
    PoolingKind.LINEAR: (("weights",), 1.0, lambda s, p: linear_pool(p, s.weights)),
    PoolingKind.GENERALIZED_LINEAR: (("weights", "q0", "w0"), 1.0, lambda s, p: linear_pool(p, s.weights, s.q0, s.w0)),
    PoolingKind.LOG_LINEAR: (("weights",), 0.0, lambda s, p: log_linear_pool(p, s.weights)),
    PoolingKind.GENERALIZED_LOG_LINEAR: (("weights", "xi0"), 0.0, lambda s, p: log_linear_pool(p, s.weights, s.xi0)),
    PoolingKind.HOLDER: (("weights", "alpha"), None, lambda s, p: holder_pool(p, s.weights, s.alpha)),
    PoolingKind.INVERSE_LINEAR: (("weights",), -1.0, lambda s, p: inverse_linear_pool(p, s.weights)),
    PoolingKind.MULTIPLICATIVE: (("q0",), 0.0, lambda s, p: multiplicative_pool(p, s.q0)),
    PoolingKind.GENERALIZED_MULTIPLICATIVE: (("weights", "q0"), 0.0, lambda s, p: multiplicative_pool(p, s.q0, s.weights)),
    PoolingKind.DICTATORSHIP: (("dictator",), None, lambda s, p: dictatorship_pool(p, s.dictator)),
    PoolingKind.DOGMATIC: (("q0",), None, lambda s, p: dogmatic_pool(p, s.q0)),
    PoolingKind.CHI_TRANSFORM: (("weights", "chi"), None, lambda s, p: chi_transform_pool(p, s.weights, s.chi)),
}


def fields_read(kind: PoolingKind) -> tuple[str, ...]:
    """The optional `PoolingSpec` fields that pooling of this kind reads."""
    return _DISPATCH[kind][0]


def check_fields(spec, reads: tuple[str, ...], rule: str, optional: tuple[str, ...] = ()) -> None:
    """Raise ValueError unless ``spec`` sets the fields in ``reads``, those in ``optional`` aside, and no other."""
    for field in fields(spec)[1:]:  # every field but kind
        unset = getattr(spec, field.name) is None
        if unset == (field.name in reads) and not (unset and field.name in optional):
            verb = "requires" if field.name in reads else "does not take"
            raise ValueError(f"{spec.kind.value} {rule} {verb} {field.name}")


def pool(spec: PoolingSpec, profile: OpinionProfile) -> GridDensity:
    """Apply a declaratively specified pooling rule to a profile; the companions it reads must be set."""
    reads, _, call = _DISPATCH[spec.kind]
    check_fields(spec, reads, "pooling")
    return call(spec, profile)
