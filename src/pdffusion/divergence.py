"""Discrepancy measures between densities on a shared grid.

Kullback-Leibler divergence in both directions, the alpha-divergence family
and its argument-swapped form, Pearson chi-squared, squared L2 distance,
squared distances in an invertible transform space, cross-entropy, and a
generic f-divergence. All integrals use the grid's trapezoid rule. The
0 * log 0 := 0 limit convention applies wherever the first argument
vanishes.

Squared distances (`l2`, `chi_distance`) are returned squared: they are
used as optimization objectives, where the square root adds nothing.
Transform distances apply the `ChiTransform` itself, ``chi(values)``.

Either density argument may be a closed-form Gaussian; both are put on
one grid by `gaussian.common_grid` first, so that every comparison runs
through a single quadrature pathway.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BoundednessError, NotNormalizedError, PositivityError, SupportError
from .gaussian import common_grid
from .grid import GridDensity
from .pooling import ChiTransform, check_fields


class DivergenceKind(enum.Enum):
    KL = "kl"
    REVERSE_KL = "reverse-kl"
    ALPHA = "alpha"
    REVERSE_ALPHA = "reverse-alpha"
    PEARSON_CHI2 = "pearson-chi2"
    L2 = "l2"
    CHI_DISTANCE = "chi-distance"


@dataclass(frozen=True)
class DivergenceSpec:
    """A divergence by kind, with exactly the fields that kind reads set."""

    kind: DivergenceKind
    alpha: float | None = None
    chi: ChiTransform | None = None

    def __post_init__(self):
        reads = _DISPATCH[self.kind][0]
        check_fields(self, reads, "divergence")
        if "alpha" in reads:
            _check_alpha(self.alpha)


def _check_alpha(alpha: float) -> None:
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    if alpha in (0.0, 1.0):
        raise ValueError("alpha may not be 0 or 1; those limits are the two KLDs")


def _as_grid_pair(p, q) -> tuple[GridDensity, GridDensity]:
    p, q = common_grid(p, q)
    if not (p.normalized and q.normalized):
        raise NotNormalizedError("divergences are defined between normalized densities")
    return p, q


def _check_dominates(p: GridDensity, q: GridDensity, what: str) -> None:
    # absolute continuity on the grid: q must be positive wherever p is
    if not q.positive and np.any((p.values > 0.0) & (q.values == 0.0)):
        raise SupportError(f"{what}: first density has mass where the second vanishes")


def _support(*densities: GridDensity):
    """The ``where=`` mask of the nodes where every density is positive, and a
    buffer for terms there, zero elsewhere.

    When every density is positive the mask is ``True``, which numpy's
    ufuncs run as no mask, and the buffer is left unset: every node is
    written. The terms are the same bits either way.
    """
    values = densities[0].values
    if all(d.positive for d in densities):
        return True, np.empty_like(values)
    mask = values > 0.0
    for d in densities[1:]:
        mask &= d.values > 0.0
    return mask, np.zeros_like(values)


def f_divergence(p, q, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Generic f-divergence: integral of q * f(p/q) for convex f, f(1) = 0.

    Where p vanishes, terms whose limit convention makes them vanish
    (f(0) undefined as 0 * log 0) contribute zero; a genuinely finite f(0)
    contributes q * f(0).
    """
    p, q = _as_grid_pair(p, q)
    _check_dominates(p, q, "f-divergence")
    pos = q.values > 0.0
    ratio = np.ones_like(p.values)
    np.divide(p.values, q.values, out=ratio, where=pos)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fx = np.asarray(f(ratio), dtype=np.float64)
    terms = np.zeros_like(fx)
    ok = pos & np.isfinite(fx)
    np.multiply(q.values, fx, out=terms, where=ok)
    # 0 * log 0 style limits: p = 0 with non-finite f(0) contributes nothing
    bad = pos & ~np.isfinite(fx) & (p.values > 0.0)
    if np.any(bad):
        raise SupportError("f produced non-finite values where p is positive")
    return q.grid.integral(terms)


def kl(p, q) -> float:
    """Kullback-Leibler divergence of p from q: integral p log(p/q)."""
    p, q = _as_grid_pair(p, q)
    _check_dominates(p, q, "KL divergence")
    pv, qv = p.values, q.values
    pos, terms = _support(p)
    np.divide(pv, qv, out=terms, where=pos)
    np.log(terms, out=terms, where=pos)
    np.multiply(pv, terms, out=terms, where=pos)
    return p.grid.integral(terms)


def reverse_kl(p, q) -> float:
    """KL divergence with arguments swapped: integral q log(q/p)."""
    return kl(q, p)


def alpha_div(p, q, alpha: float) -> float:
    """Alpha-divergence (integral p^a q^(1-a) - 1) / (a(a-1)).

    The alpha -> 1 limit is kl(p, q) and the alpha -> 0 limit is kl(q, p);
    both are excluded here and must be requested as KLDs. Pearson
    chi-squared is twice the alpha = 2 member.
    """
    alpha = float(alpha)
    _check_alpha(alpha)
    p, q = _as_grid_pair(p, q)
    if alpha > 1.0:
        _check_dominates(p, q, "alpha-divergence")
    elif alpha < 0.0:
        _check_dominates(q, p, "alpha-divergence")
    pv, qv = p.values, q.values
    both, terms = _support(p, q)
    log_q = np.empty_like(qv)
    np.log(pv, out=terms, where=both)
    np.multiply(alpha, terms, out=terms, where=both)
    np.log(qv, out=log_q, where=both)
    np.multiply(1.0 - alpha, log_q, out=log_q, where=both)
    np.add(terms, log_q, out=terms, where=both)
    np.exp(terms, out=terms, where=both)
    integral = p.grid.integral(terms)
    return (integral - 1.0) / (alpha * (alpha - 1.0))


def reverse_alpha_div(p, q, alpha: float) -> float:
    """Alpha-divergence with the arguments swapped.

    Equals alpha_div(p, q, 1 - alpha): swapping arguments is the same as
    reflecting the order parameter around one half.
    """
    return alpha_div(q, p, alpha)


def pearson_chi2(p, q) -> float:
    """Pearson chi-squared divergence: integral (p - q)^2 / q."""
    p, q = _as_grid_pair(p, q)
    _check_dominates(p, q, "Pearson chi-squared")
    pos, terms = _support(q)
    np.subtract(p.values, q.values, out=terms, where=pos)
    np.multiply(terms, terms, out=terms, where=pos)
    np.divide(terms, q.values, out=terms, where=pos)
    return p.grid.integral(terms)


def l2(p, q) -> float:
    """Squared L2 distance: integral (p - q)^2."""
    p, q = _as_grid_pair(p, q)
    diff = p.values - q.values
    return p.grid.integral(diff, diff)


def chi_distance(p, q, chi: ChiTransform) -> float:
    """Squared L2 distance between the transformed densities.

    chi = Identity reproduces `l2`; Log, Reciprocal and negative Power
    require both densities strictly positive. Raises BoundednessError when a
    power of a density overflows, so that the integral is not finite.
    """
    p, q = _as_grid_pair(p, q)
    if chi.needs_positive and not (p.positive and q.positive):
        raise PositivityError(f"{chi.kind.value} transform distance needs positive densities")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = chi(p.values) - chi(q.values)
        value = p.grid.integral(diff, diff)
    if not np.isfinite(value):
        raise BoundednessError(f"{chi.kind.value} transform distance is {value}: a density's power overflows")
    return value


def entropy(p) -> float:
    """Differential entropy: minus the integral of p log p, the cross-entropy of p with itself."""
    (p,) = common_grid(p)
    return cross_entropy(p, p)


def cross_entropy(p, q) -> float:
    """Cross-entropy of q relative to p: minus the integral of p log q.

    Decomposes as kl(p, q) + entropy(p).
    """
    p, q = _as_grid_pair(p, q)
    _check_dominates(p, q, "cross-entropy")
    pos, terms = _support(p)
    np.log(q.values, out=terms, where=pos)
    np.multiply(p.values, terms, out=terms, where=pos)
    return -p.grid.integral(terms)


# kind -> (spec fields the kind reads, call)
_DISPATCH = {
    DivergenceKind.KL: ((), lambda s, p, q: kl(p, q)),
    DivergenceKind.REVERSE_KL: ((), lambda s, p, q: reverse_kl(p, q)),
    DivergenceKind.ALPHA: (("alpha",), lambda s, p, q: alpha_div(p, q, s.alpha)),
    DivergenceKind.REVERSE_ALPHA: (("alpha",), lambda s, p, q: reverse_alpha_div(p, q, s.alpha)),
    DivergenceKind.PEARSON_CHI2: ((), lambda s, p, q: pearson_chi2(p, q)),
    DivergenceKind.L2: ((), lambda s, p, q: l2(p, q)),
    DivergenceKind.CHI_DISTANCE: (("chi",), lambda s, p, q: chi_distance(p, q, s.chi)),
}


def evaluate(spec: DivergenceSpec, p, q) -> float:
    """Evaluate a declaratively specified divergence."""
    return _DISPATCH[spec.kind][1](spec, p, q)
