"""Discrepancy measures between densities on a shared grid.

Kullback-Leibler divergence in both directions, the alpha-divergence family
and its argument-swapped form, Pearson chi-squared, squared L2 distance,
squared distances in an invertible transform space, cross-entropy, and a
generic f-divergence. All integrals use the grid's trapezoid rule. The
0 * log 0 := 0 limit convention applies wherever the first argument
vanishes.

Squared distances (`l2`, `chi_distance`) are returned squared: they are
used as optimization objectives, where the square root adds nothing.

Either density argument may be a closed-form Gaussian; both are put on
one grid by `gaussian.common_grid` first, so that every comparison runs
through a single quadrature pathway.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gaussian as gaussmod
from .errors import NotNormalizedError, PositivityError, SupportError
from .grid import GridDensity
from .pooling import ChiKind, ChiTransform


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
    kind: DivergenceKind
    alpha: float | None = None
    chi: ChiTransform | None = None

    def __post_init__(self):
        required = _DISPATCH[self.kind][0]
        for field in required:
            if getattr(self, field) is None:
                raise ValueError(f"{self.kind.value} divergence requires {field}")
        if "alpha" in required and self.alpha in (0.0, 1.0):
            raise ValueError("alpha may not be 0 or 1; those limits are the two KLDs")


def _as_grid_pair(p, q) -> tuple[GridDensity, GridDensity]:
    p, q = gaussmod.common_grid(p, q)
    if not (p.normalized and q.normalized):
        raise NotNormalizedError("divergences are defined between normalized densities")
    return p, q


def _check_dominates(p: GridDensity, q: GridDensity, what: str) -> None:
    # absolute continuity on the grid: q must be positive wherever p is
    if np.any((p.values > 0.0) & (q.values == 0.0)):
        raise SupportError(f"{what}: first density has mass where the second vanishes")


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
    terms[ok] = q.values[ok] * fx[ok]
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
    pos = pv > 0.0
    terms = np.zeros_like(pv)
    terms[pos] = pv[pos] * np.log(pv[pos] / qv[pos])
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
    if alpha in (0.0, 1.0):
        raise ValueError("alpha may not be 0 or 1; those limits are the two KLDs")
    p, q = _as_grid_pair(p, q)
    if alpha > 1.0:
        _check_dominates(p, q, "alpha-divergence")
    elif alpha < 0.0:
        _check_dominates(q, p, "alpha-divergence")
    pv, qv = p.values, q.values
    both = (pv > 0.0) & (qv > 0.0)
    terms = np.zeros_like(pv)
    terms[both] = np.exp(alpha * np.log(pv[both]) + (1.0 - alpha) * np.log(qv[both]))
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
    pos = q.values > 0.0
    terms = np.zeros_like(p.values)
    diff = p.values[pos] - q.values[pos]
    terms[pos] = diff * diff / q.values[pos]
    return p.grid.integral(terms)


def l2(p, q) -> float:
    """Squared L2 distance: integral (p - q)^2."""
    p, q = _as_grid_pair(p, q)
    diff = p.values - q.values
    return p.grid.integral(diff, diff)


def chi_distance(p, q, chi: ChiTransform) -> float:
    """Squared L2 distance between the transformed densities.

    chi = Identity reproduces `l2`; Log, Reciprocal and negative Power
    require both densities strictly positive.
    """
    p, q = _as_grid_pair(p, q)
    if chi.needs_positive:
        if not (float(p.values.min()) > 0.0 and float(q.values.min()) > 0.0):
            raise PositivityError(f"{chi.kind.value} transform distance needs positive densities")
    with np.errstate(over="ignore"):
        diff = _apply_chi(chi, p.values) - _apply_chi(chi, q.values)
        return p.grid.integral(diff, diff)


def _apply_chi(chi: ChiTransform, values: np.ndarray) -> np.ndarray:
    if chi.kind is ChiKind.IDENTITY:
        return values
    if chi.kind is ChiKind.LOG:
        return np.log(values)
    if chi.kind is ChiKind.RECIPROCAL:
        return 1.0 / values
    return values**chi.alpha


def entropy(p) -> float:
    """Differential entropy: minus the integral of p log p."""
    (p,) = gaussmod.common_grid(p)
    if not p.normalized:
        raise NotNormalizedError("entropy is defined for normalized densities")
    pos = p.values > 0.0
    terms = np.zeros_like(p.values)
    terms[pos] = p.values[pos] * np.log(p.values[pos])
    return -p.grid.integral(terms)


def cross_entropy(p, q) -> float:
    """Cross-entropy of q relative to p: minus the integral of p log q.

    Decomposes as kl(p, q) + entropy(p).
    """
    p, q = _as_grid_pair(p, q)
    _check_dominates(p, q, "cross-entropy")
    pos = p.values > 0.0
    terms = np.zeros_like(p.values)
    terms[pos] = p.values[pos] * np.log(q.values[pos])
    return -p.grid.integral(terms)


# kind -> (spec fields the kind cannot run without, call)
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
