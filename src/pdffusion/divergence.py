"""Discrepancy measures between densities on a shared grid.

Kullback-Leibler divergence in both directions, the alpha-divergence family
and its argument-swapped form, Pearson chi-squared, squared L2 distance,
squared distances in an invertible transform space, cross-entropy, and a
generic f-divergence.

Squared distances (`l2`, `chi_distance`) are returned squared: they are
used as optimization objectives, where the square root adds nothing.
Transform distances apply the `ChiTransform` itself, ``chi(values)``.

Every divergence is one integrand on one path, `_integral`: the pair goes
on one grid by `gaussian.common_grid` (a closed-form Gaussian argument is
evaluated there once), must be normalized and meet the kind's support
rule; the integrand runs on every node without masks, and the product of
its node arrays is integrated by the grid's trapezoid rule. Zero
convention: where a kind's support rule lets a density vanish (0 * log 0,
0/0, -inf + inf), a nan term counts as its limit, 0. The kinds without
such a rule have no nan terms there.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BoundednessError, NotNormalizedError, PositivityError, SupportError, finite_number
from .gaussian import common_grid
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
    """A divergence by kind, with exactly the fields that kind reads set; ``alpha`` becomes a float."""

    kind: DivergenceKind
    alpha: float | None = None
    chi: ChiTransform | None = None

    def __post_init__(self):
        reads = _DISPATCH[self.kind][0]
        check_fields(self, reads, "divergence")
        if "alpha" in reads:
            alpha = finite_number(self.alpha, "alpha")
            if alpha in (0.0, 1.0):
                raise ValueError("alpha may not be 0 or 1; those limits are the two KLDs")
            object.__setattr__(self, "alpha", alpha)


def require_normalized(*densities) -> None:
    """NotNormalizedError unless every density integrates to one, as a divergence's arguments must."""
    if not all(d.normalized for d in densities):
        raise NotNormalizedError("divergences are defined between normalized densities")


def _integral(p, q, what: str, integrand, support: str | None = None) -> float:
    """The path of every divergence (see the module docstring): the integral
    of the product of the node arrays that ``integrand(p.values, q.values)`` returns.

    ``support``: ``"p"``, p must vanish wherever q does, ``"q"`` the converse
    (SupportError), ``"positive"`` both strictly positive (PositivityError).
    """
    p, q = common_grid(p, q)
    require_normalized(p, q)
    if support == "positive" and not (p.positive and q.positive):
        raise PositivityError(f"{what} needs positive densities")
    if support in ("p", "q"):
        dominated, reference = (p, q) if support == "p" else (q, p)
        if not reference.positive and np.any((dominated.values > 0.0) & (reference.values == 0.0)):
            first, second = ("first", "second") if support == "p" else ("second", "first")
            raise SupportError(f"{what}: {first} density has mass where the {second} vanishes")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        factors = integrand(p.values, q.values)
        if support in ("p", "q") and not dominated.positive:
            # the zero convention; the reference vanishes only where the dominated density does
            vanish = dominated.values == 0.0
            for terms in factors:
                terms[vanish & np.isnan(terms)] = 0.0
        return p.grid.integral(*factors)


def f_divergence(p, q, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Generic f-divergence: integral of q * f(p/q) for convex f, f(1) = 0.

    Where p vanishes, terms whose limit convention makes them vanish
    (f(0) undefined as 0 * log 0) contribute zero; a genuinely finite f(0)
    contributes q * f(0).
    """

    def integrand(pv, qv):
        fx = np.asarray(f(pv / qv), dtype=np.float64)
        finite = np.isfinite(fx)
        if np.any(~finite & (pv > 0.0)):
            raise SupportError("f produced non-finite values where p is positive")
        return (np.where(finite, qv * fx, 0.0),)

    return _integral(p, q, "f-divergence", integrand, "p")


def _kl_terms(a, b):
    # integrands reuse one buffer: a fresh full-grid temporary per ufunc costs page faults in 2-D
    terms = np.divide(a, b)
    np.log(terms, out=terms)
    return (np.multiply(a, terms, out=terms),)


def kl(p, q) -> float:
    """Kullback-Leibler divergence of p from q: integral p log(p/q)."""
    return _integral(p, q, "KL divergence", _kl_terms, "p")


def reverse_kl(p, q) -> float:
    """KL divergence with arguments swapped: integral q log(q/p)."""
    return _integral(p, q, "KL divergence", lambda pv, qv: _kl_terms(qv, pv), "q")


def alpha_div(p, q, alpha: float) -> float:
    """Alpha-divergence (integral p^a q^(1-a) - 1) / (a(a-1)).

    The alpha -> 1 limit is kl(p, q) and the alpha -> 0 limit is kl(q, p);
    both are excluded here and must be requested as KLDs. Pearson
    chi-squared is twice the alpha = 2 member.
    """
    return _alpha(p, q, alpha, reverse=False)


def reverse_alpha_div(p, q, alpha: float) -> float:
    """Alpha-divergence with the arguments swapped.

    Equals alpha_div(p, q, 1 - alpha): swapping arguments is the same as
    reflecting the order parameter around one half.
    """
    return _alpha(p, q, alpha, reverse=True)


def _alpha(p, q, alpha: float, reverse: bool) -> float:
    """alpha_div of (p, q), or of (q, p) when ``reverse``, in the caller's argument order."""
    alpha = DivergenceSpec(DivergenceKind.ALPHA, alpha=float(alpha)).alpha  # None stays a TypeError
    # a^alpha b^(1-alpha) needs b > 0 wherever a > 0 when alpha > 1, and the converse when alpha < 0
    a, b = ("q", "p") if reverse else ("p", "q")
    support = a if alpha > 1.0 else b if alpha < 0.0 else None

    def integrand(pv, qv):
        av, bv = (qv, pv) if reverse else (pv, qv)
        terms = alpha * np.log(av) + (1.0 - alpha) * np.log(bv)
        return (np.exp(terms, out=terms),)

    integral = _integral(p, q, "alpha-divergence", integrand, support)
    return (integral - 1.0) / (alpha * (alpha - 1.0))


def pearson_chi2(p, q) -> float:
    """Pearson chi-squared divergence: integral (p - q)^2 / q."""

    def integrand(pv, qv):
        terms = np.subtract(pv, qv)
        np.multiply(terms, terms, out=terms)
        return (np.divide(terms, qv, out=terms),)

    return _integral(p, q, "Pearson chi-squared", integrand, "p")


def _squared_difference(pv, qv, chi=None):
    diff = pv - qv if chi is None else chi(pv) - chi(qv)
    return diff, diff


def l2(p, q) -> float:
    """Squared L2 distance: integral (p - q)^2."""
    return _integral(p, q, "L2 distance", _squared_difference)


def chi_distance(p, q, chi: ChiTransform) -> float:
    """Squared L2 distance between the transformed densities.

    chi = Identity reproduces `l2`; Log, Reciprocal and negative Power
    require both densities strictly positive. Raises BoundednessError when a
    power of a density overflows, so that the integral is not finite.
    """
    what = f"{chi.kind.value} transform distance"
    support = "positive" if chi.needs_positive else None
    value = _integral(p, q, what, lambda pv, qv: _squared_difference(pv, qv, chi), support)
    if not np.isfinite(value):
        raise BoundednessError(f"{what} is {value}: a density's power overflows")
    return value


def entropy(p) -> float:
    """Differential entropy: minus the integral of p log p, the cross-entropy of p with itself."""
    (p,) = common_grid(p)
    return cross_entropy(p, p)


def cross_entropy(p, q) -> float:
    """Cross-entropy of q relative to p: minus the integral of p log q.

    Decomposes as kl(p, q) + entropy(p).
    """
    return -_integral(p, q, "cross-entropy", lambda pv, qv: (pv * np.log(qv),), "p")


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
