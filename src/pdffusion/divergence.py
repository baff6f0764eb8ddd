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
convention, kept by `_integral` alone: a nan term at a node where either
density vanishes (0 * log 0, 0/0, 0 * inf) counts as its limit, 0.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BoundednessError, NotNormalizedError, PositivityError, SupportError, finite_number
from .gaussian import common_grid
from .pooling import ChiTransform, check_fields, over_step


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
            object.__setattr__(self, "alpha", finite_number(self.alpha, "alpha"))


def require_normalized(*densities) -> None:
    """NotNormalizedError unless every density integrates to one, as a divergence's arguments must."""
    if not all(d.normalized for d in densities):
        raise NotNormalizedError("divergences are defined between normalized densities")


def _integral(p, q, what: str, integrand, support: str | None = None, swapped: bool = False) -> float:
    """The path of every divergence (see the module docstring): the integral
    of the product of the node arrays that ``integrand(p.values, q.values)`` returns.

    ``support``: ``"p"``, p must vanish wherever q does, ``"q"`` the converse
    (SupportError), ``"positive"`` both strictly positive (PositivityError).
    ``swapped``: a reverse divergence's pair, handed over as (q, p); SupportError names the caller's order.
    The one home of the zero convention: a nan term where p or q vanishes is 0.
    """
    p, q = common_grid(p, q)
    require_normalized(p, q)
    if support == "positive" and not (p.positive and q.positive):
        raise PositivityError(f"{what} needs positive densities")
    if support in ("p", "q"):
        dominated, reference = (p, q) if support == "p" else (q, p)
        if not reference.positive and np.any((dominated.values > 0.0) & (reference.values == 0.0)):
            first, second = ("first", "second") if (support == "p") != swapped else ("second", "first")
            raise SupportError(f"{what}: {first} density has mass where the {second} vanishes")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        factors = integrand(p.values, q.values)
        if not (p.positive and q.positive):  # the zero convention
            vanish = (p.values == 0.0) | (q.values == 0.0)
            for terms in factors:
                terms[vanish & np.isnan(terms)] = 0.0
        return p.grid.integral(*factors)


def _bounded(value: float, what: str) -> float:
    """``value``; BoundednessError naming ``what`` when a density's power overflowed it to inf or nan."""
    if not np.isfinite(value):
        raise BoundednessError(f"{what} is {value}: a density's power overflows")
    return value


def f_divergence(p, q, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Generic f-divergence: integral of q * f(p/q) for convex f, f(1) = 0.

    Where p vanishes, terms whose limit convention makes them vanish
    (f(0) undefined as 0 * log 0) contribute zero; a genuinely finite f(0)
    contributes q * f(0), and an infinite one where q has mass is a
    SupportError, since the divergence is infinite.
    """

    def integrand(pv, qv):
        fx = np.asarray(f(pv / qv), dtype=np.float64)
        if np.any(~np.isfinite(fx) & (pv > 0.0)):
            raise SupportError("f produced non-finite values where p is positive")
        if np.any(np.isinf(fx) & (qv > 0.0)):
            raise SupportError("f-divergence: second density has mass where the first vanishes")
        return (qv * fx,)

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
    """KL divergence with the arguments swapped, kl(q, p): integral q log(q/p)."""
    return _integral(q, p, "KL divergence", _kl_terms, "p", swapped=True)


def _alpha(p, q, alpha, swapped: bool = False) -> float:
    alpha = finite_number(alpha, "alpha")  # None stays a TypeError
    # p^alpha q^(1-alpha) needs q > 0 wherever p > 0 when alpha >= 1 (1: KL(p||q)), and the converse when alpha <= 0
    support = "p" if alpha >= 1.0 else "q" if alpha <= 0.0 else None
    # the order parameter of the expm1 form, and what its integral is divided by
    step, scale = (alpha - 1.0, alpha) if alpha > 0.5 else (alpha, alpha - 1.0)

    def integrand(pv, qv):
        r = np.log(pv)
        r -= np.log(qv)
        terms = over_step(np.expm1, step, r)  # expm1(step r) / step
        terms *= pv if alpha > 0.5 else qv
        return (terms,)

    # + 0.0: a pair that agrees integrates to 0.0, which a negative scale would print as -0
    return _bounded(_integral(p, q, "alpha-divergence", integrand, support, swapped) / scale + 0.0, "alpha-divergence")


def alpha_div(p, q, alpha: float) -> float:
    """Alpha-divergence (integral p^a q^(1-a) - 1) / (a(a-1)), one integrand for every finite a.

    With r = log p - log q and the integrals of p and q both one, it is the
    integral of q expm1(a r) / (a(a-1)) for a <= 1/2 and of p expm1((a-1) r) /
    (a(a-1)) above, each quotient by the step read through `over_step`: no
    term cancels a constant, so the digits hold near and at the limits,
    alpha = 1, kl(p, q), and alpha = 0, kl(q, p), each with its support rule.
    Identical inputs give exactly 0. Pearson chi-squared is twice the alpha = 2
    member. Raises BoundednessError when a density's power overflows the integral.
    """
    return _alpha(p, q, alpha)


def reverse_alpha_div(p, q, alpha: float) -> float:
    """Alpha-divergence with the arguments swapped: alpha_div(q, p, alpha), bit for bit. It equals
    alpha_div(p, q, 1 - alpha), but 1 - alpha drops alpha's low digits; alpha = 1 is reverse_kl(p, q)."""
    return _alpha(q, p, alpha, swapped=True)


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
    what = f"{chi.kind.value} transform distance" + ("" if chi.alpha is None else f" at alpha {chi.alpha!r}")
    support = "positive" if chi.needs_positive else None
    return _bounded(_integral(p, q, what, lambda pv, qv: _squared_difference(pv, qv, chi), support), what)


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
