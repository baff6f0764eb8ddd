"""A 50-digit reference for the grid kernels' rounding, from the standard library's ``decimal``.

Where ``closed_forms`` checks the kernels against Gaussian closed forms, to
quadrature tolerance, this module checks their rounding alone on arbitrary
profiles. Each reference takes a kernel's float inputs, the density values and
the grid's trapezoid weights, as exact numbers, evaluates the kernel's
integrand as the library writes it, and sums the weighted terms at 50
significant digits. The gap between the library's float result and the
reference is then the kernel's own rounding, stated in eps times the sum of
the absolute values of the summed terms. ``smooth_pairs`` draws the inputs of
the property that holds the kernels to it.
"""
from __future__ import annotations

import decimal
import math
from decimal import Decimal

import numpy as np
from hypothesis import strategies as st

from pdffusion.grid import from_samples, normalize

CONTEXT = decimal.Context(prec=50)
EPS = Decimal(float(np.finfo(float).eps))
LOG_SPANS = (5.0, 50.0, 300.0, 700.0)


def _exact(values) -> list[Decimal]:
    """Each float of ``values``, flattened, as the exact number it is."""
    return [Decimal(v) for v in np.ravel(values).tolist()]


def _trapezoid(weights: list[Decimal], terms, scale: Decimal = Decimal(1)) -> tuple[Decimal, Decimal]:
    """The sum of weights[i] * terms[i] / scale and the sum of the absolute values of its terms."""
    summed = [w * t / scale for w, t in zip(weights, terms)]
    return sum(summed, Decimal(0)), sum(map(abs, summed), Decimal(0))


def divergences(p, q, alphas) -> dict:
    """The 50-digit trapezoid sums of the divergence integrands between grid densities ``p`` and ``q``.

    Keys ``"kl"``, ``"l2"`` and ``"pearson_chi2"``, and ``("alpha_div", a)`` for
    each a in ``alphas``; each value is (reference, sum of |terms|). The
    integrands are p log(p / q), (p - q)^2, (p - q)^2 / q, and for alpha_div
    the library's expm1 form with its float step and scale taken as exact:
    p expm1((a - 1) r) / ((a - 1) a) above a = 1/2, q expm1(a r) / (a (a - 1))
    at and below it, r = log p - log q.
    """
    with decimal.localcontext(CONTEXT):
        w = _exact(p.grid.quad_weights)
        pv, qv = _exact(p.values), _exact(q.values)
        r = [a.ln() - b.ln() for a, b in zip(pv, qv)]
        out = {
            "kl": _trapezoid(w, [a * lr for a, lr in zip(pv, r)]),
            "l2": _trapezoid(w, [(a - b) ** 2 for a, b in zip(pv, qv)]),
            "pearson_chi2": _trapezoid(w, [(a - b) ** 2 / b for a, b in zip(pv, qv)]),
        }
        for alpha in alphas:
            step, scale = (alpha - 1.0, alpha) if alpha > 0.5 else (alpha, alpha - 1.0)
            base = pv if alpha > 0.5 else qv
            step, scale = Decimal(step), Decimal(scale)
            terms = [b * ((step * lr).exp() - 1) / step for b, lr in zip(base, r)]
            out["alpha_div", alpha] = _trapezoid(w, terms, scale)
        return out


def rounding(value: float, reference: tuple[Decimal, Decimal]) -> float:
    """|value - reference| in eps times the sum of |terms|; where every term is 0, the gap itself."""
    exact, size = reference
    with decimal.localcontext(CONTEXT):
        gap = abs(Decimal(value) - exact)
        return float(gap / (EPS * size)) if size else float(gap)


@st.composite
def smooth_pairs(draw):
    """A log span from ``LOG_SPANS`` and two positive smooth densities on one 1-D grid of 16 to 64 nodes.

    Each log-density is -span u + const, u a parabola with a small cosine ripple
    rescaled to [0, 1] on the nodes, so each density's log spans ``span``. The
    two parabolas' minima lie a quarter to three quarters of the grid's width
    apart (cyclically), so that the pair never nearly agrees.
    """
    n = draw(st.integers(16, 64))
    lower = draw(st.floats(-4.0, 0.0))
    width = draw(st.floats(1.0, 10.0))
    span = draw(st.sampled_from(LOG_SPANS))
    t = np.linspace(0.0, 1.0, n)
    centre = draw(st.floats(0.0, 1.0))
    shift = draw(st.floats(0.25, 0.75))
    densities = []
    for c in (centre, (centre + shift) % 1.0):
        height, cycles, phase = draw(st.floats(0.0, 0.2)), draw(st.floats(0.5, 3.0)), draw(st.floats(0.0, 6.3))
        u = (t - c) ** 2 + height * np.cos(2.0 * math.pi * cycles * t + phase)
        u = (u - u.min()) / (u.max() - u.min())
        densities.append(normalize(from_samples([lower], [lower + width], (n,), np.exp(-span * u))))
    return span, densities[0], densities[1]
