"""Closed forms for Gaussians, the references the grid computations are tested against.

Each Gaussian function takes ``pdffusion.gaussian.Gaussian`` values and works
on their mean and cov alone, with numpy's general-purpose linear algebra, so
it shares no code path with the quadrature it checks. ``gaussians`` draws
the inputs of the property tests that use them. ``power_mean`` is the
node-by-node reference for the power-mean pools, from numpy and the standard
library alone.
"""
from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from pdffusion.gaussian import Gaussian


def gaussian(mean, sigma, rho=0.0) -> Gaussian:
    """N(mean, diag(sigma) [[1, rho], [rho, 1]] diag(sigma)), or N(mean, sigma^2) in 1-D."""
    cov = np.outer(sigma, sigma) * np.where(np.eye(len(sigma)) == 1.0, 1.0, rho)
    return Gaussian(mean, cov)


@st.composite
def gaussians(draw, dim, sigma=(0.5, 2.0)):
    """A Gaussian with means in [-1, 1], standard deviations in ``sigma`` and |rho| <= 0.8."""
    mean = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
    sd = draw(st.lists(st.floats(*sigma), min_size=dim, max_size=dim))
    return gaussian(mean, sd, draw(st.floats(-0.8, 0.8)) if dim == 2 else 0.0)


def gaussian_log_pdf(g, x) -> float:
    """log N(x; m, S) = -((x - m)^T S^-1 (x - m) + log|2 pi S|) / 2."""
    delta = np.asarray(x, dtype=np.float64) - g.mean
    return -0.5 * float(delta @ np.linalg.solve(g.cov, delta) + np.linalg.slogdet(2.0 * np.pi * g.cov)[1])


def gaussian_kl(p, q) -> float:
    """KL(p || q) = (tr(Sq^-1 Sp) + d^T Sq^-1 d - dim + log|Sq| - log|Sp|) / 2, d = mq - mp."""
    q_inv = np.linalg.inv(q.cov)
    delta = q.mean - p.mean
    log_det_ratio = np.linalg.slogdet(q.cov)[1] - np.linalg.slogdet(p.cov)[1]
    return 0.5 * (np.trace(q_inv @ p.cov) + delta @ q_inv @ delta - p.dim + log_det_ratio)


def gaussian_cross_entropy(p, q) -> float:
    """-integral p log q = KL(p || q) + (dim log(2 pi e) + log|Sp|) / 2."""
    entropy = 0.5 * (p.dim * np.log(2.0 * np.pi * np.e) + np.linalg.slogdet(p.cov)[1])
    return gaussian_kl(p, q) + entropy


def gaussian_log_affinity(p, q, alpha: float) -> float:
    """log integral p^alpha q^(1 - alpha); +inf when the integral diverges.

    The integrand is exp(-x^T L x / 2 + e^T x + c) with L = alpha Sp^-1 +
    (1 - alpha) Sq^-1 and e = alpha Sp^-1 mp + (1 - alpha) Sq^-1 mq; it
    integrates to a finite value exactly when L is positive definite, and
    the 2 pi factors cancel.
    """
    pp, pq = np.linalg.inv(p.cov), np.linalg.inv(q.cov)
    lam = alpha * pp + (1.0 - alpha) * pq
    if np.linalg.eigvalsh(lam)[0] <= 0.0:
        return np.inf
    eta = alpha * pp @ p.mean + (1.0 - alpha) * pq @ q.mean
    return 0.5 * (
        eta @ np.linalg.solve(lam, eta)
        - alpha * p.mean @ pp @ p.mean
        - (1.0 - alpha) * q.mean @ pq @ q.mean
        - np.linalg.slogdet(lam)[1]
        - alpha * np.linalg.slogdet(p.cov)[1]
        - (1.0 - alpha) * np.linalg.slogdet(q.cov)[1]
    )


def gaussian_l2_cross(p, q) -> float:
    """integral p q, the density of N(0, Sp + Sq) at mp - mq."""
    cov = p.cov + q.cov
    delta = p.mean - q.mean
    quad = delta @ np.linalg.solve(cov, delta)
    return float(np.exp(-0.5 * (quad + np.linalg.slogdet(2.0 * np.pi * cov)[1])))


def mixture_moments(gaussians, weights) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of sum_k w_k N(m_k, S_k), from its raw moments:
    E x = sum_k w_k m_k and E x x^T = sum_k w_k (S_k + m_k m_k^T)."""
    mean = sum(w * g.mean for w, g in zip(weights, gaussians))
    second = sum(w * (g.cov + np.outer(g.mean, g.mean)) for w, g in zip(weights, gaussians))
    return mean, second - np.outer(mean, mean)


def gaussian_power_product(gaussians, exponents) -> tuple[np.ndarray, np.ndarray] | None:
    """Mean and covariance of prod_k N(m_k, S_k)^(e_k), normalized; None when it is improper.

    The product has precision L = sum_k e_k S_k^-1 and shift sum_k e_k S_k^-1 m_k,
    and is a density exactly when L is positive definite. With exponents on
    the simplex it is precision averaging (covariance intersection).
    """
    precisions = [np.linalg.inv(g.cov) for g in gaussians]
    lam = sum(e * p for e, p in zip(exponents, precisions))
    if np.linalg.eigvalsh(lam)[0] <= 0.0:
        return None
    shift = sum(e * p @ g.mean for e, p, g in zip(exponents, precisions, gaussians))
    return np.linalg.solve(lam, shift), np.linalg.inv(lam)


def power_mean(members, weights, alpha: float) -> np.ndarray:
    """The weighted power mean (sum_k w_k q_k^alpha)^(1/alpha) of node values, node by node.

    Each node's terms are summed with ``math.fsum`` after dividing by the
    largest, in logs, so powers beyond the float range do not overflow. Members
    with weight 0 drop out. A node is 0 where every remaining member is 0, and
    for alpha < 0 where any is. ``alpha`` must not be 0.
    """
    members = [np.asarray(m, dtype=np.float64) for m in members]
    out = np.empty(members[0].shape)
    for idx in np.ndindex(out.shape):
        terms = [(w, float(m[idx])) for w, m in zip(weights, members) if w > 0.0]
        positive = [(w, v) for w, v in terms if v > 0.0]
        if not positive or (alpha < 0.0 and len(positive) < len(terms)):
            out[idx] = 0.0
            continue
        logs = [alpha * math.log(v) + math.log(w) for w, v in positive]
        top = max(logs)
        out[idx] = math.exp((top + math.log(math.fsum(math.exp(t - top) for t in logs))) / alpha)
    return out
