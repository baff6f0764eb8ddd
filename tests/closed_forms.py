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

    With d = mp - mq, M = (1 - alpha) Sp + alpha Sq and mu the eigenvalues
    of Sp^-1 Sq, it is -(alpha (1 - alpha) d^T M^-1 d + sum(log1p(alpha (mu -
    1)) - alpha log mu)) / 2. The integral is finite exactly when M is
    positive definite, that is when every 1 + alpha (mu - 1) > 0. Each term
    is O(alpha) without cancelling a constant, so the value keeps its digits
    as alpha nears 0; above one half it is the log affinity of (q, p) at
    1 - alpha, so it keeps them as alpha nears 1.
    """
    if alpha > 0.5:
        return gaussian_log_affinity(q, p, 1.0 - alpha)
    chol = np.linalg.cholesky(p.cov)
    # L^-1 Sq L^-T, symmetric, with the eigenvalues of Sp^-1 Sq
    mu = np.linalg.eigvalsh(np.linalg.solve(chol, np.linalg.solve(chol, q.cov).T))
    if np.any(1.0 + alpha * (mu - 1.0) <= 0.0):
        return np.inf
    delta = p.mean - q.mean
    quadratic = alpha * (1.0 - alpha) * delta @ np.linalg.solve((1.0 - alpha) * p.cov + alpha * q.cov, delta)
    return -0.5 * (quadratic + np.sum(np.log1p(alpha * (mu - 1.0)) - alpha * np.log(mu)))


def gaussian_alpha_divergence(p, q, alpha: float) -> float:
    """D_alpha(p || q) = expm1(log integral p^alpha q^(1 - alpha)) / (alpha (alpha - 1)).

    +inf where alpha Sp^-1 + (1 - alpha) Sq^-1 is not positive definite, as
    the integral diverges there; its limits KL(q || p) at alpha = 0 and
    KL(p || q) at alpha = 1.
    """
    if alpha == 0.0:
        return gaussian_kl(q, p)
    if alpha == 1.0:
        return gaussian_kl(p, q)
    return float(np.expm1(gaussian_log_affinity(p, q, alpha)) / (alpha * (alpha - 1.0)))


def gaussian_l2_cross(p, q) -> float:
    """integral p q, the density of N(0, Sp + Sq) at mp - mq."""
    cov = p.cov + q.cov
    delta = p.mean - q.mean
    quad = delta @ np.linalg.solve(cov, delta)
    return float(np.exp(-0.5 * (quad + np.linalg.slogdet(2.0 * np.pi * cov)[1])))


def gaussian_log_normalizer(gaussians, weights) -> float:
    """log integral prod_k N(m_k, S_k)^(w_k) = A(sum_k w_k eta_k) - sum_k w_k A(eta_k).

    eta = (P m, -P / 2), with P = S^-1, are the natural parameters and
    A(eta) = (m^T P m - log|P| + dim log(2 pi)) / 2 the log-partition function.
    The pooled precision sum_k w_k P_k must be positive definite.
    """

    def log_partition(precision, shift):
        dim = len(shift)
        return 0.5 * (shift @ np.linalg.solve(precision, shift) - np.linalg.slogdet(precision)[1] + dim * np.log(2.0 * np.pi))

    precisions = [np.linalg.inv(g.cov) for g in gaussians]
    shifts = [p @ g.mean for p, g in zip(precisions, gaussians)]
    pooled = log_partition(sum(w * p for w, p in zip(weights, precisions)), sum(w * h for w, h in zip(weights, shifts)))
    return float(pooled - sum(w * log_partition(p, h) for w, p, h in zip(weights, precisions, shifts)))


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


def ci_sizes(covs, weights, trace: bool) -> np.ndarray:
    """The covariance-intersection size at each row of ``weights``: tr C, or log|C| when not ``trace``,
    with C = (sum_k w_k S_k^-1)^-1 the inverse of the weighted precision of the covariances S_k."""
    precisions = np.linalg.inv(np.asarray(covs, dtype=np.float64))
    precision = np.einsum("nk,kij->nij", np.atleast_2d(weights), precisions)
    if trace:
        return np.trace(np.linalg.inv(precision), axis1=1, axis2=2)
    return -np.linalg.slogdet(precision)[1]


def power_mean(members, weights, alpha: float, near_zero: bool | None = None) -> np.ndarray:
    """The weighted power mean (sum_k w_k q_k^alpha)^(1/alpha) of node values, node by node.

    Far from 0 each node's terms are summed with ``math.fsum`` after dividing
    by the largest, in logs, so powers beyond the float range do not overflow.
    Near 0 (``near_zero``, by default |alpha| < 1e-2) the mean is m + log1p(s) /
    alpha in logs, with s = sum_k w_k expm1(alpha (log q_k - m)) by ``math.fsum``
    and m the largest log for alpha > 0, the smallest for alpha < 0; a product
    with alpha or a quotient by it below 1e-5 in size is its series, so a
    subnormal alpha keeps its digits. Members with weight 0 drop out. A node is
    0 where every remaining member is 0, and for alpha < 0 where any is.
    ``alpha`` must not be 0.
    """
    near_zero = abs(alpha) < 1e-2 if near_zero is None else near_zero
    members = [np.asarray(m, dtype=np.float64) for m in members]
    out = np.empty(members[0].shape)
    for idx in np.ndindex(out.shape):
        terms = [(w, float(m[idx])) for w, m in zip(weights, members) if w > 0.0]
        positive = [(w, v) for w, v in terms if v > 0.0]
        if not positive or (alpha < 0.0 and len(positive) < len(terms)):
            out[idx] = 0.0
        elif near_zero:
            out[idx] = _near_zero_mean([(w, math.log(v) if v > 0.0 else -math.inf) for w, v in terms], alpha)
        else:
            logs = [alpha * math.log(v) + math.log(w) for w, v in positive]
            top = max(logs)
            out[idx] = math.exp((top + math.log(math.fsum(math.exp(t - top) for t in logs))) / alpha)
    return out


def _near_zero_mean(terms, alpha: float) -> float:
    """exp(m + log1p(sum_k w_k expm1(alpha (L_k - m))) / alpha) of (w_k, L_k) pairs, some L_k finite."""
    m = (max if alpha > 0.0 else min)(L for _, L in terms if L > -math.inf)
    if any(L == -math.inf for _, L in terms):  # alpha > 0; each zero member adds -w_k to s
        s = math.fsum(w * math.expm1(alpha * (L - m)) for w, L in terms)
        return math.exp(m + math.log1p(s) / alpha) if s > -1.0 else 0.0
    # sum_k w_k expm1(alpha x_k) / alpha and log1p(alpha t) / alpha, each as its series for a small product
    t = math.fsum(w * _expm1_over(alpha, L - m) for w, L in terms)
    y = alpha * t
    return math.exp(m + (t * (1.0 - y / 2.0 + y * y / 3.0) if abs(y) < 1e-5 else math.log1p(y) / alpha))


def _expm1_over(alpha: float, x: float) -> float:
    y = alpha * x
    return x * (1.0 + y / 2.0 + y * y / 6.0) if abs(y) < 1e-5 else math.expm1(y) / alpha
