"""Closed forms that the benchmark checks the program's outputs against.

Everything here is plain NumPy (plus one SciPy optimizer call) written from
the textbook formulas, so an op's output is compared with an answer that
does not come from the code under test. Gaussians are passed as
``(mean, cov)`` pairs of arrays.
"""
from __future__ import annotations

import numpy as np

# Moments of a pooled grid density against the closed form. The grids the
# workloads use resolve every Gaussian with 2.5 nodes per sigma along its
# narrowest axis and span +-8 sigma, so trapezoid and truncation errors sit
# near 1e-9; the ROADMAP truncation defect shifts the mean by 8e-4 sigma.
MOMENT_TOL = 1e-6
# Divergences between grid densities against the Gaussian closed form.
DIVERGENCE_TOL = 1e-6
# Pooled node values against the NumPy reference of the same formula.
VALUES_TOL = 1e-9
# Weight selection: objective at the returned weights against the optimum.
OPTIMUM_TOL = 1e-6
# Closed-form supra-Bayesian weights: pure linear algebra on small matrices.
SUPRA_TOL = 1e-9


def as_pair(mean, cov):
    return np.atleast_1d(np.asarray(mean, dtype=float)), np.atleast_2d(np.asarray(cov, dtype=float))


# ---------------------------------------------------------------- grids


def axes(lower, upper, shape):
    return [np.linspace(lo, hi, n) for lo, hi, n in zip(lower, upper, shape)]


def quad_weights(lower, upper, shape):
    parts = []
    for lo, hi, n in zip(lower, upper, shape):
        w = np.full(n, (hi - lo) / (n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        parts.append(w)
    return parts[0] if len(parts) == 1 else np.multiply.outer(parts[0], parts[1])


def log_pdf_on_grid(mean, cov, lower, upper, shape):
    """Log of the N(mean, cov) density at every node, broadcast over the axes."""
    mean, cov = as_pair(mean, cov)
    prec = np.linalg.inv(cov)
    ax = axes(lower, upper, shape)
    if len(shape) == 1:
        q = prec[0, 0] * (ax[0] - mean[0]) ** 2
    else:
        d0 = (ax[0] - mean[0])[:, None]
        d1 = (ax[1] - mean[1])[None, :]
        q = prec[0, 0] * d0 * d0 + 2.0 * prec[0, 1] * d0 * d1 + prec[1, 1] * d1 * d1
    _, logdet = np.linalg.slogdet(cov)
    return -0.5 * (q + logdet + len(shape) * np.log(2.0 * np.pi))


def pdf_on_grid(mean, cov, lower, upper, shape):
    """N(mean, cov) at the nodes, renormalized by the trapezoid rule."""
    vals = np.exp(log_pdf_on_grid(mean, cov, lower, upper, shape))
    return vals / float(np.sum(quad_weights(lower, upper, shape) * vals))


def grid_moments(values, lower, upper, shape):
    """Mean and covariance of node values under the trapezoid rule."""
    values = np.asarray(values, dtype=float).reshape(shape)
    w = quad_weights(lower, upper, shape) * values
    w = w / w.sum()
    ax = axes(lower, upper, shape)
    if len(shape) == 1:
        m = float(np.sum(w * ax[0]))
        return np.array([m]), np.array([[float(np.sum(w * (ax[0] - m) ** 2))]])
    x0, x1 = np.meshgrid(ax[0], ax[1], indexing="ij")
    m = np.array([np.sum(w * x0), np.sum(w * x1)])
    c0, c1 = x0 - m[0], x1 - m[1]
    c01 = np.sum(w * c0 * c1)
    return m, np.array([[np.sum(w * c0 * c0), c01], [c01, np.sum(w * c1 * c1)]])


def union_bounds(gaussians, sigmas=8.0):
    """Union of the mean +- 8 marginal sigma boxes."""
    lo = np.min([m - sigmas * np.sqrt(np.diag(c)) for m, c in gaussians], axis=0)
    hi = np.max([m + sigmas * np.sqrt(np.diag(c)) for m, c in gaussians], axis=0)
    return lo, hi


def max_mahalanobis2(gaussians, lower, upper):
    """Largest squared Mahalanobis distance from any mean to the box.

    A convex quadratic attains its maximum over a box at a corner. Linear
    space evaluation underflows to 0 beyond about 1400, so workloads keep
    this well below that wherever the rule under test needs positive values.
    """
    corners = np.array(np.meshgrid(*zip(lower, upper), indexing="ij")).reshape(len(lower), -1).T
    worst = 0.0
    for m, c in gaussians:
        d = corners - m
        worst = max(worst, float(np.max(np.einsum("ni,ij,nj->n", d, np.linalg.inv(c), d))))
    return worst


def power_mean_pool(stack, weights, alpha, lower, upper, shape):
    """Normalized weighted power mean of node values (reference for Holder)."""
    w = np.asarray(weights, dtype=float).reshape((-1,) + (1,) * len(shape))
    with np.errstate(divide="ignore"):
        vals = np.sum(w * stack**alpha, axis=0) ** (1.0 / alpha)
    return vals / float(np.sum(quad_weights(lower, upper, shape) * vals))


def mismatch(values, reference, tol=VALUES_TOL):
    """Largest node difference relative to the peak, if above ``tol``."""
    err = float(np.max(np.abs(np.asarray(values) - reference))) / float(np.max(reference))
    return None if err <= tol else f"wrong: node values off by {err:.3g} of the peak (tol {tol:g})"


# ------------------------------------------------------------ Gaussians


def kl(p, q):
    """KL(N_p || N_q)."""
    (mp, cp), (mq, cq) = p, q
    pq = np.linalg.inv(cq)
    d = mq - mp
    return 0.5 * float(
        np.trace(pq @ cp) + d @ pq @ d - len(mp) + np.linalg.slogdet(cq)[1] - np.linalg.slogdet(cp)[1]
    )


def alpha_integral(p, q, alpha):
    """Integral of p^alpha q^(1 - alpha) for Gaussians p, q."""
    (mp, cp), (mq, cq) = p, q
    lp, lq = np.linalg.inv(cp), np.linalg.inv(cq)
    lam = alpha * lp + (1.0 - alpha) * lq
    b = alpha * lp @ mp + (1.0 - alpha) * lq @ mq
    quad = alpha * mp @ lp @ mp + (1.0 - alpha) * mq @ lq @ mq - b @ np.linalg.solve(lam, b)
    logdets = (
        -alpha * np.linalg.slogdet(cp)[1]
        - (1.0 - alpha) * np.linalg.slogdet(cq)[1]
        - np.linalg.slogdet(lam)[1]
    )
    return float(np.exp(0.5 * logdets - 0.5 * quad))


def alpha_div(p, q, alpha):
    return (alpha_integral(p, q, alpha) - 1.0) / (alpha * (alpha - 1.0))


def pearson_chi2(p, q):
    """Integral (p - q)^2 / q = integral p^2 q^-1 - 1."""
    return alpha_integral(p, q, 2.0) - 1.0


def chi2_integrand(p, q):
    """The Gaussian that p^2 / q is proportional to, or None if it diverges."""
    (mp, cp), (mq, cq) = p, q
    lp, lq = np.linalg.inv(cp), np.linalg.inv(cq)
    lam = 2.0 * lp - lq
    if np.min(np.linalg.eigvalsh(lam)) <= 0.0:
        return None
    cov = np.linalg.inv(lam)
    return cov @ (2.0 * lp @ mp - lq @ mq), cov


def cross_entropy(p, q):
    """Minus the integral of p log q: kl(p, q) plus the entropy of p."""
    cp = p[1]
    return kl(p, q) + 0.5 * float(len(cp) * np.log(2.0 * np.pi * np.e) + np.linalg.slogdet(cp)[1])


def l2(p, q):
    """Squared L2 distance; the integral of N_a N_b is N(m_a; m_b, C_a + C_b)."""

    def overlap(a, b):
        m = a[0] - b[0]
        c = a[1] + b[1]
        return float(
            np.exp(-0.5 * (m @ np.linalg.solve(c, m) + np.linalg.slogdet(2.0 * np.pi * c)[1]))
        )

    return overlap(p, p) + overlap(q, q) - 2.0 * overlap(p, q)


def hellinger2(p, q):
    """Squared L2 distance of square roots: 2 - 2 * Bhattacharyya coefficient."""
    return 2.0 - 2.0 * alpha_integral(p, q, 0.5)


def mixture_moments(gaussians, weights):
    w = np.asarray(weights, dtype=float)
    mean = sum(wk * m for wk, (m, _) in zip(w, gaussians))
    cov = sum(wk * (c + np.outer(m - mean, m - mean)) for wk, (m, c) in zip(w, gaussians))
    return mean, cov


def ci(gaussians, weights):
    """Covariance intersection: the log-linear pool of Gaussians."""
    prec = sum(wk * np.linalg.inv(c) for wk, (_, c) in zip(weights, gaussians))
    shift = sum(wk * np.linalg.solve(c, m) for wk, (m, c) in zip(weights, gaussians))
    cov = np.linalg.inv(prec)
    return cov @ shift, cov


def product(gaussians, weights, base):
    """Normalized base * prod (q_k / base)^w_k for Gaussians (multiplicative pool)."""
    m0, c0 = base
    l0 = np.linalg.inv(c0)
    prec = l0 + sum(wk * (np.linalg.inv(c) - l0) for wk, (_, c) in zip(weights, gaussians))
    shift = l0 @ m0 + sum(
        wk * (np.linalg.solve(c, m) - l0 @ m0) for wk, (m, c) in zip(weights, gaussians)
    )
    cov = np.linalg.inv(prec)
    return cov @ shift, cov


def moments_mismatch(mean, cov, expected, tol=MOMENT_TOL):
    """Cause text if grid moments differ from the closed form, else None."""
    em, ec = expected
    scale = float(np.sqrt(np.max(np.linalg.eigvalsh(ec))))
    dm = float(np.max(np.abs(np.asarray(mean) - em))) / scale
    dc = float(np.max(np.abs(np.asarray(cov) - ec))) / scale**2
    if dm <= tol and dc <= tol:
        return None
    return (
        f"wrong: mean {np.round(mean, 6).tolist()} vs {np.round(em, 6).tolist()}, "
        f"cov {np.round(cov, 6).tolist()} vs {np.round(ec, 6).tolist()} "
        f"(relative errors {dm:.2g}, {dc:.2g}; tol {tol:g})"
    )


def value_mismatch(got, expected, tol=DIVERGENCE_TOL):
    err = abs(got - expected) / max(1.0, abs(expected))
    return None if err <= tol else f"wrong: {got!r} vs closed form {expected!r} (tol {tol:g})"


# ------------------------------------------------------- weight selection


def min_kld_objective(gaussians, weights):
    """Average KL from each agent to the log-linear pool at ``weights``."""
    fused = ci(gaussians, weights)
    return float(np.mean([kl(g, fused) for g in gaussians]))


def discrepancy_weights(gaussians):
    K = len(gaussians)
    worst = np.array([max(kl(gaussians[a], gaussians[b]) for b in range(K) if b != a) for a in range(K)])
    gamma = 1.0 / worst
    return gamma / gamma.sum()


def ci_size(gaussians, weights, criterion):
    cov = ci(gaussians, weights)[1]
    return float(np.trace(cov)) if criterion == "trace" else float(np.linalg.slogdet(cov)[1])


def simplex_minimum(objective, K):
    """Minimum of ``objective`` over the simplex, best of SLSQP from several starts."""
    from scipy.optimize import minimize

    cons = ({"type": "eq", "fun": lambda w: np.sum(w) - 1.0},)
    starts = [np.full(K, 1.0 / K)] + [np.eye(K)[k] * 0.8 + 0.2 / K for k in range(K)]
    best = np.inf
    for w0 in starts:
        res = minimize(
            objective, w0, method="SLSQP", bounds=[(0.0, 1.0)] * K, constraints=cons,
            options={"ftol": 1e-14, "maxiter": 500},
        )
        w = np.clip(res.x, 0.0, None)
        best = min(best, objective(w / w.sum()))
    return best


def optimum_mismatch(value, optimum, tol=OPTIMUM_TOL):
    gap = (value - optimum) / max(1.0, abs(optimum))
    return None if gap <= tol else f"wrong: objective {value!r} above the optimum {optimum!r} (tol {tol:g})"


# ------------------------------------------------------ supra-Bayesian


def private_shared_weights(K, r0, r):
    """w_k = 1 - (K-1) / (r_k (1/r0 + sum_j 1/r_j)); the paper's -1/7 at r0=4, r=(1,4,4)."""
    r = np.asarray(r, dtype=float)
    return 1.0 - (K - 1.0) / (r * (1.0 / r0 + np.sum(1.0 / r)))
