"""Pooling weight selection.

Three schemes: weights inversely proportional to each agent's worst-case
KLD against the others; weights minimizing the average KLD from the agents
to the log-linear pool (a convex objective over the simplex); and
covariance intersection weights minimizing the trace or log-determinant of
the fused covariance. The reverse form of the KLD objective, whose optimum
is always uniform weights, is exposed for verification.

Both optimized schemes run through one projected gradient descent over
the simplex, driven by the objective's exact gradient: a Barzilai-Borwein
first trial step, then Armijo backtracking.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import divergence, pooling
from .errors import DegenerateError, DimensionError, NonConvergenceError, PositivityError
from .gaussian import check_simplex, pd_inverse
from .grid import OpinionProfile

ARMIJO_C = 1e-4
MIN_STEP = 1e-13


@dataclass(frozen=True)
class WeightResult:
    """Outcome of a simplex weight optimization.

    ``iterations`` counts projected-gradient steps, for every number of
    agents. ``gradient_norm`` is the projected-gradient residual, the
    distance from the weights to their projected gradient step; the name is
    kept for the CLI's JSON output. ``converged`` means it is below tol.
    """

    weights: np.ndarray
    objective: float
    iterations: int
    converged: bool
    gradient_norm: float


class CICriterion(enum.Enum):
    TRACE = "trace"
    LOGDET = "logdet"


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Sort-and-threshold: find the largest set of coordinates that stay
    positive after subtracting a common shift, and clip the rest to zero.
    """
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u - css / idx > 0.0)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def _minimize_on_simplex(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    K: int,
    max_iter: int,
    tol: float,
) -> WeightResult:
    """Projected gradient descent from uniform weights.

    ``value_and_grad`` returns the objective and its exact gradient. Each
    step starts from the Barzilai-Borwein length s.s / s.y of the last two
    iterates (1.0 on the first step or when s.y <= 0) and backtracks until
    the Armijo condition holds. Convergence is declared when the natural
    residual, the distance between the iterate and its projected gradient
    step, drops below tol.
    """
    if not (max_iter >= 1 and np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"need max_iter >= 1 and a finite tol > 0, got {max_iter=}, {tol=}")
    w = np.full(K, 1.0 / K)
    f, g = value_and_grad(w)
    step, residual = 1.0, np.inf
    for it in range(max_iter + 1):
        g = g - g.mean()  # tangent component along the simplex
        residual = float(np.linalg.norm(w - project_to_simplex(w - g)))
        if residual < tol:
            return WeightResult(w, f, it, True, residual)
        if it == max_iter:
            break
        while True:
            trial = project_to_simplex(w - step * g)
            f_trial, g_trial = value_and_grad(trial)
            if f_trial <= f - ARMIJO_C * float(g @ (w - trial)):
                break
            step *= 0.5
            if step < MIN_STEP:
                raise NonConvergenceError(
                    f"line search stalled at iteration {it + 1} with residual {residual:.3e}",
                    result=WeightResult(w, f, it, False, residual),
                )
        s, y = trial - w, g_trial - g
        sy = float(s @ y)
        step = float(s @ s) / sy if sy > 0.0 else 1.0
        w, f, g = trial, f_trial, g_trial
    raise NonConvergenceError(
        f"no convergence in {max_iter} iterations, residual {residual:.3e}",
        result=WeightResult(w, f, max_iter, False, residual),
    )


def _pairwise_kld(profile: OpinionProfile) -> np.ndarray:
    K = profile.K
    D = np.zeros((K, K))
    for a in range(K):
        for b in range(K):
            if a != b:
                D[a, b] = divergence.kl(profile.densities[a], profile.densities[b])
    return D


def min_kld_weights(profile: OpinionProfile, max_iter: int = 500, tol: float = 1e-6) -> WeightResult:
    """Weights minimizing the average KLD from the agents to their log-linear pool.

    The objective splits into the log normalizer of the unnormalized
    geometric mean plus a weighted average of pairwise KLDs, so the pairwise
    table and the agent log-densities are precomputed once; each evaluation
    is one weighted sum of log-densities, and the gradient is the pooled
    mean of each log-density plus its KLD coefficient.

    Raises
    ------
    PositivityError
        If any agent density has a zero.
    ValueError
        Unless max_iter >= 1 and tol is finite and positive.
    NonConvergenceError
        After max_iter iterations; the error carries the best iterate.
    """
    if not profile.positive:
        raise PositivityError("minimum-KLD weights need a strictly positive profile")
    if profile.K < 2:
        raise ValueError("weight selection needs at least two agents")
    K = profile.K
    logs = np.log(profile.values).reshape(K, -1)
    quad = profile.grid.quad_weights.reshape(-1)
    D = _pairwise_kld(profile)
    # b_j collects the column sums: the coefficient of w_j in the KLD average
    b = D.sum(axis=0) / K

    def value_and_grad(w: np.ndarray) -> tuple[float, np.ndarray]:
        s = w @ logs
        m = s.max()
        p = quad * np.exp(s - m)
        z = float(p.sum())
        # the gradient of a log normalizer is the pooled mean of log q_j
        return m + np.log(z) + float(w @ b), logs @ (p / z) + b

    return _minimize_on_simplex(value_and_grad, K, max_iter, tol)


def reverse_kld_objective(profile: OpinionProfile, w) -> float:
    """Average KLD from the log-linear pool at ``w`` to each agent.

    Uniform weights minimize this for every positive profile.
    """
    w = check_simplex(w, profile.K)
    pooled = pooling.log_linear_pool(profile, w)
    vals = [divergence.kl(pooled, q) for q in profile.densities]
    return float(np.mean(vals))


def discrepancy_weights(profile: OpinionProfile) -> np.ndarray:
    """Weights inversely proportional to each agent's maximum KLD to the rest.

    Raises
    ------
    DegenerateError
        If some agent's maximum discrepancy is zero (identical agents).
    """
    if not profile.positive:
        raise PositivityError("discrepancy weights need a strictly positive profile")
    if profile.K < 2:
        raise ValueError("weight selection needs at least two agents")
    D = _pairwise_kld(profile)
    np.fill_diagonal(D, -np.inf)
    worst = D.max(axis=1)
    if np.any(worst <= 0.0):
        raise DegenerateError("an agent has zero maximum discrepancy; weights are undefined")
    gamma = 1.0 / worst
    return gamma / gamma.sum()


def ci_weights(
    gaussians,
    criterion: CICriterion = CICriterion.TRACE,
    max_iter: int = 500,
    tol: float = 1e-6,
) -> WeightResult:
    """Covariance intersection weights minimizing fused covariance size.

    criterion TRACE minimizes the trace of the fused covariance
    C = (sum_k w_k P_k)^-1, with P_k the agent precisions, and LOGDET its
    log-determinant. Their gradients are -tr(C P_k C) and -tr(C P_k).

    Raises
    ------
    DimensionError
        If the agents differ in dimension.
    ValueError
        Unless max_iter >= 1 and tol is finite and positive.
    NonConvergenceError
        After max_iter iterations; the error carries the best iterate.
    """
    gaussians = list(gaussians)
    K = len(gaussians)
    if K < 2:
        raise ValueError("weight selection needs at least two agents")
    if len({g.dim for g in gaussians}) > 1:
        raise DimensionError("fusion inputs must share a dimension")
    d = gaussians[0].dim
    precisions = np.stack([pd_inverse(g.cov, "agent cov") for g in gaussians]).reshape(K, d * d)

    def value_and_grad(w: np.ndarray) -> tuple[float, np.ndarray]:
        cov = pd_inverse((w @ precisions).reshape(d, d), "combined precision")
        if criterion is CICriterion.TRACE:
            return float(np.trace(cov)), -(precisions @ (cov @ cov).reshape(-1))
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            raise DegenerateError("fused covariance lost positive definiteness")
        return float(logdet), -(precisions @ cov.reshape(-1))

    return _minimize_on_simplex(value_and_grad, K, max_iter, tol)
