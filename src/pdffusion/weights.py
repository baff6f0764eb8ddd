"""Pooling weight selection.

Three schemes: weights inversely proportional to each agent's worst-case
KLD against the others; weights minimizing the average KLD from the agents
to the log-linear pool (a convex objective over the simplex); and
covariance intersection weights minimizing the trace or log-determinant of
the fused covariance. The reverse form of the KLD objective, whose optimum
is always uniform weights, is exposed for verification.

Both optimized schemes run through one projected Newton descent over the
simplex, driven by the objective's exact gradient and K x K Hessian; from
uniform weights it reaches the optimum in a handful of evaluations. The
derivatives are computed only where the descent uses them: the gradient at
accepted iterates, the Hessian before a Newton step, so a line-search trial
or the final iterate costs one evaluation of the value. The min-KLD
coefficients come from one K x K product of the agents' quadrature masses
and log-densities, its Hessian from their K(K+1)/2 pairwise log products,
formed once per call at the cost of as many grid arrays.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .divergence import kl, require_normalized
from .errors import DegenerateError, NonConvergenceError, PositivityError
from .errors import check_simplex, whole_number
from .gaussian import cho_inverse, pd_inverse, shared_dim
from .grid import OpinionProfile
from .pooling import log_linear_pool

ARMIJO_C = 1e-4
MIN_STEP = 1e-13
ACTIVE_EPS = 1e-2  # Bertsekas' epsilon-bar: only weights this close to zero are held at it
HESSIAN_RCOND = 1e-10  # Hessian eigenvalues below this share of the largest count as zero

# an objective maps weights to its value and zero-argument callables for its
# gradient and Hessian there, which hold until its next evaluation
Derivative = Callable[[], np.ndarray]
Objective = Callable[[np.ndarray], tuple[float, Derivative, Derivative]]


@dataclass(frozen=True)
class WeightResult:
    """Outcome of a simplex weight optimization.

    ``iterations`` counts Newton steps and ``evaluations`` objective
    evaluations, line-search trials included. ``gradient_norm``, a name kept
    for the CLI's JSON output, is the projected-gradient residual, the distance
    from the weights to their projected gradient step; ``converged``: below tol.
    """

    weights: np.ndarray
    objective: float
    iterations: int
    converged: bool
    gradient_norm: float
    evaluations: int


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


def _minimize_on_simplex(objective: Objective, K: int, max_iter: int, tol: float) -> WeightResult:
    """Projected Newton descent from uniform weights (Bertsekas, SIAM J. Control Optim. 20(2), 1982).

    ``objective`` returns the value and two zero-argument callables giving
    the exact gradient g and exact Hessian there. The gradient is asked for
    at accepted iterates only, the Hessian only before a Newton step, so a
    line-search trial and the final iterate cost their value alone. A
    weight within ACTIVE_EPS of zero that the projected gradient step clips
    to zero is active: it heads for zero, its mass spread over the free
    weights, which take the minimum-norm Newton step (their tangent-projected
    Hessian inverted on the eigenvalues above HESSIAN_RCOND times the
    largest in magnitude, applied to -g), or -g where that is no descent
    direction. ``w + step * d`` is projected onto the simplex, the step
    halved from 1 (less if a weight would move by more than 1) until the
    Armijo condition holds. Where the Hessian is singular the minimizer is
    not unique; the minimum-norm step, like a gradient step, never moves
    along the flat directions. Convergence is declared when the residual
    ``|w - P(w - g)|`` drops below tol.
    """
    max_iter = whole_number(max_iter, "max_iter")
    if not (max_iter >= 1 and np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"need max_iter >= 1 and a finite tol > 0, got {max_iter=}, {tol=}")
    w = np.full(K, 1.0 / K)
    f, gradient, hessian = objective(w)
    evaluations, residual = 1, np.inf
    for it in range(max_iter + 1):
        g = gradient()
        g = g - g.mean()  # tangent component along the simplex
        p = project_to_simplex(w - g)
        residual = float(np.linalg.norm(w - p))
        if residual < tol:
            return WeightResult(w, f, it, True, residual, evaluations)
        if it == max_iter:
            break
        active = (w <= ACTIVE_EPS) & (p == 0.0)
        free = ~active
        n = int(free.sum())
        tangent = np.eye(n) - 1.0 / n
        lam, vecs = np.linalg.eigh(tangent @ hessian()[np.ix_(free, free)] @ tangent)
        keep = np.abs(lam) > HESSIAN_RCOND * np.abs(lam).max()
        vecs = vecs[:, keep]
        d = np.where(active, -w, 0.0)
        d[free] = w[active].sum() / n - vecs @ ((g[free] @ vecs) / lam[keep])
        if g @ d >= 0.0:
            d = -g
        step = min(1.0, 1.0 / float(np.abs(d).max()))
        while True:
            trial = project_to_simplex(w + step * d)
            f_trial, gradient, hessian = objective(trial)
            evaluations += 1
            if f_trial <= f - ARMIJO_C * float(g @ (w - trial)):
                break
            step *= 0.5
            if step < MIN_STEP:
                raise NonConvergenceError(
                    f"line search stalled at iteration {it + 1} with residual {residual:.3e}",
                    result=WeightResult(w, f, it, False, residual, evaluations),
                )
        w, f = trial, f_trial
    raise NonConvergenceError(
        f"no convergence in {max_iter} iterations, residual {residual:.3e}",
        result=WeightResult(w, f, max_iter, False, residual, evaluations),
    )


def _min_kld_objective(profile: OpinionProfile) -> Objective:
    """The min-KLD objective of a validated profile, with lazy derivatives.

    The value at w is the log normalizer of the unnormalized geometric
    mean, m + log z with z the integral of exp(w @ logs - m), plus w @ b.
    The gradient is the pooled mean of each log-density plus its KLD
    coefficient b, the Hessian their pooled covariance: the pooled means of
    the pairwise products l_a l_b, formed once, minus the outer product of
    the means. Each pooled mean is one matrix-vector product with the
    quadrature-weighted exp, divided by z only on its K or K(K+1)/2 entries.
    Every evaluation writes that exp into one buffer, so its derivatives
    hold until the next evaluation.
    """
    K = profile.K
    logs = profile.log_values.reshape(K, -1)
    quad = profile.grid.quad_weights.reshape(-1)
    # b_j, the coefficient of w_j in the KLD average, is column j's mean of
    # D[a, b] = M[a, a] - M[a, b], M[a, b] the integral of q_a log q_b; the
    # masses quad * q_a overwrite the profile's fresh stack, freed before prods
    mass = profile.values.reshape(K, -1)
    M = np.multiply(mass, quad, out=mass) @ logs.T
    del mass
    b = (np.trace(M) - M.sum(axis=0)) / K
    rows, cols = np.triu_indices(K)
    prods = np.empty((rows.size, logs.shape[1]))
    for row, a, c in zip(prods, rows, cols):
        np.multiply(logs[a], logs[c], out=row)
    p = np.empty(logs.shape[1])  # every evaluation's buffer: s, then the pooled weights quad * exp(s - m)

    def objective(w: np.ndarray) -> tuple[float, Derivative, Derivative]:
        np.dot(w, logs, out=p)
        m = p.max()
        np.subtract(p, m, out=p)
        np.exp(p, out=p)
        np.multiply(p, quad, out=p)
        z = float(p.sum())
        mean = functools.cache(lambda: logs @ p / z)

        def hessian() -> np.ndarray:
            second = np.empty((K, K))
            second[rows, cols] = second[cols, rows] = prods @ p / z
            return second - np.outer(mean(), mean())

        return m + np.log(z) + float(w @ b), lambda: mean() + b, hessian

    return objective


def _agent_count(agents) -> int:
    """``len(agents)``; ValueError for fewer than two, between which there is nothing to weigh."""
    if len(agents) < 2:
        raise ValueError("weight selection needs at least two agents")
    return len(agents)


def _check_profile(profile: OpinionProfile, what: str) -> None:
    """PositivityError naming ``what`` unless the profile is strictly positive, ValueError for one
    agent, then NotNormalizedError unless it is normalized, as the KLDs that weigh it need."""
    if not profile.positive:
        raise PositivityError(f"{what} need a strictly positive profile")
    _agent_count(profile.densities)
    require_normalized(*profile.densities)


def min_kld_weights(profile: OpinionProfile, max_iter: int = 500, tol: float = 1e-6) -> WeightResult:
    """Weights minimizing the average KLD from the agents to their log-linear pool.

    The objective splits into the log normalizer of the unnormalized
    geometric mean plus a weighted average of pairwise KLDs, read off the
    agent log-densities taken once (see ``_min_kld_objective``). Each value
    is one weighted sum of log-densities and one exp pass; the gradient,
    computed at accepted iterates only, adds one pass over the K
    log-densities, and the Hessian, computed before each Newton step, one
    over their K(K+1)/2 pairwise products. Memory: the K log-densities, the
    K(K+1)/2 products and one evaluation buffer live for the whole call,
    K(K+1)/2 + K + 1 grid arrays; the K-array scratch of the KLD coefficients
    is freed before the products are formed, and nothing else of grid size
    is allocated.

    Raises
    ------
    PositivityError
        If any agent density has a zero.
    NotNormalizedError
        If any agent density does not integrate to one.
    ValueError
        Unless max_iter is a whole number >= 1 and tol is finite and positive.
    NonConvergenceError
        After max_iter iterations; the error carries the best iterate.
    """
    _check_profile(profile, "minimum-KLD weights")
    return _minimize_on_simplex(_min_kld_objective(profile), profile.K, max_iter, tol)


def reverse_kld_objective(profile: OpinionProfile, w) -> float:
    """Average KLD from the log-linear pool at ``w`` to each agent.

    Uniform weights minimize this for every positive profile.
    """
    w = check_simplex(w, profile.K)
    pooled = log_linear_pool(profile, w)
    return float(np.mean([kl(pooled, q) for q in profile.densities]))


def discrepancy_weights(profile: OpinionProfile) -> np.ndarray:
    """Weights inversely proportional to each agent's maximum KLD to the rest.

    Raises
    ------
    DegenerateError
        If some agent's maximum discrepancy is zero (identical agents).
    """
    _check_profile(profile, "discrepancy weights")
    qs = profile.densities
    # D[a, b] = KL(q_a || q_b); no agent counts as its own rival
    D = np.array([[kl(p, q) if a != b else -np.inf for b, q in enumerate(qs)] for a, p in enumerate(qs)])
    worst = D.max(axis=1)
    if np.any(worst <= 0.0):
        raise DegenerateError("an agent has zero maximum discrepancy; weights are undefined")
    gamma = 1.0 / worst
    return gamma / gamma.sum()


def ci_weights(
    gaussians, criterion: CICriterion = CICriterion.TRACE, max_iter: int = 500, tol: float = 1e-6
) -> WeightResult:
    """Covariance intersection weights minimizing fused covariance size.

    criterion TRACE minimizes the trace of the fused covariance
    C = (sum_k w_k P_k)^-1, with P_k the agent precisions, and LOGDET its
    log-determinant. Their gradients are -tr(C P_i C) and -tr(C P_i), their
    Hessians 2 tr(C P_i C P_j C) and tr(C P_i C P_j).

    Raises
    ------
    DimensionError
        If the agents differ in dimension.
    ValueError
        Unless max_iter is a whole number >= 1 and tol is finite and positive.
    NonConvergenceError
        After max_iter iterations; the error carries the best iterate.
    """
    gaussians = list(gaussians)
    K = _agent_count(gaussians)
    d = shared_dim(gaussians, "fusion inputs must share a dimension")
    precisions = np.stack([cho_inverse(g.chol) for g in gaussians]).reshape(K, d * d)

    def objective(w: np.ndarray) -> tuple[float, Derivative, Derivative]:
        cov = pd_inverse((w @ precisions).reshape(d, d), "combined precision")
        if criterion is CICriterion.TRACE:
            sq = cov @ cov
            return (
                float(np.trace(cov)),
                lambda: -(precisions @ sq.reshape(-1)),
                lambda: 2.0 * (precisions @ np.kron(sq, cov) @ precisions.T),
            )
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            raise DegenerateError("fused covariance lost positive definiteness")
        return (
            float(logdet),
            lambda: -(precisions @ cov.reshape(-1)),
            lambda: precisions @ np.kron(cov, cov) @ precisions.T,
        )

    return _minimize_on_simplex(objective, K, max_iter, tol)
