"""Workload `grid-fusion`: seeded Gaussian profiles fused on the package's grids.

The seed fixes the inputs of 31 ops once, at set-up; every round runs the
same 31 ops in an order shuffled from ``(seed, round)``, so all rounds do
the same work:

* 6 one-dimensional and 13 two-dimensional fusion ops (``FUSIONS``). Each
  evaluates its K = 2..5 agents with ``to_grid`` on the shared 2048-node or
  257x257 grid, pools them by one rule (linear, log-linear, Holder,
  inverse-linear, multiplicative or chi-transform), takes one divergence
  between two agents (kl, alpha, l2, chi-distance, Pearson chi2 or
  cross-entropy) and the pooled ``moments``. Profiles are plain, narrow,
  far-apart or correlated. The table fixes each op's structure, so the
  seed changes the numbers and not the amount of work.
* A minority of 9: four ``min_kld_weights`` (three 2-D with K=3, one
  1-D with K=4), one ``discrepancy_weights``, two ``ci_weights`` (trace
  and log-det) and two supra fusions (vector on the paper's 4,1,4,4,
  scalar on random counts). The optimizer's problems are fixed ones met
  in random coordinates, so its iteration counts, and the tail they set,
  do not swing with the seed.
* Three reproductions of seed failures: the two ROADMAP ones on
  N(0, 0.01) (a log-linear pool with N(3, 1), and
  ``kl(N(3,1), N(0,0.01))``) and a ``min_kld_weights`` stall.

Every op is checked against a closed form (mixture moments, covariance
intersection, the Gaussian product, Gaussian KL, alpha, Pearson chi2,
cross-entropy, L2 and Hellinger integrals, the private/shared weights) or,
for power means without one, against a NumPy evaluation of the same
formula.
"""
from __future__ import annotations

import functools

import numpy as np

import oracle
from ops import Op

SHAPES = {1: (2048,), 2: (257, 257)}
# (dim, rule, family, K, divergence, rule parameter): every rule, family
# and divergence in both dimensions, K = 2..5, Holder alpha in {2, 3, -0.5}
# and chi log, reciprocal, square root and square
FUSIONS = (
    (1, "linear", "plain", 2, "kl", None),
    (1, "log-linear", "narrow", 3, "alpha", None),
    (1, "holder", "far", 4, "l2", 2.0),
    (1, "inverse-linear", "plain", 5, "chi-distance", None),
    (1, "multiplicative", "narrow", 2, "pearson-chi2", None),
    (1, "chi-transform", "far", 3, "cross-entropy", ("log", None)),
    (2, "linear", "correlated", 4, "alpha", None),
    (2, "log-linear", "far", 5, "l2", None),
    (2, "holder", "plain", 2, "chi-distance", -0.5),
    (2, "inverse-linear", "correlated", 3, "pearson-chi2", None),
    (2, "multiplicative", "plain", 4, "cross-entropy", None),
    (2, "chi-transform", "narrow", 5, "kl", ("reciprocal", None)),
    (2, "linear", "narrow", 3, "pearson-chi2", None),
    (2, "log-linear", "correlated", 2, "cross-entropy", None),
    (2, "holder", "far", 5, "kl", 3.0),
    (2, "inverse-linear", "narrow", 4, "alpha", None),
    (2, "multiplicative", "correlated", 5, "l2", None),
    (2, "chi-transform", "far", 2, "chi-distance", ("power", 0.5)),
    (2, "chi-transform", "plain", 3, "l2", ("power", 2.0)),
)
# divergences that take the log of q or divide by it
NEEDS_POSITIVE_Q = ("kl", "pearson-chi2", "cross-entropy")
# Every agent's narrowest axis spans this many grid nodes per sigma. The
# trapezoid error of a Gaussian integrand falls as exp(-2 pi^2 s^2), s its
# sigma in nodes; squares (l2) and products (multiplicative pools of up to
# five agents) narrow the integrand by up to sqrt(5), and 2.5 keeps the
# error near 1e-9, well inside the 1e-6 checks.
MIN_NODES_PER_SIGMA = 2.5
# Squared Mahalanobis distance from any agent's mean to the grid corners,
# for ops whose rule needs strictly positive values: exp(-450) stays far
# from the float64 underflow near exp(-745).
POSITIVE_Z2 = 900.0
# Weight-selection problems, each met in random coordinates (see _affine).
# The optimizer takes 47 and 90 iterations on them; "stall" is a
# reproduction of a failure: the optimizer stops after 500 iterations with
# NonConvergenceError, 12% of random 1-D three-agent profiles do.
MIN_KLD_PROBLEMS = {
    "2d": [
        ([0.9, -1.29], [[0.413, -0.134], [-0.134, 1.064]]),
        ([1.8, -1.04], [[0.798, -0.242], [-0.242, 1.058]]),
        ([2.26, -1.92], [[0.627, -0.24], [-0.24, 1.435]]),
    ],
    "1d": [([0.87], [[2.815]]), ([0.74], [[1.895]]), ([1.4], [[2.005]]), ([1.31], [[1.041]])],
    "stall": [([-0.36], [[2.1]]), ([-0.69], [[1.45]]), ([-0.78], [[0.712]])],
}
# ci_weights takes 24 (trace) or 11 (log-det) iterations on it
CI_PROBLEM = [
    ([3.06, -3.83], [[2.438, -1.081], [-1.081, 1.686]]),
    ([-3.03, -0.35], [[2.195, -0.695], [-0.695, 0.542]]),
    ([-0.53, -0.42], [[1.701, 1.617], [1.617, 2.206]]),
]
# rounds in a traced run (each round is about 1 s untraced on the seed)
TRACED_ROUNDS = 6


def _modules():
    from pdffusion import divergence, gaussian, grid, pooling, supra, weights

    return gaussian, grid, pooling, divergence, weights, supra


def _cov(rng, dim, family, narrow, mild=False):
    """A covariance; ``mild`` keeps a profile's tails from underflowing."""
    sig = rng.uniform(0.6, 1.8, dim)
    if narrow:
        sig = sig / (rng.uniform(1.5, 2.5) if mild else rng.uniform(2.5, 8.0))
    if dim == 1:
        return np.array([[sig[0] ** 2]])
    if family == "correlated":
        rho = (rng.uniform(0.4, 0.6) if mild else rng.uniform(0.5, 0.85)) * rng.choice([-1.0, 1.0])
    else:
        rho = rng.uniform(-0.3, 0.3)
    return np.array([[sig[0] ** 2, rho * sig[0] * sig[1]], [rho * sig[0] * sig[1], sig[1] ** 2]])


def _resolved(gs, lower, upper, shape) -> bool:
    spacing = (upper - lower) / (np.array(shape) - 1)
    return all(np.min(np.linalg.eigvalsh(c / np.outer(spacing, spacing))) >= MIN_NODES_PER_SIGMA**2 for _, c in gs)


def draw_profile(rng, dim, K, family, positive, accept=None):
    """K Gaussians and their shared grid bounds.

    Redraws until every agent is resolved by the grid, when ``positive`` no
    agent underflows on it, and ``accept(gs, lower, upper)`` holds if given;
    positive profiles are drawn milder (less narrow, less correlated,
    closer).
    """
    shape = SHAPES[dim]
    for _ in range(1000):
        base = rng.normal(0.0, 1.5, dim)
        step = rng.normal(size=dim)
        step *= (rng.uniform(2.5, 3.5) if positive else rng.uniform(4.0, 6.0)) / np.linalg.norm(step)
        gs = []
        for k in range(K):
            cov = _cov(rng, dim, family, narrow=family == "narrow" and k == 0, mild=positive)
            if family == "far":
                mean = base + k * step
            else:
                mean = base + rng.normal(0.0, 1.0, dim)
            gs.append((mean, cov))
        lower, upper = oracle.union_bounds(gs)
        if (
            _resolved(gs, lower, upper, shape)
            and (not positive or oracle.max_mahalanobis2(gs, lower, upper) < POSITIVE_Z2)
            and (accept is None or accept(gs, lower, upper))
        ):
            return gs, lower, upper
    raise RuntimeError(f"no {family} profile found for dim={dim}, K={K}")


def _chi2_pairs(gs, lower, upper):
    """Ordered pairs (p, q) whose p^2 / q is a Gaussian the grid holds and resolves."""
    shape = SHAPES[len(lower)]
    pairs = []
    for a, p in enumerate(gs):
        for b, q in enumerate(gs):
            g = oracle.chi2_integrand(p, q) if a != b else None
            if g is None:
                continue
            lo, hi = oracle.union_bounds([g])
            if np.all(lo >= lower) and np.all(hi <= upper) and _resolved([g], lower, upper, shape):
                pairs.append((a, b))
    return pairs


def _grids(gs, lower, upper, shape):
    gaussian, grid, *_ = _modules()
    members = tuple(gaussian.to_grid(gaussian.Gaussian(m, c), lower, upper, shape) for m, c in gs)
    return grid.OpinionProfile(members)


def _check_agents(profile, gs, lower, upper, shape):
    for k, (q, g) in enumerate(zip(profile.densities, gs)):
        cause = oracle.moments_mismatch(*oracle.grid_moments(q.values, lower, upper, shape), g)
        if cause:
            return f"wrong: to_grid of agent {k}: " + cause.split(": ", 1)[1]
    return None


def fusion_op(rng, dim, rule, family, K, div, param) -> Op:
    gaussian, grid, pooling, divergence, *_ = _modules()
    from pdffusion.pooling import ChiKind, ChiTransform

    w = rng.dirichlet(np.full(K, 2.0))
    alpha = param if rule == "holder" else None
    chi = None
    if rule == "chi-transform":
        kind, chi_alpha = param
        chi = ChiTransform(ChiKind(kind), chi_alpha)
    positive = (
        rule in ("log-linear", "inverse-linear", "multiplicative")
        or (alpha is not None and alpha < 0)
        or (chi is not None and chi.needs_positive)
        or div in NEEDS_POSITIVE_Q
    )
    negative_power = (
        rule == "inverse-linear"
        or (alpha is not None and alpha < 0)
        or (chi is not None and chi.kind is ChiKind.RECIPROCAL)
    )
    # a harmonic-type mean of far-apart agents integrates to ~1e-17, which
    # `normalize` rejects by design (DegenerateError at machine epsilon)
    assert not (negative_power and family == "far"), (rule, family)
    accept = (lambda *g: bool(_chi2_pairs(*g))) if div == "pearson-chi2" else None
    gs, lower, upper = draw_profile(rng, dim, K, family, positive, accept)
    shape = SHAPES[dim]
    if div == "pearson-chi2":
        pairs = _chi2_pairs(gs, lower, upper)
        a, b = pairs[int(rng.integers(len(pairs)))]
    else:
        a, b = (int(i) for i in rng.choice(K, size=2, replace=False))
    div_alpha = float(rng.uniform(0.2, 0.8))
    if rule == "multiplicative":
        w = rng.uniform(0.3, 1.0, K)
        widest = max(float(np.max(np.linalg.eigvalsh(c))) for _, c in gs)
        base = (np.mean([m for m, _ in gs], axis=0), 1.5 * widest * np.eye(dim))

    def pool(profile):
        if rule == "linear":
            return pooling.linear_pool(profile, w)
        if rule == "log-linear":
            return pooling.log_linear_pool(profile, w)
        if rule == "holder":
            return pooling.holder_pool(profile, w, alpha)
        if rule == "inverse-linear":
            return pooling.inverse_linear_pool(profile, w)
        if rule == "multiplicative":
            q0 = gaussian.to_grid(gaussian.Gaussian(*base), lower, upper, shape)
            return pooling.multiplicative_pool(profile, q0, w)
        return pooling.chi_transform_pool(profile, w, chi)

    def divergence_value(p, q):
        if div == "kl":
            return divergence.kl(p, q)
        if div == "alpha":
            return divergence.alpha_div(p, q, div_alpha)
        if div == "l2":
            return divergence.l2(p, q)
        if div == "pearson-chi2":
            return divergence.pearson_chi2(p, q)
        if div == "cross-entropy":
            return divergence.cross_entropy(p, q)
        return divergence.chi_distance(p, q, ChiTransform(ChiKind.POWER, alpha=0.5))

    def run():
        profile = _grids(gs, lower, upper, shape)
        fused = pool(profile)
        value = divergence_value(profile.densities[a], profile.densities[b])
        return profile, fused, grid.moments(fused), value

    def expected_pool():
        """Closed-form moments, or the power-mean exponent for a NumPy reference."""
        kind = rule
        if rule == "chi-transform":
            kind = {ChiKind.IDENTITY: "linear", ChiKind.LOG: "log-linear"}.get(chi.kind, "power")
        if kind == "linear":
            return oracle.mixture_moments(gs, w), None
        if kind == "log-linear":
            return oracle.ci(gs, w), None
        if kind == "multiplicative":
            return oracle.product(gs, w, base), None
        if rule == "inverse-linear" or (chi is not None and chi.kind is ChiKind.RECIPROCAL):
            return None, -1.0
        return None, alpha if rule == "holder" else chi.alpha

    def expected_divergence():
        p, q = gs[a], gs[b]
        if div == "kl":
            return oracle.kl(p, q)
        if div == "alpha":
            return oracle.alpha_div(p, q, div_alpha)
        if div == "l2":
            return oracle.l2(p, q)
        if div == "pearson-chi2":
            return oracle.pearson_chi2(p, q)
        if div == "cross-entropy":
            return oracle.cross_entropy(p, q)
        return oracle.hellinger2(p, q)

    def check(out):
        profile, fused, (mean, cov), value = out
        cause = _check_agents(profile, gs, lower, upper, shape)
        if cause:
            return cause
        closed, power = expected_pool()
        if closed is not None:
            cause = oracle.moments_mismatch(mean, cov, closed)
        else:
            stack = np.stack([q.values for q in profile.densities])
            ref = oracle.power_mean_pool(stack, w, power, lower, upper, shape)
            cause = oracle.mismatch(fused.values, ref) or oracle.moments_mismatch(
                mean, cov, oracle.grid_moments(ref, lower, upper, shape)
            )
        if cause:
            return cause
        return oracle.value_mismatch(value, expected_divergence())

    label = f"fusion-{dim}d.{rule}"
    return Op(label, run, check)


def _affine(rng, gs, scale=True):
    """The same problem in random coordinates: rotate (or reflect), scale, shift.

    KL divergences are invariant under invertible affine maps and the CI
    trace and log-det under rotations and shifts, so the optimizer meets an
    equivalent problem in every round and its iteration count stays fixed.
    """
    dim = len(gs[0][0])
    if dim == 1:
        rot = np.array([[rng.choice([-1.0, 1.0])]])
    else:
        a = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    s = rng.uniform(0.7, 1.4) if scale else 1.0
    shift = rng.normal(0.0, 2.0, dim)
    return [(s * rot @ np.asarray(m) + shift, s * s * rot @ np.asarray(c) @ rot.T) for m, c in gs]


def min_kld_op(rng, problem: str) -> Op:
    *_, weights, _ = _modules()
    gs = _affine(rng, MIN_KLD_PROBLEMS[problem])
    lower, upper = oracle.union_bounds(gs)
    dim = len(gs[0][0])
    shape = SHAPES[dim]

    # the inputs repeat every round: find the optimum once, at the first check
    optimum = functools.cache(lambda: oracle.simplex_minimum(lambda v: oracle.min_kld_objective(gs, v), len(gs)))

    def run():
        return weights.min_kld_weights(_grids(gs, lower, upper, shape))

    def check(res):
        closed = oracle.min_kld_objective(gs, res.weights)
        cause = oracle.value_mismatch(res.objective, closed)
        if cause:
            return cause
        return oracle.optimum_mismatch(closed, optimum())

    name = "weights.min-kld-stall" if problem == "stall" else f"weights-{dim}d.min-kld"
    return Op(name, run, check)


def discrepancy_op(rng, dim, K) -> Op:
    *_, weights, _ = _modules()
    gs, lower, upper = draw_profile(rng, dim, K, "plain", positive=True)
    shape = SHAPES[dim]

    def run():
        return weights.discrepancy_weights(_grids(gs, lower, upper, shape))

    def check(w):
        expected = oracle.discrepancy_weights(gs)
        err = float(np.max(np.abs(w - expected)))
        return None if err <= oracle.DIVERGENCE_TOL else f"wrong: weights {w} vs {expected}"

    return Op(f"weights-{dim}d.discrepancy", run, check)


def ci_op(rng, criterion: str) -> Op:
    gaussian, *_, weights, _ = _modules()
    from pdffusion.weights import CICriterion

    gs = _affine(rng, CI_PROBLEM, scale=False)
    criterion = CICriterion(criterion)
    optimum = functools.cache(lambda: oracle.simplex_minimum(lambda v: oracle.ci_size(gs, v, criterion.value), len(gs)))

    def run():
        return weights.ci_weights([gaussian.Gaussian(m, c) for m, c in gs], criterion=criterion)

    def check(res):
        return oracle.optimum_mismatch(oracle.ci_size(gs, res.weights, criterion.value), optimum())

    return Op("weights.ci", run, check)


def supra_op(rng, vector: bool, counts=None) -> Op:
    *_, supra = _modules()
    if counts is None:
        K = int(rng.integers(2, 5))
        counts = (int(rng.integers(1, 6)),) + tuple(int(v) for v in rng.integers(1, 6, K))
    r0, r = counts[0], counts[1:]
    y = rng.normal(size=sum(r0 + rk for rk in r))

    def run():
        model = supra.private_shared_model(len(r), r0, r)
        t, _ = supra.local_statistics(model, y)
        if vector:
            return np.array([float(wk[0, 0]) for wk in supra.vector_fusion(model, t, y).vector_weights])
        return supra.scalar_fusion(model, t, y).scalar_weights

    def check(w):
        expected = oracle.private_shared_weights(len(r), r0, r)
        err = float(np.max(np.abs(w - expected)))
        return None if err <= oracle.SUPRA_TOL else f"wrong: weights {w} vs {expected}"

    return Op("supra.vector" if vector else "supra.scalar", run, check)


def log_linear_narrow_op() -> Op:
    """ROADMAP reproduction: N(0, 0.01) underflows on [-10, 10] with 2048 nodes."""
    gs = [(np.array([0.0]), np.array([[0.01]])), (np.array([3.0]), np.array([[1.0]]))]
    lower, upper, shape = np.array([-10.0]), np.array([10.0]), SHAPES[1]
    _, grid, pooling, *_ = _modules()

    def run():
        fused = pooling.log_linear_pool(_grids(gs, lower, upper, shape), [0.5, 0.5])
        return grid.moments(fused)

    return Op(
        "fusion.log-linear-narrow-pair",
        run,
        lambda mc: oracle.moments_mismatch(*mc, oracle.ci(gs, [0.5, 0.5])),
    )


def kl_narrow_op() -> Op:
    """ROADMAP reproduction: kl(N(3,1), N(0,0.01)), closed form 497.2."""
    gaussian, _, _, divergence, *_ = _modules()
    p, q = (np.array([3.0]), np.array([[1.0]])), (np.array([0.0]), np.array([[0.01]]))

    def run():
        return divergence.kl(gaussian.Gaussian(*p), gaussian.Gaussian(*q))

    return Op("fusion.kl-narrow-pair", run, lambda v: oracle.value_mismatch(v, oracle.kl(p, q)))


class Workload:
    traced_rounds = TRACED_ROUNDS

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        # twice as many 2-D as 1-D fusions puts the median op among the 2-D
        # ones, and an odd count of ops puts it inside the times of one op
        # rather than on the gap between two; the small 1-D ops follow the
        # machine's speed swings the most
        self.ops = [fusion_op(rng, *spec) for spec in FUSIONS] + [
            # three alike, so the tail percentile sits inside their cluster
            min_kld_op(rng, "2d"),
            min_kld_op(rng, "2d"),
            min_kld_op(rng, "2d"),
            min_kld_op(rng, "1d"),
            min_kld_op(rng, "stall"),
            discrepancy_op(rng, 1, 4),
            ci_op(rng, "trace"),
            ci_op(rng, "logdet"),
            supra_op(rng, vector=False),
            supra_op(rng, vector=True, counts=(4, 1, 4, 4)),
            log_linear_narrow_op(),
            kl_narrow_op(),
        ]

    def round(self, r: int) -> list[Op]:
        order = np.random.default_rng([self.seed, 1, r]).permutation(len(self.ops))
        return [self.ops[i] for i in order]
