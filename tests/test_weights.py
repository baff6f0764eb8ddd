from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdffusion import weights as W
from pdffusion.divergence import kl
from pdffusion.errors import DegenerateError, DimensionError, NonConvergenceError, PositivityError
from pdffusion.gaussian import Gaussian, ci_fuse, common_grid, to_grid
from pdffusion.grid import OpinionProfile, from_samples, normalize

from closed_forms import ci_sizes, gaussian_kl, gaussian_log_normalizer

LO, HI, N = -8.0, 8.0, 1024


def gauss_grid(mu, var):
    return to_grid(Gaussian([mu], [[var]]), [LO], [HI], (N,))


def min_kld_sweep(prof, step):
    """Smallest min-KLD objective over a simplex lattice of spacing ``step``, K=3."""
    logs = np.stack([np.log(q.values) for q in prof.densities]).reshape(3, -1)
    quad = prof.grid.quad_weights.reshape(-1)
    D = np.array([[kl(p, q) if p is not q else 0.0 for q in prof.densities] for p in prof.densities])
    bcoef = D.sum(axis=0) / 3.0
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    a, b = np.meshgrid(ticks, ticks, indexing="ij")
    keep = a + b <= 1.0 + step / 2
    lattice = np.column_stack([a[keep], b[keep], np.clip(1.0 - a[keep] - b[keep], 0.0, None)])
    best = np.inf
    for chunk in np.array_split(lattice, max(1, len(lattice) // 500)):
        s = chunk @ logs
        m = s.max(axis=1)
        vals = m + np.log(np.exp(s - m[:, None]) @ quad) + chunk @ bcoef
        best = min(best, float(vals.min()))
    return best


def one_d_profile(means_vars):
    return OpinionProfile(common_grid(*(Gaussian([m], [[v]]) for m, v in means_vars)))


# three 2-D agents whose trace and log-det optima lie on the face w_0 = 0
CI_PROBLEM_COVS = [
    [[2.438, -1.081], [-1.081, 1.686]],
    [[2.195, -0.695], [-0.695, 0.542]],
    [[1.701, 1.617], [1.617, 2.206]],
]


def ci_sweep(covs, criterion):
    """Smallest CI size over a 1/200 simplex lattice and its three edges at 1e-5 spacing, K=3."""
    ticks = np.linspace(0.0, 1.0, 201)
    a, b = np.meshgrid(ticks, ticks, indexing="ij")
    keep = a + b <= 1.0 + 1e-12
    lattice = [np.column_stack([a[keep], b[keep], np.clip(1.0 - a[keep] - b[keep], 0.0, None)])]
    t = np.linspace(0.0, 1.0, 100001)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        edge = np.zeros((t.size, 3))
        edge[:, i], edge[:, j] = t, 1.0 - t
        lattice.append(edge)
    return float(ci_sizes(covs, np.concatenate(lattice), criterion is W.CICriterion.TRACE).min())


class TestSimplexProjection:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 8))
    def test_output_on_simplex(self, seed, k):
        rng = np.random.default_rng(seed)
        v = rng.normal(scale=3.0, size=k)
        w = W.project_to_simplex(v)
        assert np.all(w >= 0.0)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 8))
    def test_fixed_point_on_simplex(self, seed, k):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(k))
        np.testing.assert_allclose(W.project_to_simplex(w), w, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_projection_is_nearest_point(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(scale=2.0, size=4)
        w = W.project_to_simplex(v)
        for _ in range(50):
            other = rng.dirichlet(np.ones(4))
            assert np.linalg.norm(v - w) <= np.linalg.norm(v - other) + 1e-12

    def test_interior_point_shifts_by_mean(self):
        v = np.array([0.5, 0.3, 0.4])
        w = W.project_to_simplex(v)
        np.testing.assert_allclose(w, v - (v.sum() - 1.0) / 3.0, atol=1e-15)


class TestMinKldWeights:
    def test_identical_agents_stay_uniform(self):
        q = gauss_grid(0.0, 1.0)
        prof = OpinionProfile((q, q))
        res = W.min_kld_weights(prof)
        assert res.converged
        np.testing.assert_allclose(res.weights, [0.5, 0.5], atol=1e-3)
        # objective is flat: all weights produce the same fused pdf
        obj = [res.objective]
        for w1 in (0.0, 0.25, 0.75, 1.0):
            logs = np.stack([np.log(q.values), np.log(q.values)]).reshape(2, -1)
            s = np.array([w1, 1 - w1]) @ logs
            quad = q.quad_weights.reshape(-1)
            obj.append(float(np.log(np.sum(quad * np.exp(s)))))
        assert np.ptp(obj) < 1e-8

    def test_mirror_pair_balances(self):
        prof = OpinionProfile((gauss_grid(-1.0, 1.0), gauss_grid(1.0, 1.0)))
        res = W.min_kld_weights(prof)
        assert res.converged
        np.testing.assert_allclose(res.weights, [0.5, 0.5], atol=1e-3)

    def test_three_nested_variances_match_sweep(self):
        prof = OpinionProfile((gauss_grid(0.0, 1.0), gauss_grid(0.0, 4.0), gauss_grid(0.0, 9.0)))
        res = W.min_kld_weights(prof)
        assert res.converged

        logs = np.stack([np.log(q.values) for q in prof.densities]).reshape(3, -1)
        quad = prof.grid.quad_weights.reshape(-1)
        from pdffusion.divergence import kl

        D = np.zeros((3, 3))
        for a in range(3):
            for b in range(3):
                if a != b:
                    D[a, b] = kl(prof.densities[a], prof.densities[b])
        bcoef = D.sum(axis=0) / 3.0

        def L(w):
            s = w @ logs
            m = s.max()
            return m + np.log(np.sum(quad * np.exp(s - m))) + w @ bcoef

        best, best_w = np.inf, None
        for a in np.arange(0.0, 1.0001, 0.02):
            for b in np.arange(0.0, 1.0001 - a, 0.02):
                w = np.array([a, b, 1.0 - a - b])
                v = L(w)
                if v < best:
                    best, best_w = v, w
        np.testing.assert_allclose(res.weights, best_w, atol=0.03)
        assert res.objective <= best + 1e-10

    def test_beats_random_simplex_points(self):
        prof = OpinionProfile((gauss_grid(-0.5, 1.0), gauss_grid(0.8, 2.0)))
        res = W.min_kld_weights(prof)
        logs = np.stack([np.log(q.values) for q in prof.densities]).reshape(2, -1)
        quad = prof.grid.quad_weights.reshape(-1)
        from pdffusion.divergence import kl

        D = np.zeros((2, 2))
        D[0, 1] = kl(prof.densities[0], prof.densities[1])
        D[1, 0] = kl(prof.densities[1], prof.densities[0])
        bcoef = D.sum(axis=0) / 2.0

        def L(w):
            s = w @ logs
            m = s.max()
            return m + np.log(np.sum(quad * np.exp(s - m))) + w @ bcoef

        rng = np.random.default_rng(42)
        for _ in range(100):
            assert res.objective <= L(rng.dirichlet(np.ones(2))) + 1e-9

    def test_positivity_required(self):
        vals = np.ones(64)
        vals[0] = 0.0
        d = normalize(from_samples([0.0], [1.0], (64,), vals))
        with pytest.raises(PositivityError, match="^minimum-KLD weights need a strictly positive profile$"):
            W.min_kld_weights(OpinionProfile((d, d)))

    def test_one_agent_refused(self):
        with pytest.raises(ValueError, match="^weight selection needs at least two agents$"):
            W.min_kld_weights(OpinionProfile((gauss_grid(0.0, 1.0),)))

    def test_stall_profile_converges(self):
        # projected descent with finite-difference gradients stalled here
        # after 500 iterations at residual 8e-6
        prof = one_d_profile([(-0.36, 2.1), (-0.69, 1.45), (-0.78, 0.712)])
        res = W.min_kld_weights(prof)
        assert res.converged
        assert res.gradient_norm < 1e-6
        assert res.objective <= min_kld_sweep(prof, 0.005) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 2.5)),
            min_size=3,
            max_size=3,
        )
    )
    def test_random_three_agent_profiles_converge(self, means_vars):
        res = W.min_kld_weights(one_d_profile(means_vars))
        assert res.converged
        assert np.sum(res.weights) == pytest.approx(1.0, abs=1e-12)

    def test_two_d_problem_takes_few_evaluations_and_no_kl_calls(self, monkeypatch):
        calls = []

        def counted_kl(p, q):
            calls.append((p, q))
            return kl(p, q)

        monkeypatch.setattr(W, "kl", counted_kl)
        gs = [
            Gaussian([0.9, -1.29], [[0.413, -0.134], [-0.134, 1.064]]),
            Gaussian([1.8, -1.04], [[0.798, -0.242], [-0.242, 1.058]]),
            Gaussian([2.26, -1.92], [[0.627, -0.24], [-0.24, 1.435]]),
        ]
        res = W.min_kld_weights(OpinionProfile(common_grid(*gs)))
        assert res.converged
        assert res.evaluations <= 6
        assert calls == []

    def test_objective_matches_pairwise_kl(self):
        # the KLD coefficients are read off the agents' logs; the objective
        # they give must equal the one built from kl
        prof = one_d_profile([(0.87, 2.815), (0.74, 1.895), (1.4, 2.005), (1.31, 1.041)])
        res = W.min_kld_weights(prof)
        logs = np.stack([np.log(q.values) for q in prof.densities])
        D = np.array([[kl(p, q) for q in prof.densities] for p in prof.densities])
        s = res.weights @ logs
        expected = s.max() + np.log(prof.grid.integral(np.exp(s - s.max()))) + res.weights @ D.mean(axis=0)
        assert res.objective == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "profile, expected",
        [
            pytest.param(
                lambda: one_d_profile([(0.87, 2.815), (0.74, 1.895), (1.4, 2.005), (1.31, 1.041)]),
                [0.35172851, 0.24357072, 0.31749894, 0.08720183],
                id="four-agents",
            ),
            pytest.param(
                lambda: OpinionProfile((gauss_grid(0.0, 1.0), gauss_grid(0.0, 4.0), gauss_grid(0.0, 9.0))),
                [0.06203590, 0.40567566, 0.53228844],
                id="three-nested-variances",
            ),
        ],
    )
    def test_singular_hessian_keeps_its_weights(self, profile, expected):
        # 1-D Gaussian log-densities span {1, x, x^2}, so these agents are
        # affinely dependent: the Hessian is singular and the optimal
        # weights form a segment of equal objective. The minimum-norm Newton
        # step never moves along it, so the path fixes the point returned.
        # With four agents no step clips and it is the optimum nearest to
        # uniform weights; with the nested variances the first step clips
        # at w_0 = 0.
        res = W.min_kld_weights(profile())
        assert res.converged
        np.testing.assert_allclose(res.weights, expected, atol=1e-5)

    @staticmethod
    def nested_variances_and_nearest_uniform_optimum():
        """N(0,1), N(0,4), N(0,9) on [-8, 8], the min-KLD result, and the point of its optimal
        face nearest uniform weights. The grid log-densities span {1, x^2}, so the objective
        depends on w only through a . w, a_k = 1/v_k: the face is {1 . w = 1, a . w = a . w*}."""
        variances = np.array([1.0, 4.0, 9.0])
        prof = OpinionProfile(tuple(gauss_grid(0.0, v) for v in variances))
        res = W.min_kld_weights(prof)
        A = np.vstack([np.ones(3), 1.0 / variances])
        uniform = np.full(3, 1.0 / 3.0)
        nearest = uniform - A.T @ np.linalg.solve(A @ A.T, A @ (uniform - res.weights))
        return prof, res, nearest

    def test_nested_variances_face_is_flat(self):
        prof, res, nearest = self.nested_variances_and_nearest_uniform_optimum()
        assert np.all(nearest > 0.0)
        assert W._min_kld_objective(prof)(nearest)[0] == pytest.approx(res.objective, abs=1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 9: min-KLD weights are not unique on a flat optimal face; the point "
        "returned depends on where the first clipped step lands, 0.031 from the nearest-uniform optimum",
    )
    def test_nested_variances_give_the_nearest_uniform_optimum(self):
        _, res, nearest = self.nested_variances_and_nearest_uniform_optimum()
        np.testing.assert_allclose(res.weights, nearest, atol=1e-6)

    def test_nonconvergence_carries_best_iterate(self):
        prof = OpinionProfile((gauss_grid(0.0, 1.0), gauss_grid(0.0, 4.0), gauss_grid(0.0, 9.0)))
        with pytest.raises(NonConvergenceError) as einfo:
            W.min_kld_weights(prof, max_iter=1, tol=1e-15)
        best = einfo.value.result
        assert best is not None
        assert np.sum(best.weights) == pytest.approx(1.0, abs=1e-9)
        assert not best.converged


def counted_quadratic(A, c):
    """0.5 (w - c)' A (w - c) as an optimizer objective, and its call counts."""
    calls = {"value": 0, "gradient": 0, "hessian": 0}

    def objective(w):
        calls["value"] += 1
        r = w - c

        def gradient():
            calls["gradient"] += 1
            return A @ r

        def hessian():
            calls["hessian"] += 1
            return A

        return 0.5 * float(r @ A @ r), gradient, hessian

    return objective, calls


class TestLazyDerivatives:
    @pytest.mark.parametrize(
        "A, c, backtracks",
        [
            (np.diag([1.0, 2.0, 3.0]), np.array([0.2, 0.3, 0.5]), 0),
            (
                np.array([[1.388, -1.039, -0.813], [-1.039, 1.118, 0.991], [-0.813, 0.991, 1.098]]),
                np.array([1.62, 0.64, 1.07]),
                1,
            ),
        ],
        ids=["interior-optimum", "backtrack"],
    )
    def test_derivatives_only_where_used(self, A, c, backtracks):
        # the gradient is read at the start and at each accepted iterate, the
        # Hessian once per Newton step; every value evaluation counts, the
        # rejected line-search trials included
        objective, calls = counted_quadratic(A, c)
        res = W._minimize_on_simplex(objective, 3, 100, 1e-10)
        assert res.converged
        assert calls["hessian"] == res.iterations
        assert calls["gradient"] == res.iterations + 1
        assert calls["value"] == res.evaluations == res.iterations + 1 + backtracks


# (means, covariances) of the weight problems of perfbench/grid_fusion.py, in its table coordinates
BENCH_MIN_KLD = {
    "2d": [
        ([0.9, -1.29], [[0.413, -0.134], [-0.134, 1.064]]),
        ([1.8, -1.04], [[0.798, -0.242], [-0.242, 1.058]]),
        ([2.26, -1.92], [[0.627, -0.24], [-0.24, 1.435]]),
    ],
    "1d": [([0.87], [[2.815]]), ([0.74], [[1.895]]), ([1.4], [[2.005]]), ([1.31], [[1.041]])],
    "stall": [([-0.36], [[2.1]]), ([-0.69], [[1.45]]), ([-0.78], [[0.712]])],
}
BENCH_CI = [
    ([3.06, -3.83], [[2.438, -1.081], [-1.081, 1.686]]),
    ([-3.03, -0.35], [[2.195, -0.695], [-0.695, 0.542]]),
    ([-0.53, -0.42], [[1.701, 1.617], [1.617, 2.206]]),
]


class TestBenchmarkProblems:
    @pytest.mark.parametrize("problem, expected", [("2d", (4, 3)), ("1d", (4, 3)), ("stall", (5, 4))])
    def test_min_kld_evaluations_and_iterations(self, problem, expected):
        prof = OpinionProfile(common_grid(*(Gaussian(m, c) for m, c in BENCH_MIN_KLD[problem])))
        res = W.min_kld_weights(prof)
        assert res.converged
        assert (res.evaluations, res.iterations) == expected

    @pytest.mark.parametrize("criterion", list(W.CICriterion))
    def test_ci_evaluations_and_iterations(self, criterion):
        res = W.ci_weights([Gaussian(m, c) for m, c in BENCH_CI], criterion)
        assert res.converged
        assert (res.evaluations, res.iterations) == (5, 4)


def plain_min_kld(profile, w):
    """Value, gradient and Hessian of the min-KLD objective in plain NumPy."""
    K = profile.K
    logs = np.stack([np.log(q.values).reshape(-1) for q in profile.densities])
    quad = profile.grid.quad_weights.reshape(-1)
    M = (np.stack([q.values.reshape(-1) for q in profile.densities]) * quad) @ logs.T
    b = (np.trace(M) - M.sum(axis=0)) / K
    s = w @ logs
    m = s.max()
    p = quad * np.exp(s - m)
    z = p.sum()
    p /= z
    mean = logs @ p
    return m + np.log(z) + w @ b, mean + b, (logs * p) @ logs.T - np.outer(mean, mean)


class TestMinKldDerivatives:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_match_the_plain_formulas(self, dim, K):
        # the objective sweeps W.BLOCK nodes at a time: 2048 nodes are one block, 129 x 129 and
        # the default 257 x 257 several, the last of them partial
        rng = np.random.default_rng(100 * dim + K)
        gs = []
        for _ in range(K):
            a = rng.normal(0.0, 0.6, (dim, dim))
            gs.append(Gaussian(rng.normal(0.0, 1.0, dim), a @ a.T + 0.5 * np.eye(dim)))
        for points in [None] if dim == 1 else [129, None]:
            prof = OpinionProfile(common_grid(*gs, points=points))
            assert dim == 1 or prof.grid.quad_weights.size % W.BLOCK != 0
            objective = W._min_kld_objective(prof)
            for w in rng.dirichlet(np.ones(K), size=3):
                f, gradient, hessian = objective(w)
                f0, g0, H0 = plain_min_kld(prof, w)
                assert abs(f - f0) <= 1e-12 * abs(f0)
                assert np.max(np.abs(gradient() - g0)) <= 1e-12 * np.max(np.abs(g0))
                H = hessian()
                assert np.array_equal(H, H.T)
                assert np.max(np.abs(H - H0)) <= 1e-12 * np.max(np.abs(H0))


def random_gaussians(rng, dim, K):
    gs = []
    for _ in range(K):
        a = rng.normal(0.0, 0.6, (dim, dim))
        gs.append(Gaussian(rng.normal(0.0, 1.0, dim), a @ a.T + 0.5 * np.eye(dim)))
    return gs


class TestMinKldClosedForm:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_objective_is_the_gaussian_log_normalizer_plus_kld_average(self, dim, K):
        # on the Gaussians' common grid (2048 or 257 x 257 nodes) the objective is
        # log integral prod_k q_k^(w_k) + sum_j w_j b_j, b_j the mean over a of KL(q_a || q_j)
        rng = np.random.default_rng(10 * dim + K)
        gs = random_gaussians(rng, dim, K)
        objective = W._min_kld_objective(OpinionProfile(common_grid(*gs)))
        b = np.array([np.mean([gaussian_kl(qa, qj) for qa in gs]) for qj in gs])
        for w in rng.dirichlet(np.ones(K), size=3):
            exact = gaussian_log_normalizer(gs, w) + w @ b
            assert abs(objective(w)[0] - exact) <= 1e-10 * abs(exact)

    def test_permuting_the_agents_permutes_the_weights(self):
        gs = random_gaussians(np.random.default_rng(5), 2, 3)
        prof = OpinionProfile(common_grid(*gs))
        res = W.min_kld_weights(prof)
        # the optimum is unique: the Hessian is positive definite along the simplex there
        tangent = np.eye(3) - 1.0 / 3.0
        lam = np.linalg.eigvalsh(tangent @ W._min_kld_objective(prof)(res.weights)[2]() @ tangent)
        assert lam[1] > 1e-3 * lam[2]
        for order in ([0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]):
            permuted = W.min_kld_weights(prof.permuted(order))
            np.testing.assert_allclose(permuted.weights, res.weights[order], rtol=0.0, atol=1e-12)


BAD_BUDGETS = [
    (0, 1e-6), (-3, 1e-6), (500, -1.0), (500, 0.0), (500, np.nan), (500, np.inf),
    (2.5, 1e-6), (np.inf, 1e-6), (np.nan, 1e-6),
]


class TestBudget:
    @pytest.mark.parametrize("max_iter, tol", BAD_BUDGETS)
    def test_min_kld_rejects_bad_budget(self, max_iter, tol):
        prof = OpinionProfile((gauss_grid(0.0, 1.0), gauss_grid(1.0, 2.0)))
        with pytest.raises(ValueError, match="max_iter"):
            W.min_kld_weights(prof, max_iter=max_iter, tol=tol)

    @pytest.mark.parametrize("max_iter, tol", BAD_BUDGETS)
    def test_ci_rejects_bad_budget(self, max_iter, tol):
        gs = [Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[2.0]]), Gaussian([0.5], [[0.7]])]
        with pytest.raises(ValueError, match="max_iter"):
            W.ci_weights(gs, max_iter=max_iter, tol=tol)

    @pytest.mark.parametrize("whole, count", [(3.0, 3), (True, 1), (np.int64(3), 3)], ids=["float", "bool", "int64"])
    def test_whole_budget_runs_as_the_int(self, whole, count):
        # a whole count is carried as an int: same weights, or the same NonConvergenceError
        prof = OpinionProfile((gauss_grid(0.0, 1.0), gauss_grid(1.0, 2.0), gauss_grid(0.5, 0.7)))
        gs = [Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[2.0]]), Gaussian([0.5], [[0.7]])]
        for method, data in ((W.min_kld_weights, prof), (W.ci_weights, gs)):
            outcomes = []
            for max_iter in (whole, count):
                try:
                    res = method(data, max_iter=max_iter, tol=1e-12)
                    outcomes.append((res.weights.tolist(), res.iterations, res.evaluations))
                except NonConvergenceError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], method.__name__


class TestReverseKldObjective:
    def test_uniform_beats_random(self):
        prof = OpinionProfile((gauss_grid(-1.0, 1.0), gauss_grid(0.5, 2.0), gauss_grid(1.5, 0.7)))
        at_uniform = W.reverse_kld_objective(prof, np.full(3, 1.0 / 3.0))
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert at_uniform <= W.reverse_kld_objective(prof, rng.dirichlet(np.ones(3))) + 1e-9

    def test_single_agent_zero(self):
        prof = OpinionProfile((gauss_grid(0.0, 1.0),))
        assert W.reverse_kld_objective(prof, [1.0]) == pytest.approx(0.0, abs=1e-10)

    def test_identical_agents_zero_everywhere(self):
        q = gauss_grid(0.0, 1.0)
        prof = OpinionProfile((q, q))
        for w1 in (0.1, 0.5, 0.9):
            assert W.reverse_kld_objective(prof, [w1, 1 - w1]) == pytest.approx(0.0, abs=1e-8)


class TestDiscrepancyWeights:
    def test_outlier_downweighted(self):
        # the broad shifted agent is far from both others in its own KLD
        a = gauss_grid(0.0, 1.0)
        b = gauss_grid(0.1, 1.0)
        c = gauss_grid(4.0, 4.0)
        w = W.discrepancy_weights(OpinionProfile((a, b, c)))
        assert np.argmin(w) == 2
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_pair_is_even(self):
        w = W.discrepancy_weights(OpinionProfile((gauss_grid(0.0, 1.0), gauss_grid(2.0, 1.0))))
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-9)

    def test_positivity_required(self):
        vals = np.ones(64)
        vals[0] = 0.0
        d = normalize(from_samples([0.0], [1.0], (64,), vals))
        with pytest.raises(PositivityError, match="^discrepancy weights need a strictly positive profile$"):
            W.discrepancy_weights(OpinionProfile((d, d)))

    def test_one_agent_refused(self):
        with pytest.raises(ValueError, match="^weight selection needs at least two agents$"):
            W.discrepancy_weights(OpinionProfile((gauss_grid(0.0, 1.0),)))

    def test_identical_agents_degenerate(self):
        q = gauss_grid(0.0, 1.0)
        with pytest.raises(DegenerateError):
            W.discrepancy_weights(OpinionProfile((q, q)))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("K", [3, 4, 5])
    def test_match_the_closed_form_kl_table(self, dim, K):
        rng = np.random.default_rng(10 * dim + K)
        gs = []
        for _ in range(K):
            a = rng.normal(0.0, 0.5, (dim, dim))
            gs.append(Gaussian(rng.normal(0.0, 1.0, dim), a @ a.T + 0.5 * np.eye(dim)))
        D = np.array([[gaussian_kl(p, q) if p is not q else 0.0 for q in gs] for p in gs])
        gamma = 1.0 / D.max(axis=1)
        expected = gamma / gamma.sum()
        w = W.discrepancy_weights(OpinionProfile(common_grid(*gs)))
        assert np.max(np.abs(w - expected) / expected) <= 1e-10

    def test_identical_agents_apart_get_equal_weights(self):
        # the KL table's entries for the two copies of a are formed alike,
        # however far apart in the profile the copies sit
        a = Gaussian([0.3, -0.2], [[1.0, 0.4], [0.4, 2.0]])
        b = Gaussian([-0.5, 0.4], [[1.5, -0.3], [-0.3, 0.9]])
        qa, qb = common_grid(a, b)
        w = W.discrepancy_weights(OpinionProfile((qa, qb, qa)))
        assert qa.grid.shape == (257, 257)
        assert w[0] == w[2]


class TestCiWeights:
    def test_equal_scalars_flat_objective(self):
        res = W.ci_weights([Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[1.0]])])
        assert res.objective == pytest.approx(1.0, abs=1e-9)

    def test_dominant_agent_takes_all(self):
        res = W.ci_weights([Gaussian([0.0], [[1.0]]), Gaussian([0.0], [[4.0]])])
        assert res.weights[0] == pytest.approx(1.0, abs=1e-3)
        assert res.objective == pytest.approx(1.0, abs=1e-6)

    def test_crossed_strengths_balance(self):
        a = Gaussian([0.0, 0.0], np.diag([1.0, 4.0]))
        b = Gaussian([0.0, 0.0], np.diag([4.0, 1.0]))
        res = W.ci_weights([a, b], W.CICriterion.TRACE)
        np.testing.assert_allclose(res.weights, [0.5, 0.5], atol=1e-3)

    def test_three_agents_prefer_sharpest(self):
        gs = [
            Gaussian([0.0], [[1.0]]),
            Gaussian([0.0], [[2.0]]),
            Gaussian([0.0], [[8.0]]),
        ]
        res = W.ci_weights(gs, W.CICriterion.TRACE)
        assert res.converged
        assert res.weights[0] == pytest.approx(1.0, abs=1e-2)

    @pytest.mark.parametrize("criterion", list(W.CICriterion))
    @pytest.mark.parametrize(
        "covs",
        [
            pytest.param(([[1.0]], [[3.0]]), id="1d-dominant-vertex"),
            pytest.param((np.diag([1.0, 4.0]), np.diag([4.0, 1.0])), id="2d-crossed"),
            pytest.param(([[2.0, 0.6], [0.6, 0.5]], [[0.7, -0.3], [-0.3, 1.8]]), id="2d-correlated"),
            pytest.param((np.eye(2), np.diag([2.0, 3.0])), id="2d-dominant-vertex"),
        ],
    )
    def test_two_agents_match_dense_sweep(self, covs, criterion):
        gs = [Gaussian(np.zeros(len(c)), c) for c in covs]
        res = W.ci_weights(gs, criterion)
        assert res.converged
        w1 = np.linspace(0.0, 1.0, 100001)
        sizes = ci_sizes(covs, np.column_stack([w1, 1.0 - w1]), criterion is W.CICriterion.TRACE)
        assert abs(res.objective - sizes.min()) <= 1e-9

    @pytest.mark.parametrize("criterion", list(W.CICriterion))
    def test_rotated_face_optimum_matches_sweep(self, criterion):
        # iterates land at w_0 of order 1e-17 on the way to the face w_0 = 0;
        # counting such a weight as free of its bound stalls the line search
        sweep = ci_sweep(CI_PROBLEM_COVS, criterion)  # the CI sizes are rotation invariant
        for seed in range(50):
            a = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
            rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
            gs = [Gaussian([0.0, 0.0], rot @ np.asarray(c) @ rot.T) for c in CI_PROBLEM_COVS]
            res = W.ci_weights(gs, criterion)
            assert res.converged
            assert abs(res.objective - sweep) <= 1e-9, seed

    @pytest.mark.parametrize("criterion", list(W.CICriterion))
    def test_five_two_d_agents_take_few_evaluations(self, criterion):
        # five 2-D precisions span at most the 3-D space of symmetric 2x2
        # matrices: the Hessian is singular, and the Newton step from uniform
        # weights is many simplex widths long. Started at full length, the
        # line search takes 71 (trace) and 75 (log-det) evaluations here
        covs = [a @ a.T + 0.3 * np.eye(2) for a in np.random.default_rng(5).normal(size=(5, 2, 2))]
        res = W.ci_weights([Gaussian([0.0, 0.0], c) for c in covs], criterion)
        assert res.converged
        assert res.evaluations <= 25

    def test_one_agent_refused(self):
        with pytest.raises(ValueError, match="^weight selection needs at least two agents$"):
            W.ci_weights([Gaussian([0.0], [[1.0]])])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            W.ci_weights([Gaussian([0.0], [[1.0]]), Gaussian([0.0, 0.0], np.eye(2))])

    def test_logdet_criterion_runs(self):
        a = Gaussian([0.0, 0.0], np.diag([1.0, 4.0]))
        b = Gaussian([0.0, 0.0], np.diag([4.0, 1.0]))
        res = W.ci_weights([a, b], W.CICriterion.LOGDET)
        np.testing.assert_allclose(res.weights, [0.5, 0.5], atol=1e-3)


class TestCiWeightsFuseThroughCiFuse:
    """Each objective evaluation of ci_weights is one ``ci_fuse`` call, and the value it returns
    is the size of that call's fused covariance, bit for bit."""

    PROBLEMS = {
        "bench-2d": [Gaussian(m, c) for m, c in BENCH_CI],
        "1d-pair": [Gaussian([0.3], [[1.2]]), Gaussian([-0.4], [[0.7]])],
    }

    @staticmethod
    def size(fused, criterion):
        if criterion is W.CICriterion.TRACE:
            return float(np.trace(fused.cov))
        return 2.0 * float(np.log(fused.chol.diagonal()).sum())

    @pytest.mark.parametrize("criterion", list(W.CICriterion))
    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    def test_one_fusion_per_evaluation(self, monkeypatch, problem, criterion):
        calls = []

        def counted(gaussians, weights):
            calls.append(weights)
            return ci_fuse(gaussians, weights)

        monkeypatch.setattr(W, "ci_fuse", counted)
        res = W.ci_weights(self.PROBLEMS[problem], criterion)
        assert res.converged
        assert len(calls) == res.evaluations

    @pytest.mark.parametrize("criterion", list(W.CICriterion))
    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    def test_objective_is_the_fused_size(self, problem, criterion):
        gs = self.PROBLEMS[problem]
        res = W.ci_weights(gs, criterion)
        assert res.objective == self.size(ci_fuse(gs, res.weights), criterion)


class TestConvexity:
    def test_chords_lie_above_function(self):
        prof = OpinionProfile((gauss_grid(-0.7, 1.0), gauss_grid(0.6, 2.5)))
        logs = np.stack([np.log(q.values) for q in prof.densities]).reshape(2, -1)
        quad = prof.grid.quad_weights.reshape(-1)
        from pdffusion.divergence import kl

        D = np.array(
            [
                [0.0, kl(prof.densities[0], prof.densities[1])],
                [kl(prof.densities[1], prof.densities[0]), 0.0],
            ]
        )
        bcoef = D.sum(axis=0) / 2.0

        def L(w):
            s = w @ logs
            m = s.max()
            return m + np.log(np.sum(quad * np.exp(s - m))) + w @ bcoef

        rng = np.random.default_rng(17)
        for _ in range(20):
            a = rng.dirichlet(np.ones(2))
            b = rng.dirichlet(np.ones(2))
            lam = rng.uniform()
            mid = lam * a + (1 - lam) * b
            assert L(mid) <= lam * L(a) + (1 - lam) * L(b) + 1e-8
