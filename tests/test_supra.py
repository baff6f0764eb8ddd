from __future__ import annotations

import numpy as np
import pytest
from scipy import linalg

from pdffusion import gaussian as gaussian_module
from pdffusion import supra as S
from pdffusion.errors import DimensionError, RankError, SingularityError
from pdffusion.gaussian import Gaussian, pd_inverse, to_grid
from pdffusion.grid import OpinionProfile, moments
from pdffusion.pooling import bayes_update

from closed_forms import gaussian_log_pdf


def random_block_diag_model(rng, K=3, d_theta=2, extra_rows=1):
    hs, blocks = [], []
    for _ in range(K):
        rows = d_theta + int(rng.integers(0, extra_rows + 1))
        hs.append(rng.normal(size=(rows, d_theta)))
        a = rng.normal(size=(rows, rows))
        blocks.append(a @ a.T + 0.5 * np.eye(rows))
    sigma = linalg.block_diag(*blocks)
    a0 = rng.normal(size=(d_theta, d_theta))
    prior_cov = a0 @ a0.T + 0.5 * np.eye(d_theta)
    return S.LinearGaussianModel(tuple(hs), sigma, rng.normal(size=d_theta), prior_cov)


def random_correlated_model(rng, K=3, d_yk=2, d_theta=2):
    hs = tuple(rng.normal(size=(d_yk, d_theta)) for _ in range(K))
    d_y = K * d_yk
    b = rng.normal(size=(d_y, d_y))
    sigma = b @ b.T + 0.5 * np.eye(d_y)
    a0 = rng.normal(size=(d_theta, d_theta))
    prior_cov = a0 @ a0.T + 0.5 * np.eye(d_theta)
    return S.LinearGaussianModel(hs, sigma, rng.normal(size=d_theta), prior_cov)


class TestModelValidation:
    def test_rank_deficient_block_rejected(self):
        h = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(RankError):
            S.LinearGaussianModel((h,), np.eye(3), np.zeros(2), np.eye(2))

    def test_wide_block_rejected(self):
        with pytest.raises(DimensionError):
            S.LinearGaussianModel((np.ones((1, 2)),), np.eye(1), np.zeros(2), np.eye(2))

    def test_asymmetric_sigma_rejected(self):
        sigma = np.eye(2)
        sigma[0, 1] = 0.5
        with pytest.raises(ValueError):
            S.LinearGaussianModel(
                (np.ones((1, 1)), np.ones((1, 1))), sigma, np.zeros(1), np.eye(1)
            )

    def test_indefinite_sigma_rejected(self):
        sigma = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError):
            S.LinearGaussianModel(
                (np.ones((1, 1)), np.ones((1, 1))), sigma, np.zeros(1), np.eye(1)
            )

    def test_singular_reduced_covariance_rejected(self):
        # perfectly correlated single observations leave no information split
        sigma = np.ones((2, 2))
        with pytest.raises(SingularityError):
            S.LinearGaussianModel(
                (np.ones((1, 1)), np.ones((1, 1))), sigma, np.zeros(1), np.eye(1)
            )

    def test_psd_singular_sigma_accepted(self):
        # shared noise makes the joint covariance singular but the model valid
        model = S.private_shared_model(3, 4, (1, 4, 4))
        eigs = np.linalg.eigvalsh(model.Sigma)
        assert eigs[0] < 1e-12
        assert model.K == 3

    @pytest.mark.parametrize(
        "sigma, prior_cov, message",
        [
            (np.eye(3), np.eye(2), r"^Sigma shape \(3, 3\), expected \(2, 2\)$"),
            (np.eye(2), np.eye(2), r"^prior covariance shape \(2, 2\), expected \(1, 1\)$"),
            (np.eye(2), [1.0, 1.0], r"^prior covariance shape \(1, 2\), expected \(1, 1\)$"),
        ],
    )
    def test_matrix_of_the_wrong_size_names_the_expected_shape(self, sigma, prior_cov, message):
        with pytest.raises(DimensionError, match=message):
            S.LinearGaussianModel((np.ones((1, 1)), np.ones((1, 1))), sigma, np.zeros(1), prior_cov)

    def test_prior_must_be_pd(self):
        with pytest.raises(SingularityError):
            S.LinearGaussianModel((np.ones((1, 1)),), np.eye(1), np.zeros(1), np.zeros((1, 1)))

    def test_asymmetric_prior_cov_rejected(self):
        with pytest.raises(ValueError, match="prior covariance is not symmetric"):
            S.LinearGaussianModel(
                (np.eye(2),), np.eye(2), np.zeros(2), [[1.0, 0.9], [-0.5, 1.0]]
            )

    def test_prior_cov_round_off_is_symmetrized(self):
        prior_cov = np.array([[2.0, 0.3], [0.3 + 1e-12, 1.0]])
        model = S.LinearGaussianModel((np.eye(2),), np.eye(2), np.zeros(2), prior_cov)
        assert model.prior_cov[0, 1] == model.prior_cov[1, 0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prior_mean_rejected(self, bad):
        with pytest.raises(ValueError, match="prior mean entry 1 is not finite"):
            S.LinearGaussianModel((np.eye(2),), np.eye(2), [0.0, bad], np.eye(2))

    def test_kept_factors_are_read_only_and_out_of_repr(self):
        rng = np.random.default_rng(4)
        model = random_correlated_model(rng)
        for arr in (*model.H_blocks, model.Sigma, model.prior_mean, model.prior_cov):
            assert not arr.flags.writeable
        # the repr shows the four inputs and nothing derived from them
        assert "chol" not in repr(model)
        assert "precision" not in repr(model)
        assert repr(model).count("array(") == model.K + 3


class TestFactorizedOnce:
    """The prior, each noise block, each local precision and the joint noise
    covariance is factorized once per model, however many fusions run on it,
    and each fused Gaussian costs one factorization of its precision."""

    @pytest.fixture
    def factorized(self, monkeypatch):
        calls = []
        original = gaussian_module.cholesky

        def counting(mat, what):
            calls.append(np.array(mat, copy=True))
            return original(mat, what)

        monkeypatch.setattr(gaussian_module, "cholesky", counting)
        return calls

    @pytest.mark.parametrize("d_theta, fuse", [(1, S.scalar_fusion), (2, S.vector_fusion)])
    def test_each_model_matrix_once(self, factorized, d_theta, fuse):
        rng = np.random.default_rng(17)
        model = random_correlated_model(rng, K=3, d_yk=3, d_theta=d_theta)
        y = rng.normal(size=model.d_y)
        t, _ = S.local_statistics(model, y)
        fuse(model, t, y)
        fuse(model, t, y)
        fuse(model, t)
        S.substituted_oracle(model, y)
        matrices = [
            model.prior_cov,
            *(model.sigma_block(k) for k in range(model.K)),
            *model.local_precisions,
            model.Sigma,
        ]
        counts = [sum(np.array_equal(c, m) for c in factorized) for m in matrices]
        assert counts == [1] * len(matrices)

    @pytest.mark.parametrize("d_theta", [1, 2, 3])
    def test_one_per_fused_gaussian(self, factorized, d_theta):
        rng = np.random.default_rng(5)
        model = random_correlated_model(rng, K=3, d_yk=3, d_theta=d_theta)
        # the prior, three noise blocks, three local precisions, the reduced covariance
        assert len(factorized) == 8
        y = rng.normal(size=model.d_y)
        t, _ = S.local_statistics(model, y)
        S.vector_fusion(model, t, y)  # the first call also inverts the joint noise
        calls = {
            "fusion with y": lambda: S.vector_fusion(model, t, y),
            "fusion without y": lambda: S.vector_fusion(model, t),
            "substituted oracle": lambda: S.substituted_oracle(model, y),
        }
        counts = {}
        for name, call in calls.items():
            before = len(factorized)
            call()
            counts[name] = len(factorized) - before
        assert counts == {"fusion with y": 2, "fusion without y": 1, "substituted oracle": 1}

    def test_ci_fuse_factorizes_once(self, factorized):
        rng = np.random.default_rng(6)
        gs = []
        for _ in range(3):
            a = rng.normal(size=(2, 2))
            gs.append(Gaussian(rng.normal(size=2), a @ a.T + 0.5 * np.eye(2)))
        before = len(factorized)
        gaussian_module.ci_fuse(gs, [0.2, 0.3, 0.5])
        assert len(factorized) - before == 1


class TestLocalStatistics:
    def test_identity_map(self):
        model = S.LinearGaussianModel(
            (np.eye(2), np.eye(2)), np.eye(4), np.zeros(2), np.eye(2)
        )
        y = np.array([1.0, -2.0, 0.5, 3.0])
        t, v_blocks = S.local_statistics(model, y)
        np.testing.assert_allclose(t, y, atol=1e-12)
        for v in v_blocks:
            np.testing.assert_allclose(v, np.eye(2), atol=1e-12)

    def test_all_ones_row_gives_sample_mean(self):
        model = S.LinearGaussianModel((np.ones((4, 1)),), np.eye(4), np.zeros(1), np.eye(1))
        y = np.array([1.0, 2.0, 3.0, 6.0])
        t, _ = S.local_statistics(model, y)
        assert t[0] == pytest.approx(3.0, abs=1e-12)

    def test_map_identity_property(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            model = random_correlated_model(rng)
            for v, h in zip(model.V_blocks, model.H_blocks):
                np.testing.assert_allclose(v @ h, np.eye(model.d_theta), atol=1e-10)

    def test_length_mismatch(self):
        model = S.private_shared_model(2, 1, (1, 1))
        with pytest.raises(DimensionError):
            S.local_statistics(model, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observation_rejected(self, bad):
        model = S.private_shared_model(2, 1, (1, 1))
        y = np.zeros(model.d_y)
        y[2] = bad
        with pytest.raises(ValueError, match="observation entry 2 is not finite"):
            S.local_statistics(model, y)


class TestGlobalParams:
    def test_single_identity_agent(self):
        model = S.LinearGaussianModel((np.eye(2),), np.eye(2), np.zeros(2), np.eye(2))
        st, shi = S.global_likelihood_params(model)
        np.testing.assert_allclose(st, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(shi, np.eye(2), atol=1e-12)

    def test_block_diagonal_structure(self):
        rng = np.random.default_rng(3)
        model = random_block_diag_model(rng, K=3, d_theta=2)
        st, _ = S.global_likelihood_params(model)
        for k in range(3):
            expected = pd_inverse(model.local_precisions[k])
            np.testing.assert_allclose(
                st[2 * k : 2 * k + 2, 2 * k : 2 * k + 2], expected, atol=1e-10
            )
        off = st.copy()
        for k in range(3):
            off[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = 0.0
        assert np.max(np.abs(off)) < 1e-12

    def test_private_shared_closed_form_entries(self):
        K, r0, r = 3, 4, (1, 4, 4)
        model = S.private_shared_model(K, r0, r)
        st, _ = S.global_likelihood_params(model)
        for a in range(K):
            for b in range(K):
                if a == b:
                    expected = 1.0 / (r0 + r[a])
                else:
                    expected = r0 / ((r0 + r[a]) * (r0 + r[b]))
                assert st[a, b] == pytest.approx(expected, abs=1e-12)


class TestScalarFusion:
    def test_textbook_conjugate_update(self):
        model = S.LinearGaussianModel((np.ones((1, 1)),), np.eye(1), np.zeros(1), np.eye(1))
        y = np.array([2.0])
        t, _ = S.local_statistics(model, y)
        res = S.scalar_fusion(model, t, y)
        assert res.posterior.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert res.posterior.cov[0, 0] == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(res.oracle.mean, res.posterior.mean, atol=1e-12)

    def test_block_diagonal_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            model = random_block_diag_model(rng, K=int(rng.integers(1, 5)), d_theta=1)
            y = rng.normal(size=model.d_y)
            t, _ = S.local_statistics(model, y)
            res = S.scalar_fusion(model, t, y)
            assert res.oracle is not None
            np.testing.assert_allclose(res.posterior.mean, res.oracle.mean, atol=1e-10)
            np.testing.assert_allclose(res.posterior.cov, res.oracle.cov, atol=1e-10)

    def test_example_weights(self):
        model = S.private_shared_model(3, 4, (1, 4, 4))
        t = np.zeros(3)
        res = S.scalar_fusion(model, t)
        np.testing.assert_allclose(
            res.scalar_weights, [-1.0 / 7.0, 5.0 / 7.0, 5.0 / 7.0], atol=1e-12
        )

    def test_vector_parameter_rejected(self):
        rng = np.random.default_rng(0)
        model = random_block_diag_model(rng, K=2, d_theta=2)
        with pytest.raises(DimensionError):
            S.scalar_fusion(model, np.zeros(4))

    def test_result_carries_the_vector_fields(self):
        model = S.private_shared_model(3, 4, (1, 4, 4))
        res = S.scalar_fusion(model, np.zeros(3))
        assert len(res.vector_weights) == 3 and res.G.shape == (1, 1)
        flat = [float(w[0, 0]) for w in res.vector_weights]
        np.testing.assert_array_equal(res.scalar_weights, flat)


class TestVectorFusion:
    def test_scalar_model_weights_agree(self):
        # at d_theta = 1 the weights are the private-shared closed form and
        # the posterior is the substituted oracle
        rng = np.random.default_rng(12)
        for counts in ((4, 1, 4, 4), (0, 2, 5, 7), (2, 3, 1), (5, 1, 2, 3, 4)):
            r0, r = counts[0], counts[1:]
            model = S.private_shared_model(len(r), r0, r)
            y = rng.normal(size=model.d_y)
            t, _ = S.local_statistics(model, y)
            res = S.vector_fusion(model, t, y)
            flat = np.array([float(w[0, 0]) for w in res.vector_weights])
            np.testing.assert_allclose(flat, S.private_shared_weights(len(r), r0, r), atol=1e-12)
            np.testing.assert_array_equal(res.scalar_weights, flat)
            sub = S.substituted_oracle(model, y)
            np.testing.assert_allclose(res.posterior.mean, sub.mean, atol=1e-12)
            np.testing.assert_allclose(res.posterior.cov, sub.cov, atol=1e-12)

    def test_vector_model_has_no_scalar_weights(self):
        rng = np.random.default_rng(6)
        model = random_correlated_model(rng)
        res = S.vector_fusion(model, np.zeros(model.K * model.d_theta))
        assert res.scalar_weights is None
        assert len(res.vector_weights) == model.K and res.G.shape == (2, 2)

    def test_non_finite_statistic_rejected(self):
        model = S.private_shared_model(3, 4, (1, 4, 4))
        with pytest.raises(ValueError, match="statistic entry 1 is not finite"):
            S.vector_fusion(model, [0.0, np.nan, 0.0])

    def test_multi_sensor_precision_update(self):
        rng = np.random.default_rng(5)
        d = 2
        vars_ = [0.5, 2.0, 4.0]
        hs = tuple(np.eye(d) for _ in vars_)
        sigma = linalg.block_diag(*[v * np.eye(d) for v in vars_])
        model = S.LinearGaussianModel(hs, sigma, np.zeros(d), 3.0 * np.eye(d))
        y = rng.normal(size=3 * d)
        t, _ = S.local_statistics(model, y)
        res = S.vector_fusion(model, t, y)
        prec = sum(np.eye(d) / v for v in vars_) + np.eye(d) / 3.0
        cov = np.linalg.inv(prec)
        mean = cov @ sum(y[2 * k : 2 * k + 2] / vars_[k] for k in range(3))
        np.testing.assert_allclose(res.posterior.cov, cov, atol=1e-10)
        np.testing.assert_allclose(res.posterior.mean, mean, atol=1e-10)

    def test_correlated_model_differs_from_oracle_but_substitution_explains(self):
        # square blocks lose nothing (V is invertible), so use tall ones
        rng = np.random.default_rng(21)
        model = random_correlated_model(rng, K=3, d_yk=3, d_theta=2)
        y = rng.normal(size=model.d_y)
        t, _ = S.local_statistics(model, y)
        res = S.vector_fusion(model, t, y)
        assert res.oracle is not None
        assert np.max(np.abs(res.posterior.mean - res.oracle.mean)) > 1e-6
        sub = S.substituted_oracle(model, y)
        np.testing.assert_allclose(sub.mean, res.posterior.mean, atol=1e-10)
        np.testing.assert_allclose(sub.cov, res.posterior.cov, atol=1e-10)

    def test_mean_identity(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            model = random_correlated_model(rng)
            y = rng.normal(size=model.d_y)
            t, _ = S.local_statistics(model, y)
            res = S.vector_fusion(model, t, y)
            dt, K = model.d_theta, model.K
            lhs = model.ones_kron.T @ model.sigma_tilde_inv @ t
            rhs = np.zeros(dt)
            for k in range(K):
                wk = res.vector_weights[k]
                rhs = rhs + wk.T @ model.local_precisions[k] @ t[k * dt : (k + 1) * dt]
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_posteriors_positive_definite(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            model = random_correlated_model(rng)
            y = rng.normal(size=model.d_y)
            t, _ = S.local_statistics(model, y)
            res = S.vector_fusion(model, t, y)
            np.linalg.cholesky(res.posterior.cov)
            np.linalg.cholesky(res.oracle.cov)
            assert np.max(np.abs(res.G - res.G.T)) < 1e-12


class TestPrivateShared:
    def test_example_exact_weight(self):
        w = S.private_shared_weights(3, 4, (1, 4, 4))
        assert w[0] == pytest.approx(-1.0 / 7.0, abs=1e-12)
        np.testing.assert_allclose(w, [-1.0 / 7.0, 5.0 / 7.0, 5.0 / 7.0], atol=1e-12)

    def test_closed_form_matches_matrix_formula(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            K = int(rng.integers(2, 6))
            r0 = int(rng.integers(1, 11))
            r = rng.integers(1, 9, size=K)
            closed = S.private_shared_weights(K, r0, r)
            model = S.private_shared_model(K, r0, r)
            res = S.scalar_fusion(model, np.zeros(K))
            np.testing.assert_allclose(closed, res.scalar_weights, atol=1e-10)

    def test_no_shared_noise_gives_unit_weights(self):
        np.testing.assert_array_equal(S.private_shared_weights(3, 0, (2, 5, 7)), np.ones(3))
        model = S.private_shared_model(3, 0, (2, 5, 7))
        res = S.scalar_fusion(model, np.zeros(3))
        np.testing.assert_allclose(res.scalar_weights, np.ones(3), atol=1e-12)

    def test_dominant_shared_noise_evens_out(self):
        w = S.private_shared_weights(3, 10**6, (5, 5, 5))
        np.testing.assert_allclose(w, np.full(3, 1.0 / 3.0), atol=1e-5)

    @pytest.mark.parametrize(
        "K, r0, r",
        [
            (3, 4, (1, 4, 4.5)),
            (3, 4.9, (1.5, 4, 4)),
            (3, np.inf, (1, 4, 4)),
            (3, 4, (1, 4, np.nan)),
            (2.5, 4, (1, 4)),
        ],
    )
    def test_non_integral_counts_rejected(self, K, r0, r):
        with pytest.raises(ValueError, match="must be a whole number"):
            S.private_shared_model(K, r0, r)
        with pytest.raises(ValueError, match="must be a whole number"):
            S.private_shared_weights(K, r0, r)

    def test_integral_floats_accepted(self):
        model = S.private_shared_model(3.0, 4.0, np.array([1.0, 4.0, 4.0]))
        assert model.block_sizes == (5, 8, 8)
        np.testing.assert_array_equal(
            S.private_shared_weights(3.0, 4.0, [1.0, 4.0, 4.0]),
            S.private_shared_weights(3, 4, (1, 4, 4)),
        )

    @pytest.mark.parametrize("r0, r", [(4, (1, 0, 4)), (-1, (1, 4, 4))])
    def test_weights_check_counts_like_the_model(self, r0, r):
        for build in (S.private_shared_model, S.private_shared_weights):
            with pytest.raises(ValueError, match="private counts must be positive"):
                build(3, r0, r)

    def test_weights_count_mismatch(self):
        for build in (S.private_shared_model, S.private_shared_weights):
            with pytest.raises(DimensionError):
                build(3, 4, (1, 4))

    def test_weight_sum_bounds(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            K = int(rng.integers(2, 6))
            r0 = int(rng.integers(1, 11))
            r = rng.integers(1, 9, size=K)
            total = float(np.sum(S.private_shared_weights(K, r0, r)))
            assert 1.0 - 1e-12 <= total <= K + 1e-12


class TestLikelihoodProduct:
    def test_scalar_weighted_product_matches_joint(self):
        rng = np.random.default_rng(77)
        model = S.private_shared_model(2, 2, (2, 3))
        y = rng.normal(size=model.d_y) + 0.7
        t, _ = S.local_statistics(model, y)
        res = S.scalar_fusion(model, t)
        w = res.scalar_weights
        st = model.Sigma_tilde
        thetas = np.linspace(-2.0, 2.0, 41)
        log_prod = np.zeros_like(thetas)
        log_joint = np.zeros_like(thetas)
        for i, th in enumerate(thetas):
            for k in range(2):
                log_prod[i] += w[k] * gaussian_log_pdf(Gaussian([th], [[st[k, k]]]), [t[k]])
            log_joint[i] = gaussian_log_pdf(Gaussian(np.full(2, th), st), t)
        diff = log_prod - log_joint
        assert np.ptp(diff) < 1e-8


class TestGridCrossCheck:
    def test_fused_grid_matches_closed_form(self):
        rng = np.random.default_rng(91)
        model = S.private_shared_model(3, 4, (1, 4, 4))
        y = rng.normal(size=model.d_y) + 0.4
        t, _ = S.local_statistics(model, y)
        res = S.scalar_fusion(model, t)

        prior = to_grid(Gaussian([0.0], [[1.0]]), [-8.0], [8.0], (2048,))
        x = prior.grid.axes[0]
        offsets = np.concatenate([[0], np.cumsum(model.block_sizes)])
        posteriors = []
        for k in range(3):
            yk = y[offsets[k] : offsets[k + 1]]
            ell = np.exp(-0.5 * np.sum((yk[:, None] - x[None, :]) ** 2, axis=0))
            posteriors.append(bayes_update(prior, ell))
        fused = S.multiplicative_posterior_fusion(
            prior, OpinionProfile(tuple(posteriors)), res.scalar_weights
        )
        mean, cov = moments(fused)
        assert mean[0] == pytest.approx(res.posterior.mean[0], abs=1e-4)
        assert cov[0, 0] == pytest.approx(res.posterior.cov[0, 0], abs=1e-4)


class TestExpfam:
    def test_plain_sum(self):
        out = S.expfam_fuse_statistics([(1.0, 2.0), (3.0, 4.0)], (0.0, 0.0))
        np.testing.assert_array_equal(out, [4.0, 6.0])

    def test_empty_list_returns_prior_statistic(self):
        np.testing.assert_array_equal(S.expfam_fuse_statistics([], (1.5, -2.0)), [1.5, -2.0])

    def test_gaussian_natural_parameters(self):
        rng = np.random.default_rng(13)
        model = random_block_diag_model(rng, K=3, d_theta=2)
        y = rng.normal(size=model.d_y)
        t, _ = S.local_statistics(model, y)
        res = S.vector_fusion(model, t, y)
        offsets = np.concatenate([[0], np.cumsum(model.block_sizes)])
        t_list = []
        for k in range(3):
            yk = y[offsets[k] : offsets[k + 1]]
            t_list.append(model.H_blocks[k].T @ pd_inverse(model.sigma_block(k)) @ yk)
        t0 = pd_inverse(model.prior_cov) @ model.prior_mean
        fused_nat = S.expfam_fuse_statistics(t_list, t0)
        post_prec = res.Sigma_hat_inv + pd_inverse(model.prior_cov)
        np.testing.assert_allclose(fused_nat, post_prec @ res.posterior.mean, atol=1e-8)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            S.expfam_fuse_statistics([(1.0,), (2.0, 3.0)], (0.0,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_statistic_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^statistic 1 entry 0 is not finite"):
            S.expfam_fuse_statistics([(1.0, 2.0), (bad, 4.0)], (0.0, 0.0))
        with pytest.raises(ValueError, match=r"^prior statistic entry 1 is not finite"):
            S.expfam_fuse_statistics([(1.0, 2.0)], (0.0, bad))
