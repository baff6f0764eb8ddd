from __future__ import annotations

import numpy as np
import pytest

from pdffusion import gaussian as G
from pdffusion.errors import DimensionError, GridMismatchError, SimplexError, SingularityError
from pdffusion.grid import integrate, moments


class TestGaussianType:
    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ValueError):
            G.Gaussian([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_symmetry_tolerance_is_relative_to_scale(self):
        # asymmetry 1e-9 against entries of 1e6: a relative 1e-15 round-off
        g = G.Gaussian([0.0, 0.0], [[1e6, 0.1], [0.1 + 1e-9, 1e6]])
        assert g.cov[0, 1] == g.cov[1, 0]

    def test_indefinite_cov_rejected(self):
        with pytest.raises(SingularityError):
            G.Gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            G.Gaussian([0.0, 0.0], [[1.0]])

    def test_scalar_inputs_promoted(self):
        g = G.Gaussian(0.0, 1.0)
        assert g.dim == 1


class TestEval:
    def test_standard_normal_mode(self):
        g = G.Gaussian([0.0], [[1.0]])
        assert G.eval(g, [0.0]) == pytest.approx(0.3989422804014327, abs=1e-15)

    def test_standard_2d_mode(self):
        g = G.Gaussian([0.0, 0.0], np.eye(2))
        assert G.eval(g, [0.0, 0.0]) == pytest.approx(0.15915494309189535, abs=1e-15)

    def test_shifted_evaluation(self):
        g = G.Gaussian([2.5], [[1.0]])
        assert G.eval(g, [0.0]) == pytest.approx(0.017528300493568537, rel=1e-13)

    def test_dim_mismatch(self):
        g = G.Gaussian([0.0], [[1.0]])
        with pytest.raises(DimensionError):
            G.eval(g, [0.0, 1.0])


class TestToGrid:
    def test_default_1d_moments(self):
        d = G.to_grid(G.Gaussian([0.0], [[1.0]]))
        assert d.normalized
        assert d.shape == (2048,)
        mean, cov = moments(d)
        assert mean[0] == pytest.approx(0.0, abs=1e-4)
        assert cov[0, 0] == pytest.approx(1.0, abs=1e-4)

    def test_narrow_variance(self):
        d = G.to_grid(G.Gaussian([0.0], [[0.5]]))
        _, cov = moments(d)
        assert cov[0, 0] == pytest.approx(0.5, abs=1e-4)

    def test_2d_default(self):
        d = G.to_grid(G.Gaussian([1.0, -1.0], np.diag([1.0, 4.0])))
        assert d.shape == (257, 257)
        mean, cov = moments(d)
        np.testing.assert_allclose(mean, [1.0, -1.0], atol=1e-4)
        np.testing.assert_allclose(cov, np.diag([1.0, 4.0]), atol=1e-3)

    def test_explicit_bounds(self):
        d = G.to_grid(G.Gaussian([0.0], [[1.0]]), [-8.0], [8.0], (2048,))
        assert integrate(d) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(d.lower, [-8.0])

    def test_three_dims_rejected(self):
        g = G.Gaussian(np.zeros(3), np.eye(3))
        with pytest.raises(DimensionError):
            G.to_grid(g)


class TestCommonGrid:
    def test_grid_input_fixes_the_grid(self):
        ref = G.to_grid(G.Gaussian([0.0], [[1.0]]), [-5.0], [6.0], (300,))
        wide = G.Gaussian([1.0], [[9.0]])
        on_grid, same = G.common_grid(wide, ref, points=64)
        assert same is ref
        assert on_grid.same_grid(ref)
        np.testing.assert_array_equal(on_grid.values, G.to_grid(wide, [-5.0], [6.0], (300,)).values)

    def test_gaussians_use_union_of_boxes(self):
        a, b = G.Gaussian([-2.5], [[1.0]]), G.Gaussian([2.5], [[1.0]])
        qa, qb = G.common_grid(a, b)
        np.testing.assert_array_equal(qa.lower, [-10.5])
        np.testing.assert_array_equal(qa.upper, [10.5])
        assert qa.shape == (G.DEFAULT_POINTS_1D,)
        assert qb.same_grid(qa)

    def test_different_grids_rejected(self):
        g = G.Gaussian([0.0], [[1.0]])
        with pytest.raises(GridMismatchError):
            G.common_grid(G.to_grid(g, [-8.0], [8.0], (64,)), G.to_grid(g, [-8.0], [8.0], (65,)))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            G.common_grid(G.Gaussian([0.0], [[1.0]]), G.Gaussian([0.0, 0.0], np.eye(2)))
        with pytest.raises(DimensionError):
            G.common_grid(G.to_grid(G.Gaussian([0.0], [[1.0]])), G.Gaussian([0.0, 0.0], np.eye(2)))

    def test_points_apply_per_axis_in_2d(self):
        a = G.Gaussian([0.0, 1.0], [[1.0, 0.2], [0.2, 4.0]])
        b = G.Gaussian([3.0, -1.0], np.eye(2))
        qa, qb = G.common_grid(a, b, points=40)
        assert qa.shape == qb.shape == (40, 40)
        np.testing.assert_allclose(qa.lower, [-8.0, -15.0])
        np.testing.assert_allclose(qa.upper, [11.0, 17.0])
        assert G.common_grid(a, b)[0].shape == (G.DEFAULT_POINTS_2D, G.DEFAULT_POINTS_2D)


class TestMixtureMoments:
    def test_two_component_example(self):
        mean, cov = G.mixture_moments(
            [G.Gaussian([0.0], [[1.0]]), G.Gaussian([2.0], [[1.0]])], [0.5, 0.5]
        )
        assert mean[0] == pytest.approx(1.0)
        assert cov[0, 0] == pytest.approx(2.0)

    def test_matches_grid_mixture(self):
        a, b = G.Gaussian([0.0], [[1.0]]), G.Gaussian([2.0], [[1.0]])
        mean, cov = G.mixture_moments([a, b], [0.5, 0.5])
        x = np.linspace(-9.0, 11.0, 4096)
        ga = G.eval_many(a, x)
        gb = G.eval_many(b, x)
        from pdffusion.grid import from_samples, normalize

        d = normalize(from_samples([-9.0], [11.0], (4096,), 0.5 * ga + 0.5 * gb))
        gmean, gcov = moments(d)
        assert gmean[0] == pytest.approx(mean[0], abs=1e-3)
        assert gcov[0, 0] == pytest.approx(cov[0, 0], abs=1e-3)

    def test_identical_components(self):
        g = G.Gaussian([1.0, 2.0], [[2.0, 0.3], [0.3, 1.0]])
        mean, cov = G.mixture_moments([g, g, g], [0.2, 0.5, 0.3])
        np.testing.assert_allclose(mean, g.mean, atol=1e-14)
        np.testing.assert_allclose(cov, g.cov, atol=1e-14)

    def test_one_hot_weights(self):
        a, b = G.Gaussian([0.0], [[1.0]]), G.Gaussian([5.0], [[3.0]])
        mean, cov = G.mixture_moments([a, b], [1.0, 0.0])
        assert mean[0] == 0.0
        assert cov[0, 0] == 1.0

    def test_spread_term_is_psd(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            gs = []
            for _ in range(3):
                m = rng.normal(size=2)
                a = rng.normal(size=(2, 2))
                gs.append(G.Gaussian(m, a @ a.T + 0.5 * np.eye(2)))
            w = rng.dirichlet(np.ones(3))
            _, cov = G.mixture_moments(gs, w)
            base = sum(wk * g.cov for wk, g in zip(w, gs))
            eigs = np.linalg.eigvalsh(cov - base)
            assert eigs.min() > -1e-12

    def test_simplex_enforced(self):
        g = G.Gaussian([0.0], [[1.0]])
        with pytest.raises(SimplexError):
            G.mixture_moments([g, g], [0.7, 0.7])
        with pytest.raises(SimplexError):
            G.mixture_moments([g, g], [-0.2, 1.2])

    def test_non_finite_weights_rejected(self):
        for w in ([np.nan, np.nan], [np.inf, 0.0], [0.5, np.nan]):
            with pytest.raises(SimplexError):
                G.check_simplex(w, 2)


class TestCiFuse:
    def test_symmetric_pair_collapses_to_standard_normal(self):
        fused = G.ci_fuse(
            [G.Gaussian([-2.5], [[1.0]]), G.Gaussian([2.5], [[1.0]])], [0.5, 0.5]
        )
        assert fused.mean[0] == pytest.approx(0.0, abs=1e-14)
        assert fused.cov[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_precision_average(self):
        fused = G.ci_fuse(
            [G.Gaussian([0.0], [[5.0]]), G.Gaussian([0.0], [[0.5]])], [0.5, 0.5]
        )
        assert fused.cov[0, 0] == pytest.approx(10.0 / 11.0, rel=1e-12)

    def test_identical_inputs(self):
        g = G.Gaussian([1.0, 0.0], [[2.0, 0.5], [0.5, 1.0]])
        fused = G.ci_fuse([g, g], [0.3, 0.7])
        np.testing.assert_allclose(fused.mean, g.mean, atol=1e-12)
        np.testing.assert_allclose(fused.cov, g.cov, atol=1e-12)

    def test_one_hot_returns_input_exactly(self):
        a = G.Gaussian([0.3], [[1.7]])
        b = G.Gaussian([-4.0], [[0.2]])
        assert G.ci_fuse([a, b], [0.0, 1.0]) is b

    def test_fused_precision_is_weighted_average(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            gs = []
            for _ in range(3):
                a = rng.normal(size=(2, 2))
                gs.append(G.Gaussian(rng.normal(size=2), a @ a.T + 0.5 * np.eye(2)))
            w = rng.dirichlet(np.ones(3))
            fused = G.ci_fuse(gs, w)
            target = sum(wk * G.pd_inverse(g.cov) for wk, g in zip(w, gs))
            np.testing.assert_allclose(G.pd_inverse(fused.cov), target, atol=1e-12)
