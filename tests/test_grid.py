from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdffusion.errors import (
    DegenerateError,
    DimensionError,
    DomainError,
    GridMismatchError,
    NotNormalizedError,
)
from pdffusion.grid import (
    Grid,
    GridDensity,
    OpinionProfile,
    event_probability,
    from_samples,
    integrate,
    moments,
    normalize,
)

INV_SQRT_2PI = 0.3989422804014327
INV_2PI = 0.15915494309189535


def std_normal_1d(n=2049, half_width=8.0):
    x = np.linspace(-half_width, half_width, n)
    vals = np.exp(-0.5 * x * x) * INV_SQRT_2PI
    return from_samples([-half_width], [half_width], (n,), vals)


def std_normal_2d(n=257, half_width=8.0):
    x = np.linspace(-half_width, half_width, n)
    g = np.exp(-0.5 * x * x)
    vals = INV_2PI * np.outer(g, g)
    return from_samples([-half_width] * 2, [half_width] * 2, (n, n), vals)


UNIT = Grid([0.0], [1.0], (32,))


class TestConstruction:
    def test_flat_values_are_reshaped(self):
        d = GridDensity(UNIT, np.ones(32))
        assert d.values.shape == (32,)
        d2 = GridDensity(Grid([0.0, 0.0], [1.0, 2.0], (16, 24)), np.ones(16 * 24))
        assert d2.values.shape == (16, 24)

    def test_values_are_frozen(self):
        d = GridDensity(UNIT, np.ones(32))
        with pytest.raises(ValueError):
            d.values[0] = 2.0

    def test_domain_must_be_ordered(self):
        with pytest.raises(DomainError, match="upper bounds must exceed lower bounds"):
            Grid([1.0], [0.0], (32,))
        with pytest.raises(DomainError, match="upper bounds must exceed lower bounds"):
            Grid([0.0], [0.0], (32,))
        with pytest.raises(DomainError):
            Grid([0.0, 0.0], [1.0, -1.0], (32, 32))

    def test_bounds_must_be_finite(self):
        with pytest.raises(DomainError, match="finite"):
            Grid([-np.inf], [0.0], (32,))
        with pytest.raises(DomainError, match="finite"):
            Grid([0.0], [np.nan], (32,))

    def test_minimum_resolution(self):
        with pytest.raises(ValueError, match="at least 16 nodes"):
            Grid([0.0], [1.0], (8,))
        with pytest.raises(ValueError, match="at least 16 nodes"):
            Grid([0.0, 0.0], [1.0, 1.0], (32, 15))

    def test_only_one_or_two_dims(self):
        with pytest.raises(DimensionError, match="1 or 2 dimensions"):
            Grid([0.0] * 3, [1.0] * 3, (16, 16, 16))
        with pytest.raises(DimensionError, match="inconsistent lengths"):
            Grid([0.0], [1.0, 1.0], (16,))

    def test_negative_values_rejected(self):
        vals = np.ones(32)
        vals[3] = -1e-12
        with pytest.raises(ValueError):
            GridDensity(UNIT, vals)

    def test_nonfinite_values_rejected(self):
        vals = np.ones(32)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            GridDensity(UNIT, vals)

    def test_all_zero_rejected_by_from_samples(self):
        with pytest.raises(ValueError):
            from_samples([0.0], [1.0], (32,), np.zeros(32))

    def test_false_normalization_claim_rejected(self):
        with pytest.raises(NotNormalizedError):
            GridDensity(UNIT, np.full(32, 3.0), normalized=True)


class TestGrid:
    def test_equal_grids_compare_and_hash_alike(self):
        a = Grid([0.0, -1.0], [1.0, 2.0], (16, 24))
        b = Grid((0.0, -1.0), np.array([1.0, 2.0]), [16, 24])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a.lower == (0.0, -1.0) and a.upper == (1.0, 2.0) and a.shape == (16, 24)
        assert a != Grid([0.0, -1.0], [1.0, 2.0], (16, 25))
        assert a != Grid([0.0, -1.0], [1.0, 2.5], (16, 24))

    def test_geometry_is_computed_once_and_read_only(self):
        g = Grid([0.0, 0.0], [1.0, 2.0], (16, 24))
        assert g.quad_weights is g.quad_weights
        assert g.axes is g.axes
        assert g.dims == 2
        for arr in (g.quad_weights, g.spacing, *g.axes, *g.axis_weights):
            assert not arr.flags.writeable
        np.testing.assert_array_equal(g.quad_weights, np.multiply.outer(*g.axis_weights))
        np.testing.assert_array_equal(g.axes[1], np.linspace(0.0, 2.0, 24))

    def test_integral_is_the_trapezoid_sum(self):
        g = Grid([0.0], [1.0], (17,))
        x = g.axes[0]
        assert g.integral(np.ones(17)) == pytest.approx(1.0, abs=1e-15)
        # trapezoid is exact for linear integrands
        assert g.integral(x) == pytest.approx(0.5, abs=1e-15)
        assert g.integral(x, x) == float(np.sum(g.quad_weights * x * x))
        left = x <= 0.5
        assert g.integral(x, where=left) == float(np.sum(g.quad_weights[left] * x[left]))

    def test_densities_share_their_grid(self):
        d = from_samples([0.0], [1.0], (32,), np.full(32, 3.0))
        nd = normalize(d)
        assert nd.grid is d.grid
        assert nd.quad_weights is d.grid.quad_weights
        prof = OpinionProfile((nd, GridDensity(d.grid, nd.values * 0.5)))
        assert prof.grid is d.grid
        np.testing.assert_array_equal(prof.values, np.stack([nd.values, nd.values * 0.5]))

    def test_density_needs_a_grid(self):
        with pytest.raises(TypeError):
            GridDensity([0.0], [1.0])

    def test_values_must_match_grid_shape(self):
        with pytest.raises(ValueError):
            GridDensity(UNIT, np.ones(31))


class TestQuadrature:
    def test_uniform_integrates_to_width(self):
        d = from_samples([0.0], [2.0], (2048,), np.ones(2048))
        assert integrate(d) == pytest.approx(2.0, abs=1e-12)

    def test_weights_halve_at_boundary(self):
        d = GridDensity(Grid([0.0], [1.0], (17,)), np.ones(17))
        w = d.quad_weights
        assert w[0] == pytest.approx(w[1] / 2.0)
        assert w[-1] == pytest.approx(w[1] / 2.0)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-15)

    def test_std_normal_mass_within_8_sigma(self):
        # mass beyond +-8 sigma is 1.244e-15, far below quadrature noise
        d = std_normal_1d()
        assert integrate(d) == pytest.approx(1.0, abs=1e-12)

    def test_std_normal_2d_mass(self):
        d = std_normal_2d()
        assert integrate(d) == pytest.approx(1.0, abs=1e-10)

    def test_peak_values_match_closed_form(self):
        d1 = std_normal_1d()
        assert d1.values[1024] == INV_SQRT_2PI
        d2 = std_normal_2d()
        assert d2.values[128, 128] == INV_2PI

    def test_second_order_convergence(self):
        # variance of the uniform density: trapezoid error shrinks like h^2
        def var_err(n):
            d = normalize(from_samples([0.0], [1.0], (n,), np.ones(n)))
            _, cov = moments(d)
            return abs(cov[0, 0] - 1.0 / 12.0)

        ratio = var_err(64) / var_err(128)
        assert 3.8 < ratio < 4.3


class TestNormalize:
    def test_normalize_scales_to_unit_mass(self):
        d = from_samples([0.0], [1.0], (64,), np.full(64, 7.0))
        nd = normalize(d)
        assert nd.normalized
        assert integrate(nd) == pytest.approx(1.0, abs=1e-14)

    def test_degenerate_when_all_zero(self):
        d = GridDensity(UNIT, np.zeros(32))
        with pytest.raises(DegenerateError):
            normalize(d)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_normalize_is_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.lognormal(sigma=2.0, size=64)
        d = from_samples([-1.0], [3.0], (64,), vals)
        once = normalize(d)
        twice = normalize(once)
        assert integrate(once) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(twice.values, once.values, rtol=1e-15)


class TestMoments:
    def test_requires_normalized(self):
        d = from_samples([0.0], [1.0], (32,), np.ones(32))
        with pytest.raises(NotNormalizedError):
            moments(d)

    def test_uniform_moments(self):
        d = normalize(from_samples([0.0], [1.0], (2048,), np.ones(2048)))
        mean, cov = moments(d)
        assert mean[0] == pytest.approx(0.5, abs=1e-12)
        assert cov[0, 0] == pytest.approx(1.0 / 12.0, abs=1e-7)

    def test_std_normal_moments(self):
        d = normalize(std_normal_1d())
        mean, cov = moments(d)
        assert mean[0] == pytest.approx(0.0, abs=1e-12)
        assert cov[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_bimodal_mixture_variance(self):
        # 0.5 N(-2.5, 1) + 0.5 N(2.5, 1): variance 1 + 2.5^2 = 7.25
        x = np.linspace(-10.5, 10.5, 2048)
        vals = 0.5 * INV_SQRT_2PI * (
            np.exp(-0.5 * (x + 2.5) ** 2) + np.exp(-0.5 * (x - 2.5) ** 2)
        )
        d = normalize(from_samples([-10.5], [10.5], (2048,), vals))
        mean, cov = moments(d)
        assert mean[0] == pytest.approx(0.0, abs=1e-9)
        assert cov[0, 0] == pytest.approx(7.25, abs=1e-6)

    def test_2d_gaussian_moments(self):
        d = normalize(std_normal_2d())
        mean, cov = moments(d)
        np.testing.assert_allclose(mean, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(cov, np.eye(2), atol=1e-6)

    def test_cov_is_symmetric(self):
        rng = np.random.default_rng(42)
        vals = rng.lognormal(size=(32, 48))
        d = normalize(from_samples([-1.0, 0.0], [1.0, 4.0], (32, 48), vals))
        _, cov = moments(d)
        assert cov[0, 1] == cov[1, 0]


class TestEvents:
    def test_uniform_half_event(self):
        d = normalize(from_samples([0.0], [1.0], (17,), np.ones(17)))
        cells = np.zeros(16, dtype=bool)
        cells[:8] = True
        assert event_probability(d, cells) == pytest.approx(0.5, abs=1e-14)

    def test_all_cells_recover_integral(self):
        d = std_normal_1d()
        cells = np.ones(d.grid.shape[0] - 1, dtype=bool)
        assert event_probability(d, cells) == pytest.approx(integrate(d), abs=1e-13)

    def test_disjoint_additivity(self):
        d = normalize(std_normal_1d())
        rng = np.random.default_rng(0)
        mask = rng.random(d.grid.shape[0] - 1) < 0.3
        a = mask.copy()
        a[1000:] = False
        b = mask.copy()
        b[:1000] = False
        whole = event_probability(d, mask)
        assert whole == pytest.approx(event_probability(d, a) + event_probability(d, b), abs=1e-15)

    def test_central_interval_matches_gaussian_cdf(self):
        d = normalize(std_normal_1d())  # 2049 nodes, spacing 1/128
        cells = np.zeros(2048, dtype=bool)
        cells[896:1152] = True  # [-1, 1]
        assert event_probability(d, cells) == pytest.approx(0.6826894921370859, abs=1e-5)

    def test_2d_event(self):
        d = normalize(std_normal_2d())
        cells = np.ones((256, 256), dtype=bool)
        assert event_probability(d, cells) == pytest.approx(1.0, abs=1e-10)

    def test_bad_mask_shape(self):
        d = std_normal_1d()
        with pytest.raises(DimensionError):
            event_probability(d, np.ones(5, dtype=bool))


class TestOpinionProfile:
    def test_positivity_flag(self):
        d = std_normal_1d()
        prof = OpinionProfile((d, d))
        assert prof.positive
        vals = d.values.copy()
        vals[0] = 0.0
        prof2 = OpinionProfile((d, GridDensity(d.grid, vals)))
        assert not prof2.positive

    def test_grid_mismatch_rejected(self):
        a = std_normal_1d(2049)
        b = std_normal_1d(2048)
        with pytest.raises(GridMismatchError):
            OpinionProfile((a, b))

    def test_permuted(self):
        a = std_normal_1d()
        b = GridDensity(a.grid, a.values * 2.0)
        prof = OpinionProfile((a, b)).permuted([1, 0])
        np.testing.assert_array_equal(prof.densities[0].values, b.values)
        with pytest.raises(ValueError):
            OpinionProfile((a, b)).permuted([0, 0])

    def test_needs_at_least_one_agent(self):
        with pytest.raises(ValueError):
            OpinionProfile(())
