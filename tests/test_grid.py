from __future__ import annotations

import ctypes
import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdffusion import axioms, grid
from pdffusion.errors import (
    DegenerateError,
    DimensionError,
    DomainError,
    GridMismatchError,
    NotNormalizedError,
)
from pdffusion.gaussian import Gaussian, common_grid, to_grid
from pdffusion.grid import (
    Grid,
    GridDensity,
    OpinionProfile,
    event_probability,
    from_samples,
    integrate,
    moments,
    normalize,
    require_same_grid,
)
from pdffusion.pooling import holder_pool
from pdffusion.weights import BLOCK, min_kld_weights

from separable import EQUAL_COUNTS, assert_relative, axes, bumps, product


def _csv_grid(path: Path) -> Grid:
    """The grid of a density CSV, from its header line ``# dims,lower...,upper...,shape...``."""
    fields = path.read_text().splitlines()[0][1:].split(",")
    d = int(fields[0])
    bounds = [float(v) for v in fields[1 : 1 + 2 * d]]
    return Grid(bounds[:d], bounds[d:], [int(n) for n in fields[1 + 2 * d :]])


# the grids of the golden CLI corpus's CSV inputs, but the one whose span overflows
CORPUS_GRIDS = {
    path.name: _csv_grid(path)
    for path in (Path(__file__).parent / "golden" / "cli" / "inputs").glob("*.csv")
    if path.name != "wide.csv"
}

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
        # finite bounds whose span overflows: the spacing, and numpy's node arithmetic, would be inf
        with pytest.raises(DomainError, match=r"^the span of \[-1e\+308, 1e\+308\] overflows float64$"):
            Grid([0.0, -1e308], [1.0, 1e308], (16, 16))

    def test_nodes_must_be_apart_in_float64(self):
        # a spacing that rounds to 0 puts every node on one coordinate
        with pytest.raises(DomainError, match=r"^the spacing of 16 nodes on \[0.0, 5e-324\] rounds to 0$"):
            Grid([0.0], [5e-324], (16,))
        with pytest.raises(DomainError, match="rounds to 0"):
            Grid([0.0, 0.0], [1.0, 1e-322], (16, 2048))
        # 2048 nodes on 17 units are spaced 0.0083, below the float spacing at 1e15 (0.125),
        # where most node coordinates round onto one another; the offsets about the centre
        # keep the spacing at every centre, across a power of two too
        for middle in (1e9, 2.0**30, 1e13, 1e15):
            g = Grid([middle - 8.0], [middle + 9.0], (2048,))
            assert g.centre == (middle + 0.5,)
            np.testing.assert_allclose(np.diff(g.offsets[0]), g.spacing[0], rtol=1e-12)
        g = Grid([0.0, 1e15 - 8.0], [1.0, 1e15 + 9.0], (16, 2048))
        np.testing.assert_array_equal(g.offsets[1], Grid([1e15 - 8.0], [1e15 + 9.0], (2048,)).offsets[0])
        assert len(set(g.axes[1].tolist())) < 200

    def test_minimum_resolution(self):
        with pytest.raises(ValueError, match="at least 16 nodes"):
            Grid([0.0], [1.0], (8,))
        with pytest.raises(ValueError, match="at least 16 nodes"):
            Grid([0.0, 0.0], [1.0, 1.0], (32, 15))

    @pytest.mark.parametrize("shape", [(16.9,), (20.5, 32), (32, np.nan)])
    def test_node_counts_must_be_whole(self, shape):
        with pytest.raises(ValueError, match="node count must be a whole number"):
            Grid([0.0] * len(shape), [1.0] * len(shape), shape)

    def test_whole_float_counts_are_kept(self):
        assert Grid([0.0], [1.0], (16.0,)).shape == (16,)
        assert to_grid(Gaussian([0.0], [[1.0]]), shape=(20.0,)).grid.shape == (20,)

    def test_to_grid_rejects_a_fractional_count(self):
        with pytest.raises(ValueError, match="node count must be a whole number"):
            to_grid(Gaussian([0.0], [[1.0]]), shape=(20.5,))

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

    @pytest.mark.parametrize("low", [0.0, -0.0, 5e-324, 1.0], ids=["zero", "negative-zero", "subnormal", "one"])
    def test_positive_is_a_strictly_positive_minimum(self, low):
        vals = np.ones(32)
        vals[7] = low
        d = GridDensity(UNIT, vals)
        assert d.positive == (d.values.min() > 0.0)
        assert d.positive == (low > 0.0)
        assert OpinionProfile((d,)).positive == d.positive
        ones = GridDensity(UNIT, np.ones(32))
        assert OpinionProfile((ones, d)).positive == d.positive

    def test_normalized_is_read_off_the_values(self):
        assert GridDensity(UNIT, np.ones(32)).normalized
        assert not GridDensity(UNIT, np.full(32, 3.0)).normalized
        assert not GridDensity(UNIT, np.full(32, 1.0 + 2e-9)).normalized

    def test_takes_no_normalized_argument(self):
        with pytest.raises(TypeError):
            GridDensity(UNIT, np.ones(32), normalized=True)


def _readonly(arr):
    arr.flags.writeable = False
    return arr


class TestOwnership:
    """A density adopts a read-only, owned, C-contiguous float64 array of grid
    shape without a copy, and copies every other input."""

    GRID = Grid([0.0, 0.0], [1.0, 2.0], (16, 24))

    def test_writable_caller_array_is_copied(self):
        vals = np.ones(self.GRID.shape)
        d = GridDensity(self.GRID, vals)
        vals[0, 0] = 5.0
        assert d.values[0, 0] == 1.0
        assert not np.shares_memory(d.values, vals)
        assert not d.values.flags.writeable

    def test_readonly_owned_array_is_adopted(self):
        vals = _readonly(np.ones(self.GRID.shape))
        d = GridDensity(self.GRID, vals)
        assert d.values is vals
        assert np.shares_memory(d.values, vals)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda shape: np.ones((2,) + shape)[0], id="view"),
            pytest.param(lambda shape: np.ones(shape, dtype=np.float32), id="float32"),
            pytest.param(lambda shape: np.ones(shape[0] * shape[1]), id="flat"),
            pytest.param(lambda shape: np.ones(shape, order="F"), id="fortran-order"),
        ],
    )
    def test_other_readonly_arrays_are_copied(self, make):
        vals = _readonly(make(self.GRID.shape))
        d = GridDensity(self.GRID, vals)
        assert not np.shares_memory(d.values, vals)
        assert d.values.dtype == np.float64 and d.values.shape == self.GRID.shape
        assert d.values.flags.c_contiguous and not d.values.flags.writeable
        np.testing.assert_array_equal(d.values, np.ones(self.GRID.shape))

    @pytest.mark.parametrize("adopt", [False, True], ids=["copied", "adopted"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ({3: np.nan}, "density values must be finite"),
            ({3: np.inf}, "density values must be finite"),
            ({3: -np.inf}, "density values must be finite"),
            ({3: -1e-12}, "density values must be nonnegative"),
            ({3: -np.inf, 7: -1.0}, "density values must be finite"),
            ({3: -1.0, 7: -np.inf}, "density values must be finite"),
            ({3: np.nan, 7: -1.0}, "density values must be finite"),
            ({3: -1.0, 7: np.nan}, "density values must be finite"),
        ],
    )
    def test_bad_values_raise_as_before(self, bad, message, adopt):
        vals = np.ones(32)
        for i, v in bad.items():
            vals[i] = v
        if adopt:
            _readonly(vals)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GridDensity(UNIT, vals)


def _peak_over_output(fn, output_bytes=None) -> float:
    """Traced peak allocation of ``fn()`` over the bytes of the density it returns, or ``output_bytes``."""
    fn()  # caches and lazy set-up are not what is measured
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak / (out.values.nbytes if output_bytes is None else output_bytes)


def _min_kld_budget(profile) -> float:
    """The min-KLD weights' footprint in grid arrays, plus a quarter (see TestAllocationBudget)."""
    K, nodes = profile.K, profile.grid.quad_weights.size
    return K + 1 + K * min(BLOCK, nodes) / nodes + 0.25


class TestAllocationBudget:
    """Peak memory of the 257x257 kernels, in multiples of their output.

    tracemalloc sees numpy's data buffers. The lean kernels write each
    full-grid result once: to_grid peaks at 1 output (the log-density,
    exponentiated and normalized in place), normalize at 1 (its copy), and a
    two-agent Holder pool at 3 (the stack of log terms, summed into its first
    row, and the result). Minimum-KLD weights, which return no density, are counted
    in grid arrays: K log-densities, one evaluation buffer and a K x BLOCK
    scratch, K + 1 + K * BLOCK / nodes (4.37 at K = 3, 9.99 at K = 8 on
    66049 nodes); a quarter of a grid array more covers the K x K and
    K-vector temporaries.
    """

    G = Gaussian([0.3, -0.2], [[1.0, 0.4], [0.4, 2.0]])
    H = Gaussian([-0.5, 0.4], [[1.5, -0.3], [-0.3, 0.9]])
    J = Gaussian([0.1, 0.6], [[0.8, 0.2], [0.2, 1.2]])

    def test_to_grid(self):
        assert _peak_over_output(lambda: to_grid(self.G)) <= 1.5

    def test_normalize(self):
        d = to_grid(self.G)
        raw = GridDensity(d.grid, d.values * 3.0)
        assert _peak_over_output(lambda: normalize(raw)) <= 1.5

    def test_holder_pool_of_two(self):
        a = to_grid(self.G)
        b = to_grid(self.H, a.grid.lower, a.grid.upper, a.grid.shape)
        prof = OpinionProfile((a, b))
        assert _peak_over_output(lambda: holder_pool(prof, [0.4, 0.6], 2.0)) <= 3.5

    def test_min_kld_weights_of_three(self):
        a = to_grid(self.G)
        prof = OpinionProfile((a, *(to_grid(g, a.grid.lower, a.grid.upper, a.grid.shape) for g in (self.H, self.J))))
        assert _peak_over_output(lambda: min_kld_weights(prof), a.values.nbytes) <= _min_kld_budget(prof)

    def test_min_kld_weights_of_eight(self):
        rng = np.random.default_rng(0)
        gs = []
        for _ in range(8):
            a = rng.normal(size=(2, 2))
            gs.append(Gaussian(rng.uniform(-1.0, 1.0, 2), a @ a.T + 0.5 * np.eye(2)))
        prof = OpinionProfile(common_grid(*gs))
        assert prof.grid.shape == (257, 257)
        grid_array = prof.densities[0].values.nbytes
        assert _peak_over_output(lambda: min_kld_weights(prof), grid_array) <= _min_kld_budget(prof)


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
        assert g.offsets is g.offsets and g.centre == (0.5, 1.0)
        np.testing.assert_array_equal(g.offsets[1], np.linspace(-1.0, 1.0, 24))

    @pytest.mark.parametrize(
        "template",
        [axioms.GRID_1D, axioms.GRID_2D, *(CORPUS_GRIDS[name] for name in sorted(CORPUS_GRIDS))],
        ids=["axioms-1d", "axioms-2d", *sorted(CORPUS_GRIDS)],
    )
    def test_offsets_are_the_axes_where_the_centre_is_0(self, template):
        # so densities on grids symmetric about 0 keep their bytes
        assert template.centre == (0.0,) * template.dims
        for offsets, axis in zip(template.offsets, template.axes):
            assert offsets.tobytes() == axis.tobytes()

    def test_integral_is_the_trapezoid_sum(self):
        g = Grid([0.0], [1.0], (17,))
        x = g.axes[0]
        assert g.integral(np.ones(17)) == pytest.approx(1.0, abs=1e-15)
        # trapezoid is exact for linear integrands
        assert g.integral(x) == pytest.approx(0.5, abs=1e-15)
        assert g.integral(x, x) == float(np.sum(g.quad_weights * x * x))

    @pytest.mark.parametrize("n_factors", [1, 2, 3])
    def test_2d_integral_contracts_one_axis_at_a_time(self, n_factors):
        g = Grid([0.0, -1.0], [1.0, 2.0], (257, 129))
        rng = np.random.default_rng(n_factors)
        factors = [rng.lognormal(size=g.shape) for _ in range(n_factors)]
        full = float(np.sum(g.quad_weights * np.prod(factors, axis=0)))
        assert g.integral(*factors) == pytest.approx(full, rel=1e-15, abs=0.0)

    def test_marginals_integrate_out_the_other_axis(self):
        g = Grid([0.0, -1.0], [1.0, 2.0], (16, 24))
        vals = np.random.default_rng(3).lognormal(size=g.shape)
        m0, m1 = g.marginals(vals)
        np.testing.assert_allclose(m0, np.sum(g.axis_weights[1] * vals, axis=1), rtol=1e-14)
        np.testing.assert_allclose(m1, np.sum(g.axis_weights[0][:, None] * vals, 0), rtol=1e-14)
        for w, m in zip(g.axis_weights, (m0, m1)):
            assert float(w @ m) == pytest.approx(g.integral(vals), rel=1e-14)
        column = vals[:, 0]
        (m,) = Grid([0.0], [1.0], (16,)).marginals(column)
        assert m is column

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
        d = from_samples([0.0], [1.0], (32,), np.full(32, 2.0))
        with pytest.raises(NotNormalizedError):
            moments(d)

    def test_unit_mass_samples_need_no_normalize(self):
        # ones on [0, 1] integrate to exactly one
        d = from_samples([0.0], [1.0], (32,), np.ones(32))
        mean, _ = moments(d)
        assert mean[0] == pytest.approx(0.5, abs=1e-15)

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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_2d_matches_full_grid_formula(self, seed):
        # the full-mesh formula: five products over every node
        rng = np.random.default_rng(seed)
        vals = rng.lognormal(size=(40, 56))
        d = normalize(from_samples([-1.0, 0.5], [2.0, 4.0], (40, 56), vals))
        grid = d.grid
        x0, x1 = np.meshgrid(*grid.axes, indexing="ij")
        m0, m1 = grid.integral(d.values, x0), grid.integral(d.values, x1)
        c0, c1 = x0 - m0, x1 - m1
        full = np.array(
            [
                [grid.integral(d.values, c0, c0), grid.integral(d.values, c0, c1)],
                [grid.integral(d.values, c1, c0), grid.integral(d.values, c1, c1)],
            ]
        )
        mean, cov = moments(d)
        np.testing.assert_allclose(mean, [m0, m1], rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(cov, 0.5 * (full + full.T), rtol=1e-14, atol=1e-14)

    def test_correlated_2d_gaussian_moments(self):
        mean = np.array([0.5, -1.0])
        cov = np.array([[1.5, -0.8], [-0.8, 0.9]])
        x = np.linspace(-9.0, 10.0, 257)
        y = np.linspace(-10.0, 8.0, 257)
        nodes = np.stack(np.meshgrid(x, y, indexing="ij"), axis=-1) - mean
        quad = np.einsum("...i,ij,...j->...", nodes, np.linalg.inv(cov), nodes)
        d = normalize(from_samples([-9.0, -10.0], [10.0, 8.0], (257, 257), np.exp(-0.5 * quad)))
        got_mean, got_cov = moments(d)
        np.testing.assert_allclose(got_mean, mean, atol=1e-9)
        np.testing.assert_allclose(got_cov, cov, atol=1e-9)

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
        # the first grid that differs is named against the first, by position by default
        message = f"grids differ: grid 2 has {b.grid}, grid 0 has {a.grid}"
        with pytest.raises(GridMismatchError, match=re.escape(message)):
            OpinionProfile((a, a, b))
        message = f"grids differ: b.csv has {b.grid}, a.csv has {a.grid}"
        with pytest.raises(GridMismatchError, match=re.escape(message)):
            require_same_grid(a.grid, b.grid, names=["a.csv", "b.csv"])

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


# ten 2-D fusions on a 257x257 grid after two to warm up: five members by
# to_grid, their Holder pool and one KL; prints the minor page faults taken
FUSION_FAULTS = """
import resource

from pdffusion.divergence import kl
from pdffusion.gaussian import Gaussian, to_grid
from pdffusion.grid import OpinionProfile
from pdffusion.pooling import holder_pool

gs = [Gaussian([0.4 * k - 0.8, 0.3 - 0.15 * k], [[1.0 + 0.2 * k, 0.3], [0.3, 1.5]]) for k in range(5)]


def fuse():
    members = tuple(to_grid(g, [-8.0, -8.0], [8.0, 8.0], (257, 257)) for g in gs)
    kl(members[0], holder_pool(OpinionProfile(members), (0.2,) * 5, 3.0))


fuse()
fuse()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    fuse()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def fusion_faults(run_python, **malloc_env) -> int:
    """Faults of FUSION_FAULTS in a fresh interpreter, under ``malloc_env`` only.

    Earlier tests in this process may already have raised glibc's dynamic
    thresholds, so only a new process starts from glibc's defaults.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    result = run_python(FUSION_FAULTS, env=dict(env, OPENBLAS_NUM_THREADS="1", **malloc_env))
    assert result.returncode == 0, result.stderr
    return int(result.stdout)


def unrecognized(name):
    raise ValueError("unrecognized configuration name")


class TestHeapThresholds:
    needs_glibc = pytest.mark.skipif(not on_glibc(), reason="the heap thresholds are glibc's")

    @needs_glibc
    def test_repeated_2d_fusions_keep_their_pages(self, run_python):
        # with glibc's default thresholds the freed heap top is trimmed after
        # each fusion and refaulted by the next: over 1,000 faults per fusion
        assert fusion_faults(run_python) < 200

    @needs_glibc
    def test_malloc_env_keeps_the_users_policy(self, run_python):
        # a 128 KiB mmap threshold maps each 528 KB array afresh, so every
        # fusion faults its arrays in again
        assert fusion_faults(run_python, MALLOC_MMAP_THRESHOLD_="131072") >= 500 * 10

    @pytest.mark.parametrize(
        "confstr",
        [lambda name: None, lambda name: "musl 1.2.4", unrecognized],
        ids=["unset", "other-libc", "unrecognized"],
    )
    def test_stands_down_off_glibc(self, monkeypatch, confstr):
        opened = []
        monkeypatch.setattr(os, "confstr", confstr)
        monkeypatch.setattr(ctypes, "CDLL", lambda *args: opened.append(args))
        assert grid._keep_freed_heap_mapped() is False
        assert opened == []

    def test_stands_down_under_a_malloc_tunable(self, monkeypatch):
        opened = []
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        monkeypatch.setattr(ctypes, "CDLL", lambda *args: opened.append(args))
        monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.arena_max=2")
        assert grid._keep_freed_heap_mapped() is False
        assert opened == []


class TestSeparableTwoDimensional:
    """A product density dx(x) dy(y) has the 1-D means and variances and a covariance cross
    term of 0, and a rectangle of cells has the product of the two 1-D probabilities: the
    tensor trapezoid rule of a product is the product of the 1-D rules."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), grids=axes(), zeros=st.booleans())
    @example(seed=7, grids=EQUAL_COUNTS, zeros=False)
    @example(seed=8, grids=EQUAL_COUNTS, zeros=True)
    def test_moments_and_rectangles_of_products(self, seed, grids, zeros):
        rng = np.random.default_rng(seed)
        (nx, lx, ux), (ny, ly, uy) = grids
        # dx vanishes on its first nodes in half the cases
        dx, dy = bumps(rng, lx, ux, nx, zeros=nx // 4 if zeros else 0), bumps(rng, ly, uy, ny)
        d = product(dx, dy)
        mean, cov = moments(d)
        for axis, factor in enumerate((dx, dy)):
            (mu,), ((var,),) = moments(factor)
            assert abs(mean[axis] - mu) <= 1e-12 * max(abs(factor.grid.lower[0]), abs(factor.grid.upper[0]))
            assert_relative(cov[axis, axis], var)
        assert cov[0, 1] == cov[1, 0]
        assert abs(cov[0, 1]) <= 1e-12 * np.sqrt(cov[0, 0] * cov[1, 1])

        (i0, i1), (j0, j1) = np.sort(rng.choice(nx, 2, replace=False)), np.sort(rng.choice(ny, 2, replace=False))
        cells = np.zeros((nx - 1, ny - 1), dtype=bool)
        cells[i0:i1, j0:j1] = True
        cx, cy = np.zeros(nx - 1, dtype=bool), np.zeros(ny - 1, dtype=bool)
        cx[i0:i1], cy[j0:j1] = True, True
        assert_relative(event_probability(d, cells), event_probability(dx, cx) * event_probability(dy, cy))
