from __future__ import annotations

import math
import os
import re
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdffusion import gaussian as G
from pdffusion.divergence import kl
from pdffusion.errors import DimensionError, DomainError, GridMismatchError, SimplexError, SingularityError, check_simplex
from pdffusion.grid import Grid, OpinionProfile, integrate, moments
from pdffusion.pooling import linear_pool, log_linear_pool

from closed_forms import gaussian_kl


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
        with pytest.raises(DimensionError, match=r"^cov shape \(1, 1\), expected \(2, 2\)$"):
            G.Gaussian([0.0, 0.0], [[1.0]])
        with pytest.raises(DimensionError, match=r"^mean length \(2, 1\), expected \(2,\)$"):
            G.Gaussian([[0.0], [0.0]], np.eye(2))

    def test_empty_cov_rejected(self):
        # the empty matrix has no largest entry to scale the symmetry check by
        with pytest.raises(DimensionError, match=r"^cov shape \(0, 0\), expected at least \(1, 1\)$"):
            G.Gaussian([], np.zeros((0, 0)))

    def test_scalar_inputs_promoted(self):
        g = G.Gaussian(0.0, 1.0)
        assert g.dim == 1


class TestCholesky:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_value_error(self, bad):
        with pytest.raises(ValueError, match="^m has non-finite entries$"):
            G.cholesky(np.array([[bad, 0.0], [0.0, 1.0]]), "m")

    @pytest.mark.parametrize("mat", [[[1.0, 2.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]]])
    def test_non_positive_definite_raises_singularity_error(self, mat):
        with pytest.raises(SingularityError, match="^m is not positive definite$"):
            G.cholesky(np.array(mat), "m")


def _lower(entries, d):
    """The d x d lower-triangular matrix with diagonal entries |x| + 0.5 and
    the rest of ``entries`` below it."""
    low = np.zeros((d, d))
    low[np.tril_indices(d)] = entries[: d * (d + 1) // 2]
    low[np.diag_indices(d)] = np.abs(low.diagonal()) + 0.5
    return low


def _max_rel(a, b) -> float:
    """max |a - b| relative to the largest entry of b."""
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestFromInformation:
    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(1, 3),
        entries=st.lists(st.floats(-1.5, 1.5), min_size=6, max_size=6),
        shift=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
    )
    def test_one_factor_of_the_inverse(self, d, entries, shift):
        low = _lower(entries, d)
        precision, h = low @ low.T, np.array(shift[:d])
        g = G.from_information(precision, h, "P")
        cov = G.pd_inverse(precision)
        ref = G.Gaussian(cov @ h, cov)
        assert _max_rel(g.cov, ref.cov) <= 1e-12
        # relative to the scale of P^{-1} h, which its entries may cancel below
        assert np.max(np.abs(g.mean - ref.mean)) <= 1e-12 * np.abs(cov).max() * max(1.0, np.abs(h).max())
        assert np.all(np.triu(g.chol, 1) == 0.0) and np.all(g.chol.diagonal() > 0.0)
        assert _max_rel(g.chol @ g.chol.T, g.cov) <= 1e-12
        for arr in (g.mean, g.cov, g.chol):
            assert not arr.flags.writeable
        indefinite = precision - 1.5 * np.linalg.eigvalsh(precision)[0] * np.eye(d)
        with pytest.raises(SingularityError, match="^P is not positive definite$"):
            G.from_information(indefinite, h, "P")
        bad = precision.copy()
        bad[d - 1, 0] = np.nan
        with pytest.raises(ValueError, match="^P has non-finite entries$"):
            G.from_information(bad, h, "P")

    def test_repr_matches_a_constructed_gaussian(self):
        g = G.from_information(np.array([[4.0]]), np.array([2.0]), "P")
        assert repr(g) == repr(G.Gaussian([0.5], [[0.25]]))


class TestEval:
    def test_standard_normal_mode(self):
        g = G.Gaussian([0.0], [[1.0]])
        assert np.exp(G.log_pdf(g, [0.0])) == pytest.approx(0.3989422804014327, abs=1e-15)

    def test_standard_2d_mode(self):
        g = G.Gaussian([0.0, 0.0], np.eye(2))
        assert np.exp(G.log_pdf(g, [0.0, 0.0])) == pytest.approx(0.15915494309189535, abs=1e-15)

    def test_shifted_evaluation(self):
        g = G.Gaussian([2.5], [[1.0]])
        assert np.exp(G.log_pdf(g, [0.0])) == pytest.approx(0.017528300493568537, rel=1e-13)

    def test_dim_mismatch(self):
        g = G.Gaussian([0.0], [[1.0]])
        with pytest.raises(DimensionError):
            G.log_pdf(g, [0.0, 1.0])


def _spd(a, b, c):
    """The 2x2 SPD matrix L L^T with L = [[a, 0], [b, c]], a, c > 0."""
    low = np.array([[a, 0.0], [b, c]])
    return low @ low.T


def _exact_log_pdf(g, point) -> float:
    """Reference log-density whose quadratic form is exact for the float inputs.

    Forward substitution L z = x - mean runs in rationals on the float values
    of the kept factor, the mean and the point; only the final |z|^2 and the
    log-normalizer are rounded.
    """
    low = [[Fraction(float(v)) for v in row] for row in g.chol]
    r = [Fraction(float(x)) - Fraction(float(m)) for x, m in zip(point, g.mean)]
    z = []
    for i in range(g.dim):
        z.append((r[i] - sum(low[i][j] * z[j] for j in range(i))) / low[i][i])
    log_det = sum(math.log(g.chol[i, i]) for i in range(g.dim))
    return -0.5 * float(sum(zi * zi for zi in z)) - log_det - 0.5 * g.dim * math.log(2 * math.pi)


class TestLogPdf:
    @settings(max_examples=60, deadline=None)
    @given(
        mean=st.tuples(*[st.floats(-5.0, 5.0)] * 2),
        factor=st.tuples(st.floats(0.05, 3.0), st.floats(-3.0, 3.0), st.floats(0.05, 3.0)),
        unit=st.tuples(*[st.floats(-1.0, 1.0)] * 2),
        radius=st.floats(0.0, 40.0),
    )
    def test_matches_exact_reference(self, mean, factor, unit, radius):
        g = G.Gaussian(mean, _spd(*factor))
        # up to `radius` standard deviations out along a random direction
        u = np.array(unit)
        norm = np.linalg.norm(u)
        u = u / norm if norm > 1e-3 else np.array([1.0, 0.0])
        points = g.mean + np.outer(np.linspace(0.0, radius, 9), g.chol @ u)
        expected = np.array([_exact_log_pdf(g, p) for p in points])
        # relative to max(1, |log-pdf|), since the log-pdf passes through 0
        error = np.abs(G.log_pdf(g, points) - expected)
        assert np.all(error <= 1e-12 * np.maximum(1.0, np.abs(expected)))

    def test_finite_where_pdf_underflows(self):
        g = G.Gaussian([1.0, -2.0], [[1.0, 0.9], [0.9, 1.0]])
        x = g.mean + g.chol @ np.array([40.0, 0.0])
        value = G.log_pdf(g, x)
        assert np.exp(value) == 0.0
        assert value == pytest.approx(_exact_log_pdf(g, x), rel=1e-12)

    def test_one_dimensional_batch_shape(self):
        g = G.Gaussian([0.5], [[2.0]])
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4, 1)
        out = G.log_pdf(g, x)
        assert out.shape == (3, 4)
        expected = -0.5 * (x[..., 0] - 0.5) ** 2 / 2.0 - 0.5 * np.log(2.0 * np.pi * 2.0)
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_batch_shape_is_kept(self):
        g = G.Gaussian([0.5, -1.0], [[2.0, 0.7], [0.7, 1.0]])
        x = np.random.default_rng(0).normal(size=(3, 4, 2))
        out = G.log_pdf(g, x)
        assert out.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            assert out[idx] == pytest.approx(_exact_log_pdf(g, x[idx]), rel=1e-13)
        assert G.log_pdf(g, x[0, 0]).shape == ()

    def test_kept_factor_is_read_only(self):
        g = G.Gaussian([0.0, 0.0], [[4.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(g.chol @ g.chol.T, g.cov, rtol=1e-15)
        assert np.all(np.triu(g.chol, 1) == 0.0)
        with pytest.raises(ValueError):
            g.chol[0, 0] = 1.0


def centred_log_pdf(g, grid) -> np.ndarray:
    """``log_pdf`` of ``g`` at the grid's nodes taken as centre + offset, as ``to_grid`` takes them:
    ``g`` moved by -centre, at the offsets, whose x - mean is offset + (centre - mean) bit for bit."""
    moved = G.Gaussian(g.mean - np.array(grid.centre), g.cov)
    return G.log_pdf(moved, np.stack(np.meshgrid(*grid.offsets, indexing="ij"), axis=-1))


class TestToGrid:
    def test_default_1d_moments(self):
        d = G.to_grid(G.Gaussian([0.0], [[1.0]]))
        assert d.normalized
        assert d.grid.shape == (2048,)
        mean, cov = moments(d)
        assert mean[0] == pytest.approx(0.0, abs=1e-4)
        assert cov[0, 0] == pytest.approx(1.0, abs=1e-4)

    def test_narrow_variance(self):
        d = G.to_grid(G.Gaussian([0.0], [[0.5]]))
        _, cov = moments(d)
        assert cov[0, 0] == pytest.approx(0.5, abs=1e-4)

    def test_2d_default(self):
        d = G.to_grid(G.Gaussian([1.0, -1.0], np.diag([1.0, 4.0])))
        assert d.grid.shape == (257, 257)
        mean, cov = moments(d)
        np.testing.assert_allclose(mean, [1.0, -1.0], atol=1e-4)
        np.testing.assert_allclose(cov, np.diag([1.0, 4.0]), atol=1e-3)

    def test_explicit_bounds(self):
        d = G.to_grid(G.Gaussian([0.0], [[1.0]]), [-8.0], [8.0], (2048,))
        assert integrate(d) == pytest.approx(1.0, abs=1e-12)
        assert d.grid.lower == (-8.0,)

    def test_three_dims_rejected(self):
        g = G.Gaussian(np.zeros(3), np.eye(3))
        with pytest.raises(DimensionError):
            G.to_grid(g)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_repeated_box_reuses_the_grid(self, dim):
        a = G.Gaussian(np.full(dim, 0.3), np.diag(np.linspace(1.0, 2.0, dim)))
        b = G.Gaussian(np.full(dim, -0.4), np.diag(np.linspace(0.5, 1.5, dim)))
        lower, upper, shape = np.full(dim, -6.0), np.full(dim, 5.0), (64,) * dim
        first = G.to_grid(a, lower, upper, shape)
        second = G.to_grid(b, tuple(lower), list(upper), shape)
        assert second.grid is first.grid
        other = G.to_grid(b, lower, upper + 1.0, shape)
        assert other.grid is not first.grid
        assert G.to_grid(a, lower, upper + 1.0, shape).grid is other.grid
        for g, d in ((a, first), (b, second)):
            fresh = G._on_grid(g, Grid(lower, upper, shape))
            assert fresh.grid is not d.grid
            np.testing.assert_array_equal(d.values, fresh.values)

    @pytest.mark.parametrize("mean, var", [(0.3, 1.7), (-4.0, 0.01), (12.0, 30.0), (1e15, 1.0)])
    def test_1d_values_are_log_pdf_on_the_nodes_bit_for_bit(self, mean, var):
        g = G.Gaussian([mean], [[var]])
        d = G.to_grid(g)
        raw = np.exp(centred_log_pdf(g, d.grid))
        np.testing.assert_array_equal(d.values, raw / d.grid.integral(raw))
        if abs(mean) < 100.0:
            # where the grid's centre is 0 its nodes are its axes
            d = G.to_grid(g, [-60.0], [60.0], (4096,))
            raw = np.exp(G.log_pdf(g, d.grid.axes[0][:, None]))
            np.testing.assert_array_equal(d.values, raw / d.grid.integral(raw))

    @pytest.mark.parametrize(
        "mean, cov",
        [
            ([1.0, -1.0], [[1.0, 0.0], [0.0, 4.0]]),
            ([0.5, -0.3], [[1.0, 0.6], [0.6, 2.0]]),
            ([-3.0, 2.0], [[0.05, -0.09], [-0.09, 0.2]]),
        ],
    )
    def test_2d_values_are_log_pdf_on_the_nodes(self, mean, cov):
        g = G.Gaussian(mean, cov)
        d = G.to_grid(g)
        nodes = np.stack(np.meshgrid(*d.grid.axes, indexing="ij"), axis=-1)
        raw = np.exp(G.log_pdf(g, nodes))
        expected = np.log(raw / d.grid.integral(raw))
        assert np.all(d.values > 0.0)
        error = np.abs(np.log(d.values) - expected)
        assert np.all(error <= 1e-13 * np.maximum(1.0, np.abs(expected)))

    @settings(max_examples=40, deadline=None)
    @given(
        mean=st.tuples(*[st.floats(-5.0, 5.0)] * 2),
        log10_sigma=st.tuples(*[st.floats(-3.0, 3.0)] * 2),
        rho=st.floats(-0.97, 0.97),
    )
    def test_2d_product_form_tracks_log_pdf(self, mean, log10_sigma, rho):
        # narrow to wide, up to |rho| = 0.97: the bound of the fixed cases above
        s0, s1 = 10.0 ** np.array(log10_sigma)
        g = G.Gaussian(mean, [[s0 * s0, rho * s0 * s1], [rho * s0 * s1, s1 * s1]])
        d = G.to_grid(g)
        raw = np.exp(centred_log_pdf(g, d.grid))
        with np.errstate(divide="ignore"):
            expected = np.log(raw / d.grid.integral(raw))
            got = np.log(d.values)
        # below e^-700 the values approach the subnormals and lose precision
        normal = expected > -700.0
        error = np.abs(got[normal] - expected[normal])
        assert np.all(error <= 1e-13 * np.maximum(1.0, np.abs(expected[normal])))
        assert np.all(d.values[~normal] < 1e-300)


class TestCommonGrid:
    def test_grid_input_fixes_the_grid(self):
        ref = G.to_grid(G.Gaussian([0.0], [[1.0]]), [-5.0], [6.0], (300,))
        wide = G.Gaussian([1.0], [[9.0]])
        on_grid, same = G.common_grid(wide, ref, points=64)
        assert same is ref
        assert on_grid.grid is ref.grid
        np.testing.assert_array_equal(on_grid.values, G.to_grid(wide, [-5.0], [6.0], (300,)).values)

    def test_gaussians_use_union_of_boxes(self):
        a, b = G.Gaussian([-2.5], [[1.0]]), G.Gaussian([2.5], [[1.0]])
        qa, qb = G.common_grid(a, b)
        assert qa.grid == Grid((-10.5,), (10.5,), (G.DEFAULT_POINTS_1D,))
        assert qb.grid is qa.grid

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
        assert qa.grid is qb.grid
        assert qa.grid.shape == (40, 40)
        np.testing.assert_allclose(qa.grid.lower, [-8.0, -15.0])
        np.testing.assert_allclose(qa.grid.upper, [11.0, 17.0])
        assert G.common_grid(a, b)[0].grid.shape == (G.DEFAULT_POINTS_2D, G.DEFAULT_POINTS_2D)


class TestOneGridRule:
    """``to_grid`` and ``common_grid`` put Gaussians on a grid by one rule."""

    @pytest.mark.parametrize(
        "mean, cov", [([0.3], [[1.7]]), ([0.5, -0.3], [[1.0, 0.6], [0.6, 2.0]])]
    )
    def test_one_gaussian_lands_alike_through_both(self, mean, cov):
        g = G.Gaussian(mean, cov)
        alone, (shared,) = G.to_grid(g), G.common_grid(g)
        assert alone.grid == shared.grid
        np.testing.assert_array_equal(alone.values, shared.values)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_union_box_then_to_grid_reuses_the_grid(self, dim):
        a = G.Gaussian(np.full(dim, -2.5), np.eye(dim))
        b = G.Gaussian(np.full(dim, 2.5), 4.0 * np.eye(dim))
        qa, _ = G.common_grid(a, b, points=64)
        c = G.Gaussian(np.full(dim, 0.7), 0.5 * np.eye(dim))
        assert G.to_grid(c, qa.grid.lower, qa.grid.upper, qa.grid.shape).grid is qa.grid

    @pytest.mark.parametrize("mean", [1e17, -1e17, 1e17 + 16.0, 3.0])
    def test_box_bounds_round_outward(self, mean):
        # mean -+ 8 rounds to the float spacing there (16 at 1e17); a bound that rounded
        # into the box moves out by one spacing, so the box holds mean -+ 8 exactly
        grid = G._grid_for([G.Gaussian([mean], [[1.0]])])
        (lo,), (hi,) = grid.lower, grid.upper
        for bound in (lo, hi):
            assert 0 <= abs(Fraction(bound) - Fraction(mean)) - 8 <= Fraction(math.ulp(mean))
        if mean == 3.0:
            assert (lo, hi) == (-5.0, 11.0)

    @pytest.mark.parametrize(
        "mean, sd, dim", [(1e15, 5e-5, 1), (1e17, 0.005, 1), (1e17, 1e-12, 1), (-1e15, 5e-5, 2), (1e17, 0.9, 1)]
    )
    def test_a_box_narrower_than_the_float_spacing_has_no_grid(self, mean, sd, dim):
        # moving its bounds out to the float spacing (0.125 at 1e15, 16 at 1e17) would space 2048
        # nodes wider than the Gaussian; at 1e17 and sd 0.9 the box is 14.4 wide, under 16. A call
        # without names starts the message with the box
        g = G.Gaussian(np.full(dim, mean), sd * sd * np.eye(dim))
        message = f"the box mean +- 8 sd at {mean!r} is {16.0 * sd!r} wide, narrower than the float spacing"
        with pytest.raises(DomainError, match="^" + re.escape(message)):
            G.to_grid(g)

    def test_a_box_as_wide_as_the_float_spacing_keeps_its_kl(self):
        # sd 1 at 1e17: the box is 16 wide, one float spacing, and its lower bound, which rounds to the mean, moves out to mean - 16
        p, q = G.Gaussian([1e17], [[1.0]]), G.Gaussian([1e17], [[1.44]])
        assert G._grid_for([p, q]).lower == (1e17 - 16.0,)
        assert abs(kl(p, q) - gaussian_kl(p, q)) <= 1e-12 * gaussian_kl(p, q)

    def test_both_entries_reject_three_dimensions_alike(self):
        g = G.Gaussian(np.zeros(3), np.eye(3))
        messages = []
        for call in (G.to_grid, G.common_grid):
            with pytest.raises(DimensionError) as info:
                call(g)
            messages.append(str(info.value))
        assert messages == ["grids support at most 2 dimensions, Gaussian has 3"] * 2

    def test_threads_alternating_boxes_get_their_own_grids(self):
        # more threads than cores, switching often: a reuse that handed one
        # thread the grid another thread just made would put a density on the wrong box
        g = G.Gaussian([0.1], [[1.3]])
        boxes = [((-6.0,), (5.0,)), ((-7.0,), (6.5,))]
        n_threads = 2 * (os.cpu_count() or 1) + 2
        start, wrong = threading.Barrier(n_threads), []

        def run(lower, upper):
            start.wait()
            for _ in range(500):
                d = G.to_grid(g, lower, upper, (64,))
                if (d.grid.lower, d.grid.upper) != (lower, upper):
                    wrong.append(d.grid)

        threads = [threading.Thread(target=run, args=boxes[i % 2]) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


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
        ga = np.exp(G.log_pdf(a, x[:, None]))
        gb = np.exp(G.log_pdf(b, x[:, None]))
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
                check_simplex(w, 2)


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

    def test_one_hot_weights_still_check_dimensions(self):
        a = G.Gaussian([0.0], [[1.0]])
        b = G.Gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(DimensionError):
            G.ci_fuse([a, b], [1.0, 0.0])

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

    def test_kept_factor_inverse_matches_pd_inverse_bitwise(self):
        g = G.Gaussian([1.0, -1.0], [[2.0, 0.7], [0.7, 0.4]])
        np.testing.assert_array_equal(G.cho_inverse(g.chol), G.pd_inverse(g.cov))


# pairs whose grid values stay above the float64 underflow threshold
_CLOSED_FORM_PAIRS = {
    "narrow": (G.Gaussian([0.0], [[0.01]]), G.Gaussian([0.3], [[0.02]])),
    "far-apart": (G.Gaussian([-6.0], [[1.0]]), G.Gaussian([6.0], [[2.0]])),
    "correlated-2d": (
        G.Gaussian([0.0, 0.0], [[1.0, 0.8], [0.8, 1.0]]),
        G.Gaussian([1.5, -1.0], [[2.0, -0.6], [-0.6, 1.0]]),
    ),
}


@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_PAIRS))
class TestGridAgainstClosedForms:
    def _profile(self, name):
        a, b = _CLOSED_FORM_PAIRS[name]
        profile = OpinionProfile(G.common_grid(a, b))
        assert profile.positive
        return a, b, profile

    def test_kl(self, name):
        a, b, _ = self._profile(name)
        assert kl(a, b) == pytest.approx(gaussian_kl(a, b), rel=1e-9)
        assert kl(b, a) == pytest.approx(gaussian_kl(b, a), rel=1e-9)

    @pytest.mark.parametrize("w", [(0.3, 0.7), (0.5, 0.5)])
    def test_log_linear_pool_is_covariance_intersection(self, name, w):
        a, b, profile = self._profile(name)
        mean, cov = moments(log_linear_pool(profile, w))
        fused = G.ci_fuse([a, b], w)
        np.testing.assert_allclose(mean, fused.mean, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(cov, fused.cov, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("w", [(0.3, 0.7), (0.5, 0.5)])
    def test_linear_pool_has_mixture_moments(self, name, w):
        a, b, profile = self._profile(name)
        mean, cov = moments(linear_pool(profile, w))
        mix_mean, mix_cov = G.mixture_moments([a, b], w)
        np.testing.assert_allclose(mean, mix_mean, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(cov, mix_cov, rtol=1e-9, atol=1e-12)
