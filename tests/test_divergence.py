from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pdffusion import divergence as D
from pdffusion.errors import BoundednessError, NotNormalizedError, PositivityError, SupportError
from pdffusion.gaussian import Gaussian, common_grid, to_grid
from pdffusion.grid import from_samples, normalize
from pdffusion.pooling import ChiKind, ChiTransform

from closed_forms import (
    gaussian,
    gaussian_cross_entropy,
    gaussian_kl,
    gaussian_l2_cross,
    gaussian_log_affinity,
    gaussians,
)

LO, HI, N = -8.0, 8.0, 2048


def gauss_grid(mu, var):
    return to_grid(Gaussian([mu], [[var]]), [LO], [HI], (N,))


def random_mixture(rng):
    x = np.linspace(LO, HI, N)
    vals = np.zeros(N)
    for _ in range(rng.integers(1, 4)):
        mu = rng.uniform(0.6 * LO, 0.6 * HI)
        sd = rng.uniform(0.5, 1.5)
        vals += rng.uniform(0.2, 1.0) * np.exp(-0.5 * ((x - mu) / sd) ** 2)
    return normalize(from_samples([LO], [HI], (N,), vals))


@pytest.fixture(scope="module")
def std_pair():
    return gauss_grid(0.0, 1.0), gauss_grid(1.0, 1.0)


class TestKL:
    def test_self_divergence_zero(self, std_pair):
        p, _ = std_pair
        assert D.kl(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_unit_mean_shift(self, std_pair):
        p, q = std_pair
        assert D.kl(p, q) == pytest.approx(0.5, abs=1e-6)

    def test_two_sigma_shift(self):
        assert D.kl(gauss_grid(0.0, 1.0), gauss_grid(2.0, 1.0)) == pytest.approx(2.0, abs=1e-6)

    def test_reverse_kl_swaps_arguments(self, std_pair):
        p, q = std_pair
        assert D.reverse_kl(p, q) == pytest.approx(D.kl(q, p))

    def test_zero_mass_convention(self):
        # p vanishing on a region contributes nothing
        vals = np.ones(64)
        vals[:16] = 0.0
        p = normalize(from_samples([0.0], [1.0], (64,), vals))
        q = normalize(from_samples([0.0], [1.0], (64,), np.ones(64)))
        assert np.isfinite(D.kl(p, q))

    def test_support_violation(self):
        vals = np.ones(64)
        vals[:16] = 0.0
        q = normalize(from_samples([0.0], [1.0], (64,), vals))
        p = normalize(from_samples([0.0], [1.0], (64,), np.ones(64)))
        with pytest.raises(SupportError):
            D.kl(p, q)

    def test_requires_normalized(self):
        p = from_samples([0.0], [1.0], (64,), np.full(64, 2.0))
        with pytest.raises(NotNormalizedError):
            D.kl(p, p)

    def test_unit_mass_samples_need_no_normalize(self):
        # ones on [0, 1] integrate to exactly one
        p = from_samples([0.0], [1.0], (64,), np.ones(64))
        q = from_samples([0.0], [1.0], (64,), np.linspace(0.5, 1.5, 64))
        assert D.kl(p, p) == 0.0
        assert D.kl(p, q) > 0.0


class TestFDivergence:
    def test_xlogx_recovers_kl(self, std_pair):
        p, q = std_pair
        with np.errstate(invalid="ignore"):
            val = D.f_divergence(p, q, lambda x: x * np.log(x))
        assert val == pytest.approx(D.kl(p, q), abs=1e-10)

    def test_identical_inputs_zero(self):
        rng = np.random.default_rng(42)
        p = random_mixture(rng)
        assert D.f_divergence(p, p, lambda x: x * np.log(x)) == pytest.approx(0.0, abs=1e-10)

    def test_total_variation_flavor(self, std_pair):
        p, q = std_pair
        val = D.f_divergence(p, q, lambda x: np.abs(x - 1.0))
        direct = float(np.sum(p.quad_weights * np.abs(p.values - q.values)))
        assert val == pytest.approx(direct, abs=1e-10)


class TestAlphaDivergence:
    def test_argument_swap_mirrors_order(self):
        rng = np.random.default_rng(7)
        for alpha in (0.3, 2.0, -1.0):
            for _ in range(5):
                p, q = random_mixture(rng), random_mixture(rng)
                lhs = D.reverse_alpha_div(p, q, alpha)
                rhs = D.alpha_div(p, q, 1.0 - alpha)
                assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_kl_limits(self, std_pair):
        rng = np.random.default_rng(10)
        for p, q in (std_pair, (random_mixture(rng), random_mixture(rng))):
            assert D.alpha_div(p, q, 1e-3) == pytest.approx(D.kl(q, p), abs=1e-2)
            assert D.alpha_div(p, q, 1.0 - 1e-3) == pytest.approx(D.kl(p, q), abs=1e-2)

    def test_chi2_is_twice_alpha_two(self):
        rng = np.random.default_rng(3)
        p, q = random_mixture(rng), random_mixture(rng)
        assert 2.0 * D.alpha_div(p, q, 2.0) == pytest.approx(D.pearson_chi2(p, q), abs=1e-8)

    def test_forbidden_orders(self, std_pair):
        p, q = std_pair
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError):
                D.alpha_div(p, q, alpha)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_nonfinite_alpha_rejected(self, std_pair, alpha):
        p, q = std_pair
        with pytest.raises(ValueError, match="alpha must be finite"):
            D.alpha_div(p, q, alpha)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for alpha in (-1.0, 0.3, 0.5, 2.0):
            for _ in range(5):
                p, q = random_mixture(rng), random_mixture(rng)
                assert D.alpha_div(p, q, alpha) >= -1e-9


class TestMaskedTerms:
    """Each integrand runs on every node; it must equal the gather-and-scatter
    form, terms on the support nodes and zeros elsewhere, bit for bit."""

    @staticmethod
    def gathered(pv, qv, rule):
        pos = pv > 0.0
        terms = np.zeros_like(pv)
        if rule == "kl":
            terms[pos] = pv[pos] * np.log(pv[pos] / qv[pos])
        elif rule == "entropy":
            terms[pos] = pv[pos] * np.log(pv[pos])
        elif rule == "cross-entropy":
            terms[pos] = pv[pos] * np.log(qv[pos])
        elif rule == "pearson":
            pos = qv > 0.0
            diff = pv[pos] - qv[pos]
            terms[pos] = diff * diff / qv[pos]
        else:
            alpha = rule
            both = pos & (qv > 0.0)
            terms[both] = np.exp(alpha * np.log(pv[both]) + (1.0 - alpha) * np.log(qv[both]))
        return terms

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = np.random.default_rng(21)
        p, q = random_mixture(rng), random_mixture(rng)
        cut = p.values.copy()
        cut[: N // 3] = 0.0
        return [(p, q), (normalize(from_samples([LO], [HI], (N,), cut)), q)]

    def test_matches_gather_and_scatter(self, pairs):
        for p, q in pairs:
            pv, qv = p.values, q.values
            grid = p.grid
            assert D.kl(p, q) == grid.integral(self.gathered(pv, qv, "kl"))
            assert D.entropy(p) == -grid.integral(self.gathered(pv, qv, "entropy"))
            assert D.cross_entropy(p, q) == -grid.integral(self.gathered(pv, qv, "cross-entropy"))
            assert D.pearson_chi2(p, q) == grid.integral(self.gathered(pv, qv, "pearson"))
            for alpha in (0.5, 2.0):
                integral = grid.integral(self.gathered(pv, qv, alpha))
                assert D.alpha_div(p, q, alpha) == (integral - 1.0) / (alpha * (alpha - 1.0))

    def test_mass_where_q_vanishes_is_a_support_error(self):
        vals = np.ones(64)
        vals[:16] = 0.0
        q = normalize(from_samples([0.0], [1.0], (64,), vals))
        p = normalize(from_samples([0.0], [1.0], (64,), np.linspace(1.0, 2.0, 64)))
        for divergence in (D.kl, D.cross_entropy, D.pearson_chi2, lambda a, b: D.alpha_div(a, b, 2.0)):
            with pytest.raises(SupportError):
                divergence(p, q)
        with pytest.raises(SupportError):
            D.alpha_div(q, p, -0.5)


class TestMaskFreeTerms:
    """The kernels run their ufuncs without masks; that must give the
    explicitly masked form's bits, on positive pairs and on a pair with
    shared zeros."""

    @staticmethod
    def masked(pv, qv, rule):
        """Each integrand as an explicitly masked ufunc sequence, zeros elsewhere."""
        terms = np.zeros_like(pv)
        if rule == "kl":
            pos = pv > 0.0
            np.divide(pv, qv, out=terms, where=pos)
            np.log(terms, out=terms, where=pos)
            np.multiply(pv, terms, out=terms, where=pos)
        elif rule == "cross-entropy":
            pos = pv > 0.0
            np.log(qv, out=terms, where=pos)
            np.multiply(pv, terms, out=terms, where=pos)
        elif rule == "pearson":
            pos = qv > 0.0
            np.subtract(pv, qv, out=terms, where=pos)
            np.multiply(terms, terms, out=terms, where=pos)
            np.divide(terms, qv, out=terms, where=pos)
        else:
            alpha = rule
            both = (pv > 0.0) & (qv > 0.0)
            log_q = np.empty_like(qv)
            np.log(pv, out=terms, where=both)
            np.multiply(alpha, terms, out=terms, where=both)
            np.log(qv, out=log_q, where=both)
            np.multiply(1.0 - alpha, log_q, out=log_q, where=both)
            np.add(terms, log_q, out=terms, where=both)
            np.exp(terms, out=terms, where=both)
        return terms

    def assert_bitwise(self, p, q, alphas=(-0.5, 0.3, 2.0)):
        pv, qv, grid = p.values, q.values, p.grid
        assert D.kl(p, q) == grid.integral(self.masked(pv, qv, "kl"))
        assert D.cross_entropy(p, q) == -grid.integral(self.masked(pv, qv, "cross-entropy"))
        assert D.pearson_chi2(p, q) == grid.integral(self.masked(pv, qv, "pearson"))
        for alpha in alphas:
            integral = grid.integral(self.masked(pv, qv, alpha))
            assert D.alpha_div(p, q, alpha) == (integral - 1.0) / (alpha * (alpha - 1.0))

    def test_positive_pairs_match_the_masked_form(self):
        rng = np.random.default_rng(8)
        one_d = (random_mixture(rng), random_mixture(rng))
        box = ([-6.0, -6.0], [6.0, 6.0], (129, 129))
        two_d = (
            to_grid(Gaussian([0.5, -0.5], [[1.0, 0.6], [0.6, 2.0]]), *box),
            to_grid(Gaussian([-0.3, 0.2], [[1.5, -0.2], [-0.2, 0.8]]), *box),
        )
        for p, q in (one_d, two_d):
            assert p.positive and q.positive
            self.assert_bitwise(p, q)

    def test_shared_zeros_keep_the_zero_log_zero_convention(self):
        x = np.linspace(0.0, 1.0, 64)
        p_vals, q_vals = 1.0 + x, 2.0 - x
        p_vals[:32] = 0.0
        q_vals[:16] = 0.0
        p = normalize(from_samples([0.0], [1.0], (64,), p_vals))
        q = normalize(from_samples([0.0], [1.0], (64,), q_vals))
        assert not (p.positive or q.positive)
        # q has mass where p vanishes, so no negative order
        self.assert_bitwise(p, q, alphas=(0.3, 2.0))
        assert np.isfinite(D.kl(p, q)) and np.isfinite(D.cross_entropy(p, q))


_FIRST = "first density has mass where the second vanishes"
_SECOND = "second density has mass where the first vanishes"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda cut, full: D.kl(full, cut), f"KL divergence: {_FIRST}"),
        (lambda cut, full: D.reverse_kl(cut, full), f"KL divergence: {_SECOND}"),
        (lambda cut, full: D.alpha_div(full, cut, 2.0), f"alpha-divergence: {_FIRST}"),
        (lambda cut, full: D.alpha_div(cut, full, -0.5), f"alpha-divergence: {_SECOND}"),
        (lambda cut, full: D.reverse_alpha_div(full, cut, -0.5), f"alpha-divergence: {_FIRST}"),
        (lambda cut, full: D.reverse_alpha_div(cut, full, 2.0), f"alpha-divergence: {_SECOND}"),
    ],
    ids=["kl", "reverse-kl", "alpha-2", "alpha-neg", "reverse-alpha-neg", "reverse-alpha-2"],
)
def test_support_error_names_the_argument_with_mass(call, message):
    vals = np.ones(64)
    vals[:16] = 0.0
    cut = normalize(from_samples([0.0], [1.0], (64,), vals))
    full = normalize(from_samples([0.0], [1.0], (64,), np.linspace(1.0, 2.0, 64)))
    with pytest.raises(SupportError) as exc:
        call(cut, full)
    assert str(exc.value) == message


class TestQuadraticDistances:
    def test_l2_self_zero(self):
        rng = np.random.default_rng(1)
        p = random_mixture(rng)
        assert D.l2(p, p) == 0.0

    def test_l2_symmetric(self, std_pair):
        p, q = std_pair
        assert D.l2(p, q) == pytest.approx(D.l2(q, p), rel=1e-14)

    def test_chi_identity_matches_l2(self, std_pair):
        p, q = std_pair
        chi = ChiTransform(ChiKind.IDENTITY)
        assert D.chi_distance(p, q, chi) == pytest.approx(D.l2(p, q), rel=1e-14)

    def test_chi_log_needs_positive(self):
        vals = np.ones(64)
        vals[0] = 0.0
        p = normalize(from_samples([0.0], [1.0], (64,), vals))
        q = normalize(from_samples([0.0], [1.0], (64,), np.ones(64)))
        with pytest.raises(PositivityError):
            D.chi_distance(p, q, ChiTransform(ChiKind.LOG))

    def test_chi_power_on_gaussians(self, std_pair):
        p, q = std_pair
        chi = ChiTransform(ChiKind.POWER, 2.0)
        direct = float(np.sum(p.quad_weights * (p.values**2 - q.values**2) ** 2))
        assert D.chi_distance(p, q, chi) == pytest.approx(direct, rel=1e-14)

    @pytest.mark.parametrize("alpha", [300.0, 600.0], ids=["inf", "nan"])
    def test_chi_power_that_overflows_raises(self, alpha):
        # N(0, 0.01) peaks at 3.99; its 300th power overflows, and at 600 the
        # difference of two overflowed powers is nan
        p, q = common_grid(Gaussian([0.0], [[0.01]]), Gaussian([0.05], [[0.01]]))
        with pytest.raises(BoundednessError, match="power transform distance"):
            D.chi_distance(p, q, ChiTransform(ChiKind.POWER, alpha))


class TestCrossEntropy:
    def test_decomposition(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            p, q = random_mixture(rng), random_mixture(rng)
            lhs = D.cross_entropy(p, q)
            rhs = D.kl(p, q) + D.entropy(p)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_gaussian_entropy(self):
        # 0.5 log(2 pi e) = 1.4189385332046727
        assert D.entropy(gauss_grid(0.0, 1.0)) == pytest.approx(1.4189385332046727, abs=1e-6)

    @pytest.mark.parametrize("case", ["gaussian-1d", "gaussian-2d", "grid", "grid-with-zeros"])
    def test_entropy_is_the_cross_entropy_with_itself_bit_for_bit(self, case):
        rng = np.random.default_rng(20)
        for _ in range(5):
            if case == "gaussian-1d":
                p = Gaussian([rng.uniform(-1.0, 1.0)], [[rng.uniform(0.25, 4.0)]])
            elif case == "gaussian-2d":
                a = rng.normal(size=(2, 2))
                p = Gaussian(rng.uniform(-1.0, 1.0, 2), a @ a.T + 0.5 * np.eye(2))
            else:
                p = random_mixture(rng)
                if case == "grid-with-zeros":
                    vals = p.values.copy()
                    vals[: rng.integers(1, N // 2)] = 0.0
                    p = normalize(from_samples([LO], [HI], (N,), vals))
                    assert not p.positive
            assert D.entropy(p) == D.cross_entropy(p, p)

    def test_entropy_of_an_unnormalized_density_raises(self):
        p = gauss_grid(0.0, 1.0)
        with pytest.raises(NotNormalizedError):
            D.entropy(from_samples([LO], [HI], (N,), 2.0 * p.values))


class TestGaussianInterop:
    def test_gaussian_converted_to_grid_side(self, std_pair):
        p, q = std_pair
        g = Gaussian([0.0], [[1.0]])
        assert D.kl(g, q) == pytest.approx(D.kl(p, q), abs=1e-9)
        assert D.kl(p, Gaussian([1.0], [[1.0]])) == pytest.approx(D.kl(p, q), abs=1e-9)

    def test_two_gaussians(self):
        val = D.kl(Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[1.0]]))
        assert val == pytest.approx(0.5, abs=1e-6)


class TestDispatcher:
    def test_kind_coverage(self, std_pair):
        p, q = std_pair
        cases = [
            (D.DivergenceSpec(D.DivergenceKind.KL), D.kl(p, q)),
            (D.DivergenceSpec(D.DivergenceKind.REVERSE_KL), D.reverse_kl(p, q)),
            (D.DivergenceSpec(D.DivergenceKind.ALPHA, alpha=0.3), D.alpha_div(p, q, 0.3)),
            (
                D.DivergenceSpec(D.DivergenceKind.REVERSE_ALPHA, alpha=0.3),
                D.reverse_alpha_div(p, q, 0.3),
            ),
            (D.DivergenceSpec(D.DivergenceKind.PEARSON_CHI2), D.pearson_chi2(p, q)),
            (D.DivergenceSpec(D.DivergenceKind.L2), D.l2(p, q)),
            (
                D.DivergenceSpec(
                    D.DivergenceKind.CHI_DISTANCE, chi=ChiTransform(ChiKind.LOG)
                ),
                D.chi_distance(p, q, ChiTransform(ChiKind.LOG)),
            ),
        ]
        for spec, expected in cases:
            assert D.evaluate(spec, p, q) == expected

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            D.DivergenceSpec(D.DivergenceKind.ALPHA)
        with pytest.raises(ValueError):
            D.DivergenceSpec(D.DivergenceKind.ALPHA, alpha=1.0)
        with pytest.raises(ValueError):
            D.DivergenceSpec(D.DivergenceKind.CHI_DISTANCE)
        for alpha in (np.nan, np.inf):
            with pytest.raises(ValueError, match="alpha must be finite"):
                D.DivergenceSpec(D.DivergenceKind.REVERSE_ALPHA, alpha=alpha)

    @pytest.mark.parametrize("kind", [D.DivergenceKind.ALPHA, D.DivergenceKind.REVERSE_ALPHA])
    def test_spec_alpha_is_a_float(self, kind):
        # as a PoolingSpec's alpha is
        for alpha in (2, "2", np.int64(2), np.float32(2.0)):
            spec = D.DivergenceSpec(kind, alpha=alpha)
            assert type(spec.alpha) is float and spec.alpha == 2.0
        for alpha in ("two", "nan", -np.inf):
            with pytest.raises(ValueError):
                D.DivergenceSpec(kind, alpha=alpha)
        for alpha in (0, "1", 1.0):
            with pytest.raises(ValueError, match="^alpha may not be 0 or 1; those limits are the two KLDs$"):
                D.DivergenceSpec(kind, alpha=alpha)

    @pytest.mark.parametrize(
        "kind, fields, ignored",
        [
            (D.DivergenceKind.KL, {"alpha": 3.0}, "alpha"),
            (D.DivergenceKind.KL, {"chi": ChiTransform(ChiKind.LOG)}, "chi"),
            (D.DivergenceKind.REVERSE_KL, {"alpha": 0.5}, "alpha"),
            (D.DivergenceKind.L2, {"chi": ChiTransform(ChiKind.IDENTITY)}, "chi"),
            (D.DivergenceKind.PEARSON_CHI2, {"alpha": 2.0}, "alpha"),
            (D.DivergenceKind.ALPHA, {"alpha": 0.5, "chi": ChiTransform(ChiKind.LOG)}, "chi"),
            (D.DivergenceKind.CHI_DISTANCE, {"alpha": 0.5, "chi": ChiTransform(ChiKind.LOG)}, "alpha"),
        ],
    )
    def test_field_the_kind_ignores_rejected(self, kind, fields, ignored):
        with pytest.raises(ValueError, match=f"^{kind.value} divergence does not take {ignored}$"):
            D.DivergenceSpec(kind, **fields)


def _assert_close(value, exact):
    assert abs(value - exact) <= max(1e-8 * abs(exact), 1e-10), (value, exact)


def _pair_on_grid(data, dim):
    p, q = data.draw(gaussians(dim)), data.draw(gaussians(dim))
    return p, q, common_grid(p, q)


def _positive_pair_on_grid(data, dim):
    """A pair whose densities have no zero on the shared grid: elsewhere a
    correlated pair underflows at the corners of the marginal box, the regime
    of ``test_correlated_pair_outside_the_grid_regime``."""
    p, q, (pg, qg) = _pair_on_grid(data, dim)
    assume(pg.positive and qg.positive)
    return p, q, (pg, qg)


@pytest.mark.parametrize("dim", [1, 2])
class TestGaussianClosedForms:
    """Each divergence of two Gaussians on their shared grid against its closed form."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_kl(self, dim, data):
        p, q, grids = _positive_pair_on_grid(data, dim)
        _assert_close(D.kl(*grids), gaussian_kl(p, q))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), alpha=st.floats(0.2, 0.8, exclude_min=True, exclude_max=True))
    def test_alpha(self, dim, data, alpha):
        p, q, grids = _pair_on_grid(data, dim)
        exact = np.expm1(gaussian_log_affinity(p, q, alpha)) / (alpha * (alpha - 1.0))
        _assert_close(D.alpha_div(*grids, alpha), exact)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_cross_entropy(self, dim, data):
        p, q, grids = _positive_pair_on_grid(data, dim)
        _assert_close(D.cross_entropy(*grids), gaussian_cross_entropy(p, q))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_l2(self, dim, data):
        p, q, grids = _pair_on_grid(data, dim)
        exact = gaussian_l2_cross(p, p) + gaussian_l2_cross(q, q) - 2.0 * gaussian_l2_cross(p, q)
        _assert_close(D.l2(*grids), exact)


@pytest.mark.xfail(
    raises=SupportError,
    strict=True,
    reason="ROADMAP items 3 and 11: the marginal +-8 sigma box of a wide Gaussian "
    "reaches where a narrow correlated one underflows to zero",
)
def test_correlated_pair_outside_the_grid_regime():
    p = gaussian([1.0, 1.0], [2.0, 2.0], 0.8)
    q = gaussian([-1.0, 1.0], [2.0, 0.5], 0.8)
    _assert_close(D.kl(p, q), gaussian_kl(p, q))


@pytest.mark.xfail(
    raises=SupportError,
    strict=True,
    reason="ROADMAP item 3: N(0, 0.01) underflows to zero on the shared grid where N(3, 1) has mass",
)
def test_kl_of_a_narrow_pair():
    p, q = Gaussian([3.0], [[1.0]]), Gaussian([0.0], [[0.01]])
    assert gaussian_kl(p, q) == pytest.approx(497.19741490700596, rel=1e-15)
    _assert_close(D.kl(p, q), gaussian_kl(p, q))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: the integral of p^alpha q^(1-alpha) diverges (raise BoundednessError) "
    "or its integrand reaches past the grid (match the closed form)",
)
@pytest.mark.parametrize(
    "p, q, alpha",
    [
        (Gaussian([0.0], [[1.0]]), Gaussian([0.0], [[0.64]]), 3.0),
        (Gaussian([0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]]), Gaussian([0.0, 0.0], [[0.6, 0.0], [0.0, 0.6]]), 3.0),
        (Gaussian([0.0], [[1.0]]), Gaussian([0.5], [[0.71**2]]), None),
        (Gaussian([0.0], [[1.0]]), Gaussian([0.5], [[0.8**2]]), None),
    ],
    ids=["alpha-3", "alpha-3-2d", "chi2-0.71", "chi2-0.8"],
)
def test_divergent_or_wide_integrand(p, q, alpha):
    """alpha_div at ``alpha``, or Pearson chi-squared, the integral of p^2/q less one, when None."""
    exact = np.expm1(gaussian_log_affinity(p, q, 2.0 if alpha is None else alpha))
    if alpha is not None:
        exact /= alpha * (alpha - 1.0)

    def divergence():
        return D.pearson_chi2(p, q) if alpha is None else D.alpha_div(p, q, alpha)

    if np.isinf(exact):
        with pytest.raises(BoundednessError):
            divergence()
    else:
        _assert_close(divergence(), exact)


def _bumps(rng, lower, upper, n, zeros=0):
    """A random positive three-bump density normalized on its own 1-D grid; ``zeros`` leading nodes set to 0."""
    x = np.linspace(lower, upper, n)
    width = upper - lower
    vals = np.zeros(n)
    for _ in range(3):
        mu = rng.uniform(lower + 0.2 * width, upper - 0.2 * width)
        sd = rng.uniform(0.08, 0.3) * width
        vals += rng.uniform(0.2, 1.0) * np.exp(-0.5 * ((x - mu) / sd) ** 2)
    vals[:zeros] = 0.0
    return normalize(from_samples([lower], [upper], (n,), vals))


def _product(dx, dy):
    """The separable 2-D density dx(x) dy(y) on the tensor grid of their two 1-D grids."""
    lower, upper = dx.grid.lower + dy.grid.lower, dx.grid.upper + dy.grid.upper
    return from_samples(lower, upper, (dx.grid.shape[0], dy.grid.shape[0]), np.multiply.outer(dx.values, dy.values))


def _l2_terms(p, q):
    """The three terms of the squared L2 distance, the integrals of p^2, p q and q^2."""
    return tuple(p.grid.integral(a.values, b.values) for a, b in ((p, p), (p, q), (q, q)))


def _assert_relative(value, exact, tol=1e-12):
    assert abs(value - exact) <= tol * abs(exact), (value, exact)


class TestSeparableTwoDimensional:
    """For p = p_x (x) p_y and q = q_x (x) q_y on a tensor grid, the tensor trapezoid rule of a
    product is the product of the 1-D rules, so each 2-D divergence follows from four 1-D ones:
    KL, reverse KL and cross-entropy add; the alpha-affinity, 1 + chi^2 and each L2 term multiply.
    No closed form is needed, and the 1-D densities need not be Gaussian."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(16, 160), st.integers(16, 160)),
        lower=st.tuples(st.floats(-6.0, 0.0), st.floats(-6.0, 0.0)),
        width=st.tuples(st.floats(4.0, 12.0), st.floats(4.0, 12.0)),
        zeros=st.booleans(),
        alpha=st.floats(-1.5, 2.5).filter(lambda a: min(abs(a), abs(a - 1.0)) >= 0.05),
    )
    # equal node counts on unequal spacings: axes swapped anywhere fail by value, not by shape
    @example(seed=7, shape=(64, 64), lower=(-4.0, -1.0), width=(8.0, 12.0), zeros=False, alpha=0.5)
    @example(seed=8, shape=(64, 64), lower=(-4.0, -1.0), width=(8.0, 12.0), zeros=True, alpha=2.5)
    def test_divergences_of_products(self, seed, shape, lower, width, zeros, alpha):
        rng = np.random.default_rng(seed)
        (nx, ny), (lx, ly), (wx, wy) = shape, lower, width
        # p_x vanishes on its first nodes: only the kinds whose support rule lets p vanish see it
        px = _bumps(rng, lx, lx + wx, nx, zeros=nx // 4 if zeros else 0)
        qx = _bumps(rng, lx, lx + wx, nx)
        py, qy = _bumps(rng, ly, ly + wy, ny), _bumps(rng, ly, ly + wy, ny)
        p, q = _product(px, py), _product(qx, qy)
        assert p.normalized and q.normalized
        assert p.positive != zeros and q.positive

        for fn in (D.kl, D.cross_entropy) if zeros else (D.kl, D.reverse_kl, D.cross_entropy):
            _assert_relative(fn(p, q), fn(px, qx) + fn(py, qy))

        def affinity(a, b):
            return 1.0 + alpha * (alpha - 1.0) * D.alpha_div(a, b, alpha)

        if alpha > 0.0 or not zeros:  # at alpha < 0 q must vanish wherever p does
            _assert_relative(affinity(p, q), affinity(px, qx) * affinity(py, qy))

        def one_plus_chi2(a, b):
            return 1.0 + D.pearson_chi2(a, b)

        _assert_relative(one_plus_chi2(p, q), one_plus_chi2(px, qx) * one_plus_chi2(py, qy))

        terms = [tx * ty for tx, ty in zip(_l2_terms(px, qx), _l2_terms(py, qy))]
        for term, exact in zip(_l2_terms(p, q), terms):
            _assert_relative(term, exact)
        # l2 sums the terms with signs +, -2, +; its round-off scales with their magnitudes
        pp, pq, qq = terms
        assert abs(D.l2(p, q) - (pp - 2.0 * pq + qq)) <= 1e-12 * (pp + 2.0 * pq + qq)
