from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdffusion import divergence as D
from pdffusion.errors import BoundednessError, NotNormalizedError, PositivityError, SupportError
from pdffusion.gaussian import Gaussian, common_grid, to_grid
from pdffusion.grid import from_samples, normalize
from pdffusion.pooling import ChiKind, ChiTransform

from closed_forms import gaussian_cross_entropy, gaussian_kl, gaussian_l2_cross, gaussian_log_affinity

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
    """The integrands are built with masked ufuncs; each must equal the
    gather-and-scatter form they replace, bit for bit, zeros included."""

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


class TestMaskFreeTerms:
    """On strictly positive densities the kernels run their ufuncs without
    masks; that must give the explicitly masked form's bits, and with zeros
    in p or q the masked form itself must still run."""

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


def _gaussian(mean, sigma, rho=0.0) -> Gaussian:
    """N(mean, diag(sigma) [[1, rho], [rho, 1]] diag(sigma)), or N(mean, sigma^2) in 1-D."""
    cov = np.outer(sigma, sigma) * np.where(np.eye(len(sigma)) == 1.0, 1.0, rho)
    return Gaussian(mean, cov)


@st.composite
def _gaussians(draw, dim):
    """A Gaussian with means in [-1, 1], standard deviations in [0.5, 2] and |rho| <= 0.8."""
    mean = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
    sigma = draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim))
    return _gaussian(mean, sigma, draw(st.floats(-0.8, 0.8)) if dim == 2 else 0.0)


def _assert_close(value, exact):
    assert abs(value - exact) <= max(1e-8 * abs(exact), 1e-10), (value, exact)


def _pair_on_grid(data, dim):
    p, q = data.draw(_gaussians(dim)), data.draw(_gaussians(dim))
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
    p = _gaussian([1.0, 1.0], [2.0, 2.0], 0.8)
    q = _gaussian([-1.0, 1.0], [2.0, 0.5], 0.8)
    _assert_close(D.kl(p, q), gaussian_kl(p, q))
