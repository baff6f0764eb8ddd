from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pdffusion import divergence as D
from pdffusion.errors import BoundednessError, DomainError, NotNormalizedError, PositivityError, SupportError
from pdffusion.gaussian import Gaussian, common_grid, to_grid
from pdffusion.grid import from_samples, normalize
from pdffusion.pooling import ChiKind, ChiTransform

from closed_forms import (
    gaussian,
    gaussian_alpha_divergence,
    gaussian_cross_entropy,
    gaussian_kl,
    gaussian_l2_cross,
    gaussians,
)
import reference
from separable import assert_relative, bumps, product

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

    def test_infinite_f_at_zero_where_q_has_mass_is_a_support_error(self):
        # -log t is +inf at t = 0: p vanishes for |x| >= 2, where q has mass
        x = np.linspace(-5.0, 5.0, 64)
        p = normalize(from_samples([-5.0], [5.0], (64,), (np.abs(x) < 2.0).astype(float)))
        q = normalize(from_samples([-5.0], [5.0], (64,), np.exp(-0.5 * x * x)))
        message = "f-divergence: second density has mass where the first vanishes"
        with pytest.raises(SupportError, match=f"^{message}$"):
            D.f_divergence(p, q, lambda t: -np.log(t))
        with pytest.raises(SupportError):
            D.reverse_kl(p, q)

    @pytest.mark.parametrize(
        "f, divergence",
        [
            (lambda t: t * np.log(t), D.kl),
            (lambda t: (t - 1.0) ** 2, D.pearson_chi2),
            (lambda t: -np.log(t), D.reverse_kl),
        ],
        ids=["t-log-t", "squared-gap", "minus-log-t"],
    )
    def test_named_f_matches_its_divergence_on_positive_pairs(self, std_pair, f, divergence):
        rng = np.random.default_rng(7)
        for p, q in (std_pair, (random_mixture(rng), random_mixture(rng))):
            assert p.positive and q.positive
            assert D.f_divergence(p, q, f) == pytest.approx(divergence(p, q), rel=1e-9, abs=1e-12)

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

    def test_orders_0_and_1_are_the_kl_limits(self):
        # the near-KL integrand reads a zero step as r: at alpha = 1 it integrates p log(p/q)
        vals = np.ones(64)
        vals[:16] = 0.0
        cut = normalize(from_samples([0.0], [1.0], (64,), vals))
        full = normalize(from_samples([0.0], [1.0], (64,), np.linspace(1.0, 2.0, 64)))
        pairs = [
            common_grid(Gaussian([-1.0], [[1.0]]), Gaussian([1.5], [[2.0]])),
            common_grid(gaussian([0.3, -0.2], [1.0, 0.9], 0.3), gaussian([-0.4, 0.5], [1.2, 0.8], -0.2)),
        ]
        for p, q in pairs:
            assert_relative(D.alpha_div(p, q, 1.0), D.kl(p, q), 1e-15)
            assert_relative(D.alpha_div(p, q, 0.0), D.reverse_kl(p, q), 1e-15)
            assert_relative(D.reverse_alpha_div(p, q, 1.0), D.reverse_kl(p, q), 1e-15)
            assert_relative(D.reverse_alpha_div(p, q, 0.0), D.kl(p, q), 1e-15)
        # each limit keeps its KL's support rule, and the zero convention where it holds
        assert_relative(D.alpha_div(cut, full, 1.0), D.kl(cut, full), 1e-15)
        assert_relative(D.reverse_alpha_div(full, cut, 1.0), D.reverse_kl(full, cut), 1e-15)
        limits = [
            (lambda: D.alpha_div(full, cut, 1.0), lambda: D.kl(full, cut)),
            (lambda: D.alpha_div(cut, full, 0.0), lambda: D.reverse_kl(cut, full)),
            (lambda: D.reverse_alpha_div(cut, full, 1.0), lambda: D.reverse_kl(cut, full)),
            (lambda: D.reverse_alpha_div(full, cut, 0.0), lambda: D.kl(full, cut)),
        ]
        for limit, kl in limits:
            with pytest.raises(SupportError) as want:
                kl()
            with pytest.raises(SupportError) as got:
                limit()
            # the same argument named: "alpha-divergence: first density ..." as "KL divergence: first density ..."
            assert str(got.value).split(": ")[1] == str(want.value).split(": ")[1]

    def test_reverse_alpha_is_alpha_on_the_swapped_pair_down_to_tiny_orders(self):
        # q is p cut off at x >= 1, so alpha D tends to p's mass where q vanishes (0.1702 here).
        # Taken as alpha_div(p, q, 1 - alpha), the order dropped alpha's low digits: 1.7033e14
        # for 1.70198e14 at alpha = 1e-15, and below 2^-54 a SupportError, as 1 - alpha is 1
        x = np.linspace(-5.0, 5.0, 64)
        bell = np.exp(-0.5 * x**2)
        p = normalize(from_samples([-5.0], [5.0], (64,), bell))
        q = normalize(from_samples([-5.0], [5.0], (64,), np.where(x >= 1.0, 0.0, bell)))
        cut_off = 1.0 - p.grid.integral(np.where(q.values > 0.0, p.values, 0.0))
        for alpha in (1e-3, 1e-6, 1e-9, 1e-12, 1e-13, 1e-15, 1e-17, 1e-30, 1e-100, 1e-300):
            got = D.reverse_alpha_div(p, q, alpha)
            assert_relative(got, D.alpha_div(q, p, alpha), 1e-15)
            if alpha <= 1e-13:  # above, the O(alpha) term shows
                assert abs(alpha * got - cut_off) <= 1e-12, (alpha, got)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_nonfinite_alpha_rejected(self, std_pair, alpha):
        p, q = std_pair
        with pytest.raises(ValueError, match="alpha must be finite"):
            D.alpha_div(p, q, alpha)

    @pytest.mark.parametrize(
        "divergence, alpha",
        [(D.reverse_alpha_div, 50.0), (D.alpha_div, 400.0), (D.alpha_div, 1e23), (D.alpha_div, -400.0)],
        ids=["reverse-50", "400", "1e23", "-400"],
    )
    def test_power_that_overflows_raises(self, divergence, alpha):
        # p^alpha q^(1 - alpha) overflows on the grid's finite tails: float's inf, not the exact integral's
        p, q = gauss_grid(-1.0, 1.0), gauss_grid(1.5, 2.0)
        with pytest.raises(BoundednessError, match="^alpha-divergence is inf: a density's power overflows$"):
            divergence(p, q, alpha)

    @pytest.mark.parametrize("alpha", [-1e300, -400.0, -0.5, 0.0, 5e-324, 1e-300, 0.3, 0.5, 1.0 - 2**-53, 1.0, 2.0, 50.0, 1e300])
    def test_a_density_with_itself_is_exactly_0(self, alpha):
        # r = log p - log p is 0 on every node where p has mass, and the zero convention takes the rest
        vals = np.ones(64)
        vals[:16] = 0.0
        densities = [
            random_mixture(np.random.default_rng(4)),
            to_grid(gaussian([0.3, -0.2], [1.0, 0.9], 0.3), [-6.0, -6.0], [6.0, 6.0], (65, 65)),
            normalize(from_samples([0.0], [1.0], (64,), vals)),
        ]
        for p in densities:
            for value in (D.alpha_div(p, p, alpha), D.reverse_alpha_div(p, p, alpha)):
                assert value == 0.0 and np.copysign(1.0, value) == 1.0, value

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for alpha in (-1.0, 0.3, 0.5, 2.0):
            for _ in range(5):
                p, q = random_mixture(rng), random_mixture(rng)
                assert D.alpha_div(p, q, alpha) >= -1e-9


def alpha_form(alpha, pv, qv):
    """alpha_div's integrand weight expm1(step (log p - log q)) / step: its step, its weight,
    and what its integral is divided by, alpha (alpha - 1) / step."""
    return (alpha - 1.0, pv, alpha) if alpha > 0.5 else (alpha, qv, alpha - 1.0)


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
            # the expm1 integrand, weight expm1(step (log p - log q)) / step, on the nodes where its weight has mass
            step, weight, _ = alpha_form(rule, pv, qv)
            pos = weight > 0.0
            with np.errstate(divide="ignore"):  # log 0 where the other density vanishes
                r = np.log(pv[pos]) - np.log(qv[pos])
            terms[pos] = weight[pos] * (np.expm1(step * r) / step)
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
                scale = alpha_form(alpha, pv, qv)[2]
                assert D.alpha_div(p, q, alpha) == grid.integral(self.gathered(pv, qv, alpha)) / scale

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
            step, weight, _ = alpha_form(rule, pv, qv)
            pos = weight > 0.0
            log_q = np.empty_like(qv)
            with np.errstate(divide="ignore"):  # log 0 where the other density vanishes
                np.log(pv, out=terms, where=pos)
                np.log(qv, out=log_q, where=pos)
            np.subtract(terms, log_q, out=terms, where=pos)
            np.multiply(step, terms, out=terms, where=pos)
            np.expm1(terms, out=terms, where=pos)
            np.divide(terms, step, out=terms, where=pos)
            np.multiply(weight, terms, out=terms, where=pos)
        return terms

    def assert_bitwise(self, p, q, alphas=(-0.5, 0.3, 2.0)):
        pv, qv, grid = p.values, q.values, p.grid
        assert D.kl(p, q) == grid.integral(self.masked(pv, qv, "kl"))
        assert D.cross_entropy(p, q) == -grid.integral(self.masked(pv, qv, "cross-entropy"))
        assert D.pearson_chi2(p, q) == grid.integral(self.masked(pv, qv, "pearson"))
        for alpha in alphas:
            scale = alpha_form(alpha, pv, qv)[2]
            assert D.alpha_div(p, q, alpha) == grid.integral(self.masked(pv, qv, alpha)) / scale

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

    def test_chi_power_0_is_the_log_distance(self, std_pair):
        # the power transform's exponent 0 is its limit, the log
        power = D.chi_distance(*std_pair, ChiTransform(ChiKind.POWER, 0.0))
        assert power == D.chi_distance(*std_pair, ChiTransform(ChiKind.LOG))

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
        assert D.DivergenceSpec(D.DivergenceKind.ALPHA, alpha=1.0).alpha == 1.0
        with pytest.raises(ValueError):
            D.DivergenceSpec(D.DivergenceKind.CHI_DISTANCE)
        for alpha in (np.nan, np.inf):
            with pytest.raises(ValueError, match="alpha must be finite"):
                D.DivergenceSpec(D.DivergenceKind.REVERSE_ALPHA, alpha=alpha)

    @pytest.mark.parametrize("kind", [D.DivergenceKind.ALPHA, D.DivergenceKind.REVERSE_ALPHA])
    def test_spec_alpha_is_a_float(self, std_pair, kind):
        # as a PoolingSpec's alpha is
        for alpha in (2, "2", np.int64(2), np.float32(2.0)):
            spec = D.DivergenceSpec(kind, alpha=alpha)
            assert type(spec.alpha) is float and spec.alpha == 2.0
        for alpha in ("two", "nan", -np.inf):
            with pytest.raises(ValueError):
                D.DivergenceSpec(kind, alpha=alpha)
        # 0 and 1 are the family's limits, the two KLDs
        limits = {0.0: D.reverse_kl, 1.0: D.kl} if kind is D.DivergenceKind.ALPHA else {0.0: D.kl, 1.0: D.reverse_kl}
        for alpha in (0, "1", 1.0):
            spec = D.DivergenceSpec(kind, alpha=alpha)
            assert type(spec.alpha) is float and spec.alpha in limits
            assert_relative(D.evaluate(spec, *std_pair), limits[spec.alpha](*std_pair), 1e-15)

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
        _assert_close(D.alpha_div(*grids, alpha), gaussian_alpha_divergence(p, q, alpha))

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


@pytest.mark.parametrize("alpha", [1e-300, -1e-300, 1e-16, -1e-16, 1e-12, 1.0 - 1e-12, 1.0 - 1.1e-16])
@pytest.mark.parametrize(
    "p, q",
    [
        (Gaussian([-1.0], [[1.0]]), Gaussian([1.5], [[2.0]])),
        (gaussian([0.3, -0.2], [1.0, 0.9], 0.3), gaussian([-0.4, 0.5], [1.2, 0.8], -0.2)),
    ],
    ids=["1d", "2d"],
)
def test_alpha_near_its_kl_limits_keeps_its_digits(p, q, alpha):
    # (integral - 1) / (alpha (alpha - 1)) kept only the integral's round-off here:
    # 1.6% off at 1e-16, -0 at 1e-300
    exact = gaussian_alpha_divergence(p, q, alpha)
    limit = gaussian_kl(q, p) if alpha < 0.5 else gaussian_kl(p, q)
    assert exact == pytest.approx(limit, rel=1e-11)
    for value in (D.alpha_div(p, q, alpha), D.reverse_alpha_div(q, p, alpha)):
        assert value > 0.0
        assert abs(value - exact) <= 1e-10 * exact, (value, exact)


# each kernel's rounding on smooth positive 1-D pairs against tests/reference.py, in eps
# times the sum of |terms|: the worst of 12000 draws of the property below (6.3, 2.5, 2.6
# and 4.3), rounded up by at most 4x
ROUNDING_BOUNDS = {"kl": 16.0, "l2": 8.0, "pearson_chi2": 8.0, ("alpha_div", 0.3): 12.0}
# alpha_div at 2, by log span (worst 3.8, 32, 244 and 553): its r = log p - log q carries an
# absolute error of up to an ulp of the larger |log| into expm1(r), where pearson_chi2, twice
# the same divergence written as (p - q)^2 / q, keeps within its bound of 8 at every span
ALPHA_2_BOUNDS = {5.0: 12.0, 50.0: 96.0, 300.0: 768.0, 700.0: 1536.0}


@settings(max_examples=60, deadline=None)
@given(pair=reference.smooth_pairs())
def test_kernels_round_within_their_bounds(pair):
    span, p, q = pair
    exact = reference.divergences(p, q, (0.3, 2.0))
    for key, bound in {**ROUNDING_BOUNDS, ("alpha_div", 2.0): ALPHA_2_BOUNDS[span]}.items():
        name, *alpha = key if isinstance(key, tuple) else (key,)
        assert reference.rounding(getattr(D, name)(p, q, *alpha), exact[key]) <= bound, key


# centres anywhere up to 1e15 in magnitude, and just past a power of two, where node
# coordinates rounded to the float spacing there would be spaced unevenly
FAR_CENTRES = st.one_of(
    st.floats(-1e15, 1e15),
    st.builds(lambda k, sign: sign * 2.0**k + 0.5, st.integers(1, 49), st.sampled_from([-1.0, 1.0])),
)


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kl_far_from_0_matches_its_closed_form(dim, data):
    # sigma in [0.7, 1.4] times a scale down to 2^-60 and |rho| <= 0.3 keep both densities
    # above the underflow on the shared box, and shifts of at least sigma / 3 keep KL away from
    # 0 where they do not round away at the centre. A Gaussian whose box mean +- 8 sigma is
    # narrower than the float spacing at its mean has no grid: DomainError
    def draw(strategy):
        return np.array(data.draw(st.lists(strategy, min_size=dim, max_size=dim)))

    centre = draw(FAR_CENTRES)
    scale = 2.0 ** data.draw(st.just(0.0) | st.floats(-60.0, 0.0))
    shift = scale * draw(st.floats(0.5, 2.0) | st.floats(-2.0, -0.5))
    rho = [data.draw(st.floats(-0.3, 0.3)) if dim == 2 else 0.0 for _ in range(2)]
    p = gaussian(centre, scale * draw(st.floats(0.7, 1.4)), rho[0])
    q = gaussian(centre + shift, scale * draw(st.floats(0.7, 1.4)), rho[1])
    assume(np.any(q.mean != p.mean))
    narrow = any(16.0 * s < np.spacing(abs(m)) for g in (p, q) for m, s in zip(g.mean, np.sqrt(np.diag(g.cov))))
    if narrow:
        with pytest.raises(DomainError, match="narrower than the float spacing"):
            D.kl(p, q)
    else:
        exact = gaussian_kl(p, q)
        assert abs(D.kl(p, q) - exact) <= 1e-12 * exact, (p, q)


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
    exact = 2.0 * gaussian_alpha_divergence(p, q, 2.0) if alpha is None else gaussian_alpha_divergence(p, q, alpha)

    def divergence():
        return D.pearson_chi2(p, q) if alpha is None else D.alpha_div(p, q, alpha)

    if np.isinf(exact):
        with pytest.raises(BoundednessError):
            divergence()
    else:
        _assert_close(divergence(), exact)


# sigma ratio 20: the default 257 nodes per axis span the wide box at 0.8 intervals per narrow sigma
UNDER_RESOLVED = gaussian([0.0, 0.0], [2.0, 2.0]), gaussian([0.3, 0.2], [0.1, 0.1])


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="ROADMAP item 30: the default grid under-resolves the narrow Gaussian and the call exits 0 "
    "2.3e-6 from the closed form",
)
def test_alpha_div_of_an_under_resolved_pair():
    p, q = UNDER_RESOLVED
    _assert_close(D.alpha_div(p, q, 0.3), gaussian_alpha_divergence(p, q, 0.3))


def test_alpha_div_of_that_pair_resolved():
    # 1025 nodes per axis, 3.2 intervals per narrow sigma: the same pair within 1e-8
    p, q = UNDER_RESOLVED
    assert gaussian_alpha_divergence(p, q, 0.3) == pytest.approx(3.64121686471, rel=1e-11)
    _assert_close(D.alpha_div(*common_grid(p, q, points=1025), 0.3), gaussian_alpha_divergence(p, q, 0.3))


def _l2_terms(p, q):
    """The three terms of the squared L2 distance, the integrals of p^2, p q and q^2."""
    return tuple(p.grid.integral(a.values, b.values) for a, b in ((p, p), (p, q), (q, q)))


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
        px = bumps(rng, lx, lx + wx, nx, zeros=nx // 4 if zeros else 0)
        qx = bumps(rng, lx, lx + wx, nx)
        py, qy = bumps(rng, ly, ly + wy, ny), bumps(rng, ly, ly + wy, ny)
        p, q = product(px, py), product(qx, qy)
        assert p.normalized and q.normalized
        assert p.positive != zeros and q.positive

        for fn in (D.kl, D.cross_entropy) if zeros else (D.kl, D.reverse_kl, D.cross_entropy):
            assert_relative(fn(p, q), fn(px, qx) + fn(py, qy))

        def affinity(a, b):
            return 1.0 + alpha * (alpha - 1.0) * D.alpha_div(a, b, alpha)

        if alpha > 0.0 or not zeros:  # at alpha < 0 q must vanish wherever p does
            assert_relative(affinity(p, q), affinity(px, qx) * affinity(py, qy))

        def one_plus_chi2(a, b):
            return 1.0 + D.pearson_chi2(a, b)

        assert_relative(one_plus_chi2(p, q), one_plus_chi2(px, qx) * one_plus_chi2(py, qy))

        terms = [tx * ty for tx, ty in zip(_l2_terms(px, qx), _l2_terms(py, qy))]
        for term, exact in zip(_l2_terms(p, q), terms):
            assert_relative(term, exact)
        # l2 sums the terms with signs +, -2, +; its round-off scales with their magnitudes
        pp, pq, qq = terms
        assert abs(D.l2(p, q) - (pp - 2.0 * pq + qq)) <= 1e-12 * (pp + 2.0 * pq + qq)
