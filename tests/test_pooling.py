from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdffusion import divergence as D
from pdffusion import pooling as P
from pdffusion.errors import (
    BoundednessError,
    DegenerateError,
    FusionError,
    GridMismatchError,
    PositivityError,
    SimplexError,
)
from pdffusion.gaussian import Gaussian, common_grid, to_grid
from pdffusion.grid import (
    GridDensity,
    OpinionProfile,
    from_samples,
    integrate,
    moments,
    normalize,
)

from closed_forms import gaussian, gaussian_power_product, gaussians, mixture_moments, power_mean


def gauss_grid(mu, var, lower=-10.5, upper=10.5, n=2048):
    return to_grid(Gaussian([mu], [[var]]), [lower], [upper], (n,))


def assert_is_the_power_mean(fused, prof, w, alpha):
    """``fused`` is the normalized ``power_mean`` of the profile to 1e-12 relative, node by node."""
    want = power_mean([q.values for q in prof.densities], w, alpha)
    want /= prof.grid.integral(want)
    np.testing.assert_allclose(fused.values, want, rtol=1e-12, atol=0.0)


@pytest.fixture(scope="module")
def mirror_pair():
    # the two-unit-variance pair at -2.5 and 2.5 on a shared grid
    return OpinionProfile((gauss_grid(-2.5, 1.0), gauss_grid(2.5, 1.0)))


@pytest.fixture(scope="module")
def skew_pair():
    return OpinionProfile((gauss_grid(0.0, 1.0), gauss_grid(2.0, 1.0)))


class TestLinearPool:
    def test_unanimity(self, mirror_pair):
        q = mirror_pair.densities[0]
        fused = P.linear_pool(OpinionProfile((q, q, q)), [0.2, 0.5, 0.3])
        np.testing.assert_allclose(fused.values, q.values, atol=1e-15)

    def test_mixture_moments(self, skew_pair):
        fused = P.linear_pool(skew_pair, [0.5, 0.5])
        mean, cov = moments(fused)
        assert mean[0] == pytest.approx(1.0, abs=1e-3)
        assert cov[0, 0] == pytest.approx(2.0, abs=1e-3)

    def test_one_hot_is_dictatorship(self, mirror_pair):
        fused = P.linear_pool(mirror_pair, [1.0, 0.0])
        np.testing.assert_array_equal(fused.values, mirror_pair.densities[0].values)

    def test_zero_preservation_exact(self):
        vals1 = np.ones(64)
        vals2 = np.ones(64)
        vals1[10:20] = 0.0
        vals2[10:20] = 0.0
        prof = OpinionProfile(
            (
                normalize(from_samples([0.0], [1.0], (64,), vals1)),
                normalize(from_samples([0.0], [1.0], (64,), vals2)),
            )
        )
        fused = P.linear_pool(prof, [0.3, 0.7])
        assert np.all(fused.values[10:20] == 0.0)

    def test_simplex_enforced(self, mirror_pair):
        with pytest.raises(SimplexError):
            P.linear_pool(mirror_pair, [0.6, 0.6])

    def test_generalized_member(self, mirror_pair):
        q0 = gauss_grid(0.0, 4.0)
        fused = P.linear_pool(mirror_pair, [0.25, 0.25], q0=q0, w0=0.5)
        expected = (
            0.25 * mirror_pair.densities[0].values
            + 0.25 * mirror_pair.densities[1].values
            + 0.5 * q0.values
        )
        np.testing.assert_allclose(fused.values, expected, rtol=1e-15)
        assert integrate(fused) == pytest.approx(1.0, abs=1e-9)

    def test_generalized_needs_full_simplex(self, mirror_pair):
        q0 = gauss_grid(0.0, 4.0)
        with pytest.raises(SimplexError):
            P.linear_pool(mirror_pair, [0.5, 0.5], q0=q0, w0=0.5)
        with pytest.raises(ValueError):
            P.linear_pool(mirror_pair, [0.5, 0.5], q0=q0)


class TestLogLinearPool:
    def test_mirror_pair_gives_standard_normal(self, mirror_pair):
        fused = P.log_linear_pool(mirror_pair, [0.5, 0.5])
        mean, cov = moments(fused)
        assert mean[0] == pytest.approx(0.0, abs=1e-9)
        assert cov[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_unanimity(self, mirror_pair):
        q = mirror_pair.densities[1]
        fused = P.log_linear_pool(OpinionProfile((q, q)), [0.4, 0.6])
        np.testing.assert_allclose(fused.values, q.values, rtol=1e-12)

    def test_requires_positive_profile(self):
        vals = np.ones(64)
        vals[0] = 0.0
        d = normalize(from_samples([0.0], [1.0], (64,), vals))
        with pytest.raises(PositivityError):
            P.log_linear_pool(OpinionProfile((d, d)), [0.5, 0.5])

    def test_xi0_reweights(self, mirror_pair):
        x = mirror_pair.grid.axes[0]
        xi0 = np.exp(-0.1 * x)
        fused = P.log_linear_pool(mirror_pair, [0.5, 0.5], xi0=xi0)
        plain = P.log_linear_pool(mirror_pair, [0.5, 0.5])
        ratio = fused.values / (plain.values * xi0)
        assert np.ptp(ratio / ratio[1024]) < 1e-10

    def test_xi0_must_be_positive(self, mirror_pair):
        xi0 = np.ones(2048)
        xi0[5] = 0.0
        with pytest.raises(PositivityError, match="^xi0 must be finite and strictly positive$"):
            P.log_linear_pool(mirror_pair, [0.5, 0.5], xi0=xi0)

    @pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan])
    def test_xi0_must_be_finite_and_positive(self, mirror_pair, bad):
        xi0 = np.ones(2048)
        xi0[5] = bad
        with pytest.raises(PositivityError, match="^xi0 must be finite and strictly positive$"):
            P.log_linear_pool(mirror_pair, [0.5, 0.5], xi0=xi0)


class TestHolderPool:
    def test_alpha_one_equals_linear(self, mirror_pair):
        lin = P.linear_pool(mirror_pair, [0.3, 0.7])
        hol = P.holder_pool(mirror_pair, [0.3, 0.7], 1.0)
        assert np.max(np.abs(lin.values - hol.values)) < 1e-12

    def test_alpha_near_zero_approaches_log_linear(self, mirror_pair):
        hol = P.holder_pool(mirror_pair, [0.5, 0.5], 1e-3)
        ll = P.log_linear_pool(mirror_pair, [0.5, 0.5])
        l1 = float(np.sum(mirror_pair.grid.quad_weights * np.abs(hol.values - ll.values)))
        assert l1 < 1e-2

    def test_alpha_zero_band_rejected(self, mirror_pair):
        with pytest.raises(ValueError):
            P.holder_pool(mirror_pair, [0.5, 0.5], 1e-9)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_nonfinite_alpha_rejected_at_entry(self, mirror_pair, alpha):
        with pytest.raises(ValueError, match="Holder exponent must be finite"):
            P.holder_pool(mirror_pair, [0.5, 0.5], alpha)

    def test_alpha_two_keeps_two_modes(self, mirror_pair):
        fused = P.holder_pool(mirror_pair, [0.5, 0.5], 2.0)
        v = fused.values
        interior = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
        assert int(np.sum(interior)) == 2

    def test_negative_alpha_needs_positive_profile(self):
        vals = np.ones(64)
        vals[0] = 0.0
        d = normalize(from_samples([0.0], [1.0], (64,), vals))
        with pytest.raises(PositivityError):
            P.holder_pool(OpinionProfile((d, d)), [0.5, 0.5], -1.0)

    def test_one_hot_recovers_agent_for_every_alpha(self, mirror_pair):
        q = mirror_pair.densities[1]
        for alpha in (-1.0, 0.5, 1.0, 2.0):
            fused = P.holder_pool(mirror_pair, [0.0, 1.0], alpha)
            assert np.max(np.abs(fused.values - q.values)) < 1e-12

    @pytest.mark.parametrize("one_positive", [False, True], ids=["shared-zeros", "one-positive-member"])
    def test_zeros_match_the_masked_power_mean_bit_for_bit(self, one_positive):
        # where every member vanishes the pool is exactly 0, and elsewhere it is
        # the normalized power mean of the node-by-node reference
        x = np.linspace(0.0, 1.0, 64)
        a, b = 1.0 + x, 2.0 - x
        a[:16] = b[:24] = 0.0
        if one_positive:
            a = 1.0 + x
        prof = OpinionProfile(tuple(normalize(from_samples([0.0], [1.0], (64,), v)) for v in (a, b)))
        w, alpha = np.array([0.3, 0.7]), 2.5
        fused = P.holder_pool(prof, w, alpha)
        assert_is_the_power_mean(fused, prof, w, alpha)
        assert one_positive or np.all(fused.values[:16] == 0.0)

    def test_inverse_linear_is_alpha_minus_one(self, mirror_pair):
        inv = P.inverse_linear_pool(mirror_pair, [0.4, 0.6])
        hol = P.holder_pool(mirror_pair, [0.4, 0.6], -1.0)
        np.testing.assert_array_equal(inv.values, hol.values)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("one_positive", [False, True], ids=["shared-zeros", "one-positive-member"])
    def test_zero_maximum_matches_the_two_path_divisor(self, one_positive, alpha):
        # zeros at both ends, shared by the members or not: the nodes where the
        # maximum is 0 stay exactly 0, the rest match the node-by-node reference
        x = np.linspace(0.0, 1.0, 64)
        a, b = 1.0 + x, 2.0 - x
        a[:16] = b[:24] = 0.0
        a[40:] = b[48:] = 0.0
        if one_positive:
            a = 1.0 + x
        prof = OpinionProfile(tuple(normalize(from_samples([0.0], [1.0], (64,), v)) for v in (a, b)))
        w = np.array([0.3, 0.7])
        m = np.maximum(*(q.values for q in prof.densities))
        fused = P.holder_pool(prof, w, alpha)
        assert_is_the_power_mean(fused, prof, w, alpha)
        assert one_positive or np.all(fused.values[m == 0.0] == 0.0)

    @pytest.mark.parametrize(
        "pool",
        [
            lambda prof: P.holder_pool(prof, [0.5, 0.5], -400.0),
            lambda prof: P.chi_transform_pool(prof, [0.5, 0.5], P.ChiTransform(P.ChiKind.POWER, -400.0)),
        ],
        ids=["holder", "chi-power"],
    )
    def test_power_beyond_float_range_matches_the_reference(self, pool):
        # on the narrow pair N(0, 0.01), N(0.05, 0.01) the members' ratio falls
        # to about exp(-4) at the grid's edge; its -400th power is beyond the
        # float range, but the power mean is not
        prof = OpinionProfile(common_grid(Gaussian([0.0], [[0.01]]), Gaussian([0.05], [[0.01]])))
        fused = pool(prof)
        assert_is_the_power_mean(fused, prof, [0.5, 0.5], -400.0)
        assert moments(fused)[1][0, 0] == pytest.approx(0.008216196286521725, abs=1e-12)

    def test_negative_power_below_overflow_still_pools(self):
        prof = OpinionProfile(common_grid(Gaussian([0.0], [[0.01]]), Gaussian([0.05], [[0.01]])))
        fused = P.holder_pool(prof, [0.5, 0.5], -100.0)
        assert fused.positive and fused.normalized


class TestMultiplicativePool:
    def test_conditionally_independent_fusion(self):
        # two agents observe theta with noise vars 1 and 0.25, prior N(0.3, 2);
        # fused posterior must match the all-data answer N(-1/22, 2/11)
        lo, hi, n = -8.0, 8.0, 2048
        prior = gauss_grid(0.3, 2.0, lo, hi, n)
        x = prior.grid.axes[0]
        po1 = P.bayes_update(prior, np.exp(-0.5 * (1.2 - x) ** 2 / 1.0))
        po2 = P.bayes_update(prior, np.exp(-0.5 * (-0.4 - x) ** 2 / 0.25))
        fused = P.multiplicative_pool(OpinionProfile((po1, po2)), prior)
        mean, cov = moments(fused)
        assert mean[0] == pytest.approx(-1.0 / 22.0, abs=1e-6)
        assert cov[0, 0] == pytest.approx(2.0 / 11.0, abs=1e-6)

    def test_single_agent_unit_weight(self, mirror_pair):
        q0 = gauss_grid(0.0, 4.0)
        single = OpinionProfile((mirror_pair.densities[0],))
        fused = P.multiplicative_pool(single, q0, [1.0])
        np.testing.assert_allclose(fused.values, single.densities[0].values, rtol=1e-10)

    def test_all_agents_equal_calibrator(self):
        q0 = gauss_grid(0.0, 1.0)
        fused = P.multiplicative_pool(OpinionProfile((q0, q0)), q0, [0.7, -0.4])
        np.testing.assert_allclose(fused.values, q0.values, rtol=1e-9)

    def test_large_weighted_log_ratio_is_the_gaussian_product(self):
        lo, hi, n = -35.0, 35.0, 2048
        narrow = gauss_grid(0.0, 1.0, lo, hi, n)
        wide = gauss_grid(0.0, 4.0, lo, hi, n)
        # the weighted log ratio reaches 1.6 * 459 = 734 at the edges, and the
        # pooled precision 3.2 - 2.2 / 4 is positive: a proper product
        fused = P.multiplicative_pool(OpinionProfile((narrow, narrow)), wide, [1.6, 1.6])
        exact = gaussian_power_product(
            [Gaussian([0.0], [[4.0]]), Gaussian([0.0], [[1.0]]), Gaussian([0.0], [[1.0]])], [-2.2, 1.6, 1.6]
        )
        _assert_moments_close(moments(fused), exact)

    def test_grid_mismatch(self, mirror_pair):
        q0 = gauss_grid(0.0, 4.0, n=1024)
        with pytest.raises(GridMismatchError):
            P.multiplicative_pool(mirror_pair, q0)

    @pytest.mark.parametrize("weights", [[1.0], [1.0, 1.0, 1.0], [1.0, np.nan], [np.inf, 1.0]])
    def test_weights_of_the_wrong_length_or_not_finite(self, mirror_pair, weights):
        # any real weights are allowed, but one per agent and finite
        with pytest.raises(SimplexError):
            P.multiplicative_pool(mirror_pair, gauss_grid(0.0, 4.0), weights)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda prof: P.log_linear_pool(prof, [0.7, 0.7]), SimplexError),
        (lambda prof: P.holder_pool(prof, [0.7, 0.7], -1.0), SimplexError),
        (lambda prof: P.multiplicative_pool(prof, gauss_grid(0.0, 4.0, n=1024)), GridMismatchError),
    ],
    ids=["log-linear", "holder", "multiplicative"],
)
def test_positivity_is_checked_after_the_other_inputs(call, error):
    # the power-mean kernel owns the positivity rule, so a second fault is named first
    vals = np.ones(64)
    vals[0] = 0.0
    d = normalize(from_samples([0.0], [1.0], (64,), vals))
    with pytest.raises(error):
        call(OpinionProfile((d, d)))


class TestTrivialPools:
    def test_dictatorship_returns_chosen_agent(self, mirror_pair):
        for k in (2, 2.0, np.int64(2)):
            assert P.dictatorship_pool(mirror_pair, k) is mirror_pair.densities[1]
        with pytest.raises(IndexError):
            P.dictatorship_pool(mirror_pair, 3)
        with pytest.raises(IndexError):
            P.dictatorship_pool(mirror_pair, 0)
        # a fractional index is refused, not truncated to an agent
        for k in (1.9, 2.5, float("nan")):
            with pytest.raises(ValueError, match="^dictator index must be a whole number"):
                P.dictatorship_pool(mirror_pair, k)
            with pytest.raises(ValueError, match="^dictator index must be a whole number"):
                spec = P.PoolingSpec(P.PoolingKind.DICTATORSHIP, dictator=k)
                P.pool(spec, mirror_pair)

    def test_dogmatic_ignores_profile(self, mirror_pair):
        q0 = gauss_grid(1.0, 2.0)
        assert P.dogmatic_pool(mirror_pair, q0) is q0


class TestBayesUpdate:
    def test_constant_likelihood_is_identity(self, mirror_pair):
        q = mirror_pair.densities[0]
        updated = P.bayes_update(q, np.full(2048, 5.0))
        np.testing.assert_allclose(updated.values, q.values, rtol=1e-12)

    def test_conjugate_gaussian_update(self):
        prior = gauss_grid(0.0, 1.0, -8.0, 8.0)
        x = prior.grid.axes[0]
        updated = P.bayes_update(prior, np.exp(-0.5 * (x - 1.0) ** 2))
        mean, cov = moments(updated)
        assert mean[0] == pytest.approx(0.5, abs=1e-4)
        assert cov[0, 0] == pytest.approx(0.5, abs=1e-4)

    def test_step_likelihood_reweights_masses(self):
        d = normalize(from_samples([0.0], [1.0], (129,), np.ones(129)))
        ell = np.where(d.grid.axes[0] < 0.5, 1.0, 2.0)
        updated = P.bayes_update(d, ell)
        from pdffusion.grid import event_probability

        left = np.zeros(128, dtype=bool)
        left[:64] = True
        pl = event_probability(updated, left)
        pr = event_probability(updated, ~left)
        # masses 0.5 and 1.0 up to the node straddling the step
        assert pr / pl == pytest.approx(2.0, abs=0.05)

    def test_vanishing_overlap_rejected(self):
        d = normalize(from_samples([0.0], [1.0], (64,), np.ones(64)))
        with pytest.raises(DegenerateError):
            P.bayes_update(d, np.zeros(64))


def zeros_pair():
    """Two 64-node members with zeros, shared on the first 16 nodes and one member's on 8 more."""
    x = np.linspace(0.0, 1.0, 64)
    a, b = 1.0 + x, 2.0 - x
    a[:16] = b[:24] = 0.0
    return OpinionProfile(tuple(normalize(from_samples([0.0], [1.0], (64,), v)) for v in (a, b)))


class TestChiTransformPool:
    @staticmethod
    def assert_reproduces(profile, w, chi, want):
        """Both ways to pool by ``chi`` give ``want``'s values bit for bit."""
        np.testing.assert_array_equal(P.chi_transform_pool(profile, w, chi).values, want.values)
        spec = P.PoolingSpec(P.PoolingKind.CHI_TRANSFORM, weights=w, chi=chi)
        np.testing.assert_array_equal(P.pool(spec, profile).values, want.values)

    def test_identity_matches_linear(self, mirror_pair):
        chi = P.ChiTransform(P.ChiKind.IDENTITY)
        for prof in (mirror_pair, zeros_pair()):
            self.assert_reproduces(prof, [0.3, 0.7], chi, normalize(P.linear_pool(prof, [0.3, 0.7])))

    def test_log_matches_log_linear(self, mirror_pair):
        chi = P.ChiTransform(P.ChiKind.LOG)
        self.assert_reproduces(mirror_pair, [0.5, 0.5], chi, P.log_linear_pool(mirror_pair, [0.5, 0.5]))

    def test_reciprocal_matches_inverse_linear(self, mirror_pair):
        chi = P.ChiTransform(P.ChiKind.RECIPROCAL)
        self.assert_reproduces(mirror_pair, [0.4, 0.6], chi, P.inverse_linear_pool(mirror_pair, [0.4, 0.6]))

    def test_power_matches_holder(self, mirror_pair):
        for alpha in (2.0, 0.5, -0.5):
            chi = P.ChiTransform(P.ChiKind.POWER, alpha)
            for prof in (mirror_pair, zeros_pair()) if alpha > 0.0 else (mirror_pair,):
                self.assert_reproduces(prof, [0.5, 0.5], chi, P.holder_pool(prof, [0.5, 0.5], alpha))

    @pytest.mark.parametrize(
        "chi, reproduced",
        [
            (P.ChiTransform(P.ChiKind.IDENTITY), lambda prof, w: normalize(P.linear_pool(prof, w))),
            (P.ChiTransform(P.ChiKind.LOG), P.log_linear_pool),
            (P.ChiTransform(P.ChiKind.RECIPROCAL), P.inverse_linear_pool),
            (P.ChiTransform(P.ChiKind.POWER, -0.5), lambda prof, w: P.holder_pool(prof, w, -0.5)),
        ],
        ids=["identity", "log", "reciprocal", "power-"],
    )
    def test_refuses_as_the_pool_it_reproduces(self, mirror_pair, chi, reproduced):
        def outcome(fn, prof, w):
            try:
                return fn(prof, w).values.tobytes()
            except FusionError as exc:
                return type(exc), str(exc)

        # off the simplex, of the wrong length, not finite; and zeros, which only a positive exponent pools
        cases = [(mirror_pair, [0.7, 0.7]), (mirror_pair, [0.5]), (mirror_pair, [0.5, np.nan]), (zeros_pair(), [0.5, 0.5])]
        for prof, w in cases:
            assert outcome(lambda p, v: P.chi_transform_pool(p, v, chi), prof, w) == outcome(reproduced, prof, w)
        # weights are a field the reproduced pool's spec requires
        pool_name = {"identity": "linear", "log": "log-linear", "reciprocal": "inverse-linear", "power": "holder"}
        with pytest.raises(ValueError, match=f"^{pool_name[chi.kind.value]} pooling requires weights$"):
            P.chi_transform_pool(mirror_pair, None, chi)

    CHIS = [
        (P.ChiKind.IDENTITY, None, 1.0),
        (P.ChiKind.LOG, None, 0.0),
        (P.ChiKind.RECIPROCAL, None, -1.0),
        (P.ChiKind.POWER, 2.5, 2.5),
        (P.ChiKind.POWER, -0.5, -0.5),
    ]
    CHI_IDS = ["identity", "log", "reciprocal", "power+", "power-"]

    @pytest.mark.parametrize("kind, alpha, exponent", CHIS, ids=CHI_IDS)
    def test_needs_positive_follows_the_kind_rule(self, kind, alpha, exponent):
        chi = P.ChiTransform(kind, alpha)
        rule = kind in (P.ChiKind.LOG, P.ChiKind.RECIPROCAL) or (kind is P.ChiKind.POWER and alpha < 0)
        assert chi.needs_positive is rule

    @pytest.mark.parametrize("kind, alpha, exponent", CHIS, ids=CHI_IDS)
    def test_exponent_per_kind(self, kind, alpha, exponent):
        chi = P.ChiTransform(kind, alpha)
        assert chi.exponent == exponent
        assert chi.needs_positive is (exponent <= 0.0)

    @pytest.mark.parametrize("kind, alpha, exponent", CHIS, ids=CHI_IDS)
    def test_call_matches_the_kind_expressions_bit_for_bit(self, kind, alpha, exponent):
        rng = np.random.default_rng(5)
        values = np.concatenate(
            [rng.uniform(0.0, 3.0, 500), [5e-324, 2.2e-308, 1e-300, 1e-30, 1.0, 1e30, 1e300, 1.7e308]]
        )
        want = {
            P.ChiKind.IDENTITY: lambda v: v,
            P.ChiKind.LOG: np.log,
            P.ChiKind.RECIPROCAL: lambda v: 1.0 / v,
            P.ChiKind.POWER: lambda v: v**alpha,
        }[kind]
        with np.errstate(over="ignore", divide="ignore"):
            got = P.ChiTransform(kind, alpha)(values)
            np.testing.assert_array_equal(got, want(values))
        assert got is not values

    @pytest.mark.parametrize("kind, alpha, exponent", CHIS, ids=CHI_IDS)
    def test_pool_is_its_family_member_bit_for_bit(self, mirror_pair, kind, alpha, exponent):
        w = [0.3, 0.7]
        want = {
            P.ChiKind.IDENTITY: lambda: normalize(P.linear_pool(mirror_pair, w)),
            P.ChiKind.LOG: lambda: P.log_linear_pool(mirror_pair, w),
            P.ChiKind.RECIPROCAL: lambda: P.inverse_linear_pool(mirror_pair, w),
            P.ChiKind.POWER: lambda: P.holder_pool(mirror_pair, w, alpha),
        }[kind]()
        got = P.chi_transform_pool(mirror_pair, w, P.ChiTransform(kind, alpha))
        np.testing.assert_array_equal(got.values, want.values)

    def test_power_needs_alpha(self):
        with pytest.raises(ValueError, match="^Power transform requires alpha$"):
            P.ChiTransform(P.ChiKind.POWER)
        with pytest.raises(ValueError):
            P.ChiTransform(P.ChiKind.LOG, 2.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_power_alpha_must_be_finite(self, alpha):
        with pytest.raises(ValueError, match="Power transform alpha must be finite"):
            P.ChiTransform(P.ChiKind.POWER, alpha)


class TestPoolingInvariants:
    KINDS = [
        ("linear", lambda prof, w: P.linear_pool(prof, w)),
        ("log-linear", lambda prof, w: P.log_linear_pool(prof, w)),
        ("holder-2", lambda prof, w: P.holder_pool(prof, w, 2.0)),
        ("holder--1", lambda prof, w: P.holder_pool(prof, w, -1.0)),
    ]

    def test_outputs_normalized(self, mirror_pair):
        for _, fn in self.KINDS:
            fused = fn(mirror_pair, [0.3, 0.7])
            assert integrate(fused) == pytest.approx(1.0, abs=1e-8)

    def test_permutation_covariance(self):
        rng = np.random.default_rng(42)
        prof = OpinionProfile(
            (gauss_grid(-2.0, 1.0), gauss_grid(0.5, 0.7), gauss_grid(2.0, 1.4))
        )
        for _, fn in self.KINDS:
            w = rng.dirichlet(np.ones(3))
            base = fn(prof, w)
            order = [2, 0, 1]
            permuted = fn(prof.permuted(order), w[order])
            assert np.max(np.abs(base.values - permuted.values)) < 1e-12


def _grid2(mu, cov, n=65):
    return to_grid(Gaussian(mu, cov), [-7.0, -7.0], [7.0, 7.0], (n, n))


@pytest.fixture(scope="module", params=[1, 2], ids=["1d", "2d"])
def profile_and_q0(request):
    """Three positive agents and a calibrating q0 on one grid."""
    if request.param == 1:
        members = (gauss_grid(-1.0, 1.0), gauss_grid(0.5, 2.0), gauss_grid(1.5, 0.7))
        return OpinionProfile(members), gauss_grid(0.0, 3.0)
    members = (
        _grid2([-1.0, 0.5], [[1.0, 0.3], [0.3, 1.5]]),
        _grid2([0.5, -0.5], [[2.0, -0.4], [-0.4, 1.0]]),
        _grid2([0.0, 1.0], [[1.2, 0.0], [0.0, 0.8]]),
    )
    return OpinionProfile(members), _grid2([0.0, 0.0], [[3.0, 0.5], [0.5, 3.0]])


class TestNoAliasing:
    """The kernels work in place in the profile's fresh stack and in their own
    output; none of it may reach a member, ``q0`` or a later call."""

    RULES = {
        "linear": lambda prof, q0: P.linear_pool(prof, [0.2, 0.5, 0.3]),
        "generalized-linear": lambda prof, q0: P.linear_pool(prof, [0.1, 0.3, 0.2], q0=q0, w0=0.4),
        "log-linear": lambda prof, q0: P.log_linear_pool(prof, [0.2, 0.5, 0.3]),
        "generalized-log-linear": lambda prof, q0: P.log_linear_pool(
            prof, [0.2, 0.5, 0.3], xi0=q0.values
        ),
        "holder-2": lambda prof, q0: P.holder_pool(prof, [0.2, 0.5, 0.3], 2.0),
        "holder--0.5": lambda prof, q0: P.holder_pool(prof, [0.2, 0.5, 0.3], -0.5),
        "multiplicative": lambda prof, q0: P.multiplicative_pool(prof, q0),
        "generalized-multiplicative": lambda prof, q0: P.multiplicative_pool(
            prof, q0, [0.5, -0.3, 1.2]
        ),
        "chi-sqrt": lambda prof, q0: P.chi_transform_pool(
            prof, [0.2, 0.5, 0.3], P.ChiTransform(P.ChiKind.POWER, 0.5)
        ),
        "bayes-update": lambda prof, q0: P.bayes_update(prof.densities[0], q0.values),
    }

    @pytest.mark.parametrize("rule", list(RULES))
    def test_pooling_leaves_inputs_alone(self, profile_and_q0, rule):
        prof, q0 = profile_and_q0
        inputs = [q.values for q in prof.densities] + [q0.values]
        before = [v.copy() for v in inputs]
        first = self.RULES[rule](prof, q0)
        second = self.RULES[rule](prof, q0)
        assert first.values.tobytes() == second.values.tobytes()
        for v, b in zip(inputs, before):
            assert v.tobytes() == b.tobytes()
            assert not np.shares_memory(first.values, v)
        assert not first.values.flags.writeable
        assert first.values.base is None
        assert not np.shares_memory(first.values, second.values)

    def test_profile_values_is_a_fresh_writable_stack(self, profile_and_q0):
        prof, _ = profile_and_q0
        stack = prof.values
        assert stack.flags.writeable
        assert not np.shares_memory(stack, prof.values)
        for q in prof.densities:
            assert not np.shares_memory(stack, q.values)


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


class TestInPlaceNormalization:
    """The kernels divide their own fresh array in place to normalize it
    (``grid.adopt_normalized``); ``normalize`` divides into a copy. Neither
    may change an input, and every result is read-only and owns its values."""

    SPECS = {
        P.PoolingKind.LINEAR: dict(weights=[0.2, 0.5, 0.3]),
        P.PoolingKind.GENERALIZED_LINEAR: dict(weights=[0.1, 0.3, 0.2], q0=True, w0=0.4),
        P.PoolingKind.LOG_LINEAR: dict(weights=[0.2, 0.5, 0.3]),
        P.PoolingKind.GENERALIZED_LOG_LINEAR: dict(weights=[0.2, 0.5, 0.3], xi0=True),
        P.PoolingKind.HOLDER: dict(weights=[0.2, 0.5, 0.3], alpha=3.0),
        P.PoolingKind.INVERSE_LINEAR: dict(weights=[0.2, 0.5, 0.3]),
        P.PoolingKind.MULTIPLICATIVE: dict(q0=True),
        P.PoolingKind.GENERALIZED_MULTIPLICATIVE: dict(weights=[0.5, -0.3, 1.2], q0=True),
        P.PoolingKind.DICTATORSHIP: dict(dictator=2),
        P.PoolingKind.DOGMATIC: dict(q0=True),
        P.PoolingKind.CHI_TRANSFORM: dict(weights=[0.2, 0.5, 0.3], chi=P.ChiTransform(P.ChiKind.RECIPROCAL)),
    }
    DIVERGENCES = {
        D.DivergenceKind.KL: {},
        D.DivergenceKind.REVERSE_KL: {},
        D.DivergenceKind.ALPHA: dict(alpha=0.3),
        D.DivergenceKind.REVERSE_ALPHA: dict(alpha=2.0),
        D.DivergenceKind.PEARSON_CHI2: {},
        D.DivergenceKind.L2: {},
        D.DivergenceKind.CHI_DISTANCE: dict(chi=P.ChiTransform(P.ChiKind.LOG)),
    }

    @staticmethod
    def digests(prof, q0):
        return [_digest(q.values) for q in prof.densities] + [_digest(q0.values)]

    @staticmethod
    def assert_frozen_and_owned(d):
        assert not d.values.flags.writeable
        assert d.values.base is None and d.values.flags.owndata

    def test_every_pooling_kind_leaves_inputs_alone(self, profile_and_q0):
        prof, q0 = profile_and_q0
        before = self.digests(prof, q0)
        assert set(self.SPECS) == set(P.PoolingKind)
        for kind, fields in self.SPECS.items():
            fields = dict(fields)
            if "q0" in fields:
                fields["q0"] = q0
            if "xi0" in fields:
                fields["xi0"] = q0.values
            fused = P.pool(P.PoolingSpec(kind, **fields), prof)
            assert self.digests(prof, q0) == before, kind
            self.assert_frozen_and_owned(fused)

    def test_every_divergence_leaves_inputs_alone(self, profile_and_q0):
        prof, q0 = profile_and_q0
        before = self.digests(prof, q0)
        p, q = prof.densities[:2]
        assert set(self.DIVERGENCES) == set(D.DivergenceKind)
        for kind, fields in self.DIVERGENCES.items():
            D.evaluate(D.DivergenceSpec(kind, **fields), p, q)
            assert self.digests(prof, q0) == before, kind
        D.cross_entropy(p, q0)
        D.entropy(q0)
        assert self.digests(prof, q0) == before

    def test_normalize_divides_into_a_copy(self, profile_and_q0):
        _, q0 = profile_and_q0
        raw = GridDensity(q0.grid, q0.values * 3.0)
        before = _digest(raw.values)
        scaled = normalize(raw)
        assert _digest(raw.values) == before
        assert not np.shares_memory(scaled.values, raw.values)
        self.assert_frozen_and_owned(scaled)
        np.testing.assert_array_equal(scaled.values, raw.values / integrate(raw))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_gaussian_off_the_grid_is_all_zero(self, dim):
        far = Gaussian(np.full(dim, 100.0), np.eye(dim))
        with pytest.raises(ValueError, match="^density values are all zero$"):
            to_grid(far, [-8.0] * dim, [8.0] * dim, (32,) * dim)

    def test_sub_epsilon_power_mean_normalizes(self):
        # the harmonic mean of two far-apart agents integrates to about 3e-17;
        # shifted by its maximum in logs it normalizes like any other pool
        prof = OpinionProfile(
            (gauss_grid(-6.0, 0.5, -12.0, 12.0, 512), gauss_grid(6.0, 0.5, -12.0, 12.0, 512))
        )
        fused = P.inverse_linear_pool(prof, [0.5, 0.5])
        assert_is_the_power_mean(fused, prof, [0.5, 0.5], -1.0)


class TestDispatcher:
    def test_dispatch_matches_direct_calls(self, mirror_pair):
        q0 = gauss_grid(0.0, 4.0)
        cases = [
            (
                P.PoolingSpec(P.PoolingKind.LINEAR, weights=np.array([0.4, 0.6])),
                P.linear_pool(mirror_pair, [0.4, 0.6]),
            ),
            (
                P.PoolingSpec(
                    P.PoolingKind.GENERALIZED_LINEAR,
                    weights=np.array([0.25, 0.25]),
                    q0=q0,
                    w0=0.5,
                ),
                P.linear_pool(mirror_pair, [0.25, 0.25], q0=q0, w0=0.5),
            ),
            (
                P.PoolingSpec(P.PoolingKind.HOLDER, weights=np.array([0.5, 0.5]), alpha=2.0),
                P.holder_pool(mirror_pair, [0.5, 0.5], 2.0),
            ),
            (
                P.PoolingSpec(P.PoolingKind.DICTATORSHIP, dictator=1),
                mirror_pair.densities[0],
            ),
            (
                P.PoolingSpec(P.PoolingKind.DOGMATIC, q0=q0),
                q0,
            ),
        ]
        for spec, expected in cases:
            got = P.pool(spec, mirror_pair)
            np.testing.assert_array_equal(got.values, expected.values)


# the optional PoolingSpec fields each kind reads, written out independently of the dispatch table
_READS = {
    P.PoolingKind.LINEAR: {"weights"},
    P.PoolingKind.GENERALIZED_LINEAR: {"weights", "q0", "w0"},
    P.PoolingKind.LOG_LINEAR: {"weights"},
    P.PoolingKind.GENERALIZED_LOG_LINEAR: {"weights", "xi0"},
    P.PoolingKind.HOLDER: {"weights", "alpha"},
    P.PoolingKind.INVERSE_LINEAR: {"weights"},
    P.PoolingKind.MULTIPLICATIVE: {"q0"},
    P.PoolingKind.GENERALIZED_MULTIPLICATIVE: {"weights", "q0"},
    P.PoolingKind.DICTATORSHIP: {"dictator"},
    P.PoolingKind.DOGMATIC: {"q0"},
    P.PoolingKind.CHI_TRANSFORM: {"weights", "chi"},
}


# the exponent of each kind's power mean, written out independently of the dispatch table;
# Holder's and the transform's come from the spec (alpha -0.5, chi power 3 below)
_EXPONENTS = {
    P.PoolingKind.LINEAR: 1.0,
    P.PoolingKind.GENERALIZED_LINEAR: 1.0,
    P.PoolingKind.LOG_LINEAR: 0.0,
    P.PoolingKind.GENERALIZED_LOG_LINEAR: 0.0,
    P.PoolingKind.HOLDER: -0.5,
    P.PoolingKind.INVERSE_LINEAR: -1.0,
    P.PoolingKind.MULTIPLICATIVE: 0.0,
    P.PoolingKind.GENERALIZED_MULTIPLICATIVE: 0.0,
    P.PoolingKind.DICTATORSHIP: None,
    P.PoolingKind.DOGMATIC: None,
    P.PoolingKind.CHI_TRANSFORM: 3.0,
}


class TestSpecValidation:
    @pytest.mark.parametrize("kind", list(P.PoolingKind), ids=lambda k: k.value)
    def test_exponent_per_kind(self, kind):
        chi = P.ChiTransform(P.ChiKind.POWER, 3.0)
        given = {"weights": [0.5, 0.5], "alpha": -0.5, "w0": 0.5, "dictator": 1, "chi": chi}
        spec = P.PoolingSpec(kind, **{f: v for f, v in given.items() if f in _READS[kind]})
        assert spec.exponent == _EXPONENTS[kind]
        assert spec.needs_positive is (spec.exponent is not None and spec.exponent <= 0.0)

    def test_companions_are_optional_until_pool(self, mirror_pair):
        spec = P.PoolingSpec(P.PoolingKind.DOGMATIC)
        with pytest.raises(ValueError, match="^dogmatic pooling requires q0$"):
            P.pool(spec, mirror_pair)

    def test_fields_are_normalized_once(self):
        holder = P.PoolingSpec(P.PoolingKind.HOLDER, weights=[1, 0], alpha=np.int64(2))
        assert holder.weights.dtype == np.float64 and not holder.weights.flags.writeable
        assert type(holder.alpha) is float and holder.alpha == 2.0
        assert type(P.PoolingSpec(P.PoolingKind.DICTATORSHIP, dictator=2.0).dictator) is int

    @pytest.mark.parametrize("alpha", [np.nan, 1e-9])
    def test_holder_alpha_refused_at_construction(self, alpha):
        with pytest.raises(ValueError, match="^Holder exponent must be finite|^Holder exponent too close to 0"):
            P.PoolingSpec(P.PoolingKind.HOLDER, weights=[0.5, 0.5], alpha=alpha)


class TestExactFields:
    @pytest.fixture(scope="class")
    def field_values(self):
        return {
            "weights": np.array([0.5, 0.5]),
            "alpha": 2.0,
            "q0": gauss_grid(0.0, 4.0),
            "w0": 0.0,
            "xi0": np.ones(2048),
            "dictator": 1,
            "chi": P.ChiTransform(P.ChiKind.LOG),
        }

    def test_every_kind_listed(self):
        assert set(_READS) == set(P.PoolingKind)
        for kind, reads in _READS.items():
            assert set(P.fields_read(kind)) == reads

    @pytest.mark.parametrize("kind", list(P.PoolingKind), ids=lambda k: k.value)
    def test_spec_must_set_exactly_the_fields_read(self, kind, field_values, mirror_pair):
        reads = _READS[kind]
        full = {name: field_values[name] for name in reads}
        # the complete spec pools; it must not trip the field check
        P.pool(P.PoolingSpec(kind, **full), mirror_pair)
        for name in reads:
            with pytest.raises(ValueError, match=f"^{kind.value} pooling requires {name}$"):
                spec = P.PoolingSpec(kind, **{**full, name: None})
                P.pool(spec, mirror_pair)
        for name in set(field_values) - reads:
            with pytest.raises(ValueError, match=f"^{kind.value} pooling does not take {name}$"):
                spec = P.PoolingSpec(kind, **full, **{name: field_values[name]})
                P.pool(spec, mirror_pair)


def _drawn_profile(data, dim):
    """Two or three drawn Gaussians, weights on the simplex, and the agents on
    their shared grid, assumed free of zeros: a zero there is the underflow of
    ROADMAP items 3 and 11, not the pool's error."""
    agents = data.draw(st.lists(gaussians(dim), min_size=2, max_size=3))
    raw = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=len(agents), max_size=len(agents))))
    profile = OpinionProfile(common_grid(*agents))
    assume(profile.positive)
    return agents, raw / raw.sum(), profile


def _assume_resolved(grid, pooled):
    """Keep draws whose pooled Gaussian spans at least 2.5 nodes per standard
    deviation on each axis and whose +-8 sigma box lies inside the grid."""
    assume(pooled is not None)
    mean, cov = pooled
    sd = np.sqrt(np.diag(cov))
    lower, upper = np.array(grid.lower), np.array(grid.upper)
    assume(np.all(sd >= 2.5 * (upper - lower) / (np.array(grid.shape) - 1)))
    assume(np.all(mean - 8.0 * sd >= lower) and np.all(mean + 8.0 * sd <= upper))


def _assert_moments_close(got, exact):
    for value, want in zip(got, exact):
        assert np.all(np.abs(value - want) <= np.maximum(1e-8 * np.abs(want), 1e-10)), (value, want)


@pytest.mark.parametrize("dim", [1, 2])
class TestGaussianClosedForms:
    """Pools of Gaussians on their shared grid against the closed-form pool."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_linear_pool_has_the_mixture_moments(self, dim, data):
        agents, w, profile = _drawn_profile(data, dim)
        _assert_moments_close(moments(P.linear_pool(profile, w)), mixture_moments(agents, w))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_log_linear_pool_is_precision_averaging(self, dim, data):
        agents, w, profile = _drawn_profile(data, dim)
        pooled = gaussian_power_product(agents, w)
        _assume_resolved(profile.grid, pooled)
        _assert_moments_close(moments(P.log_linear_pool(profile, w)), pooled)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_multiplicative_pool_is_the_gaussian_product(self, dim, data):
        agents, _, profile = _drawn_profile(data, dim)
        w = np.array(data.draw(st.lists(st.floats(0.2, 1.2), min_size=profile.K, max_size=profile.K)))
        q0 = data.draw(gaussians(dim, sigma=(3.0, 5.0)))
        # q0 sampled on the agents' grid: its truncated mass is a constant
        # factor, which the pool's normalization removes
        _, q0_grid = common_grid(profile.densities[0], q0)
        pooled = gaussian_power_product([q0, *agents], [1.0 - w.sum(), *w])
        _assume_resolved(profile.grid, pooled)
        _assert_moments_close(moments(P.multiplicative_pool(profile, q0_grid, w)), pooled)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_holder_at_one_is_the_normalized_linear_pool(self, dim, data):
        _, w, profile = _drawn_profile(data, dim)
        want = normalize(P.linear_pool(profile, w)).values
        np.testing.assert_allclose(P.holder_pool(profile, w, 1.0).values, want, rtol=1e-8, atol=0.0)


def _spread(values: np.ndarray) -> float:
    return float(np.max(values) - np.min(values))


@pytest.mark.parametrize("dim", [1, 2])
class TestStationarity:
    """The paper's optimization characterizations: at the pool g, the derivative in g
    of its matched objective is constant on the grid. These objectives are convex in
    g, so there the pool is their minimum over densities on the grid."""

    @pytest.fixture
    def drawn(self, dim):
        """Three seeded Gaussians on [-6, 6]^dim (257 nodes, or 65 per axis) and weights."""
        rng = np.random.default_rng(29)
        agents = [
            gaussian(rng.uniform(-1.0, 1.0, dim), rng.uniform(0.7, 1.4, dim), rng.uniform(-0.5, 0.5))
            for _ in range(3)
        ]
        shape = (257,) if dim == 1 else (65, 65)
        prof = OpinionProfile(tuple(to_grid(g, [-6.0] * dim, [6.0] * dim, shape) for g in agents))
        assert prof.positive
        return prof, rng.dirichlet(np.ones(3))

    def test_linear_pool_under_kl_from_the_agents(self, drawn):
        # sum_k w_k KL(q_k || g) has derivative -sum_k w_k q_k / g
        prof, w = drawn
        g = P.linear_pool(prof, w).values
        ratio = sum(wk * q.values / g for wk, q in zip(w, prof.densities))
        assert _spread(ratio) / np.mean(ratio) <= 1e-12

    def test_log_linear_pool_under_kl_to_the_agents(self, drawn):
        # sum_k w_k KL(g || q_k) has derivative log g - sum_k w_k log q_k + 1
        prof, w = drawn
        g = P.log_linear_pool(prof, w).values
        gap = np.log(g) - sum(wk * np.log(q.values) for wk, q in zip(w, prof.densities))
        assert _spread(gap) <= 1e-12

    @pytest.mark.parametrize("alpha", [-1.0, 0.5, 2.0, 3.0])
    def test_holder_pool_under_its_alpha_divergence(self, drawn, alpha):
        # sum_k w_k D_alpha(q_k || g) has derivative proportional to sum_k w_k (q_k / g)^alpha
        prof, w = drawn
        g = P.holder_pool(prof, w, alpha).values
        terms = sum(wk * (q.values / g) ** alpha for wk, q in zip(w, prof.densities))
        assert _spread(terms) / np.mean(terms) <= 1e-12


# the two KL characterizations: pool -> the divergence whose weighted sum over the agents it minimizes
_KL_OBJECTIVES = {
    "linear": (P.linear_pool, lambda q, g: D.kl(q, g)),  # sum_k w_k KL(q_k || g)
    "log-linear": (P.log_linear_pool, lambda q, g: D.kl(g, q)),  # sum_k w_k KL(g || q_k)
}


def _assert_no_step_lowers(rule, prof, w, h):
    """Moving the pool g to (1 - t) g + t h lowers its matched objective by at most 1e-12."""
    pool, divergence = _KL_OBJECTIVES[rule]
    g = pool(prof, w)

    def objective(d):
        return sum(wk * divergence(q, d) for wk, q in zip(w, prof.densities))

    at_pool = objective(g)
    for t in (1e-3, 0.1, 0.5, 0.9):
        moved = GridDensity(prof.grid, (1.0 - t) * g.values + t * h.values)
        assert objective(moved) >= at_pool - 1e-12, t


@pytest.mark.parametrize("rule", list(_KL_OBJECTIVES))
class TestKlCharacterizations:
    """The linear pool minimizes sum_k w_k KL(q_k || g) over densities g, the log-linear
    pool sum_k w_k KL(g || q_k): no step from the pool toward another density lowers it."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_1d_profiles(self, rule, data):
        def drawn():
            mean, sd = data.draw(st.floats(-2.0, 2.0)), data.draw(st.floats(0.7, 2.0))
            return to_grid(gaussian([mean], [sd]), [-10.0], [10.0], (512,))

        K = data.draw(st.integers(2, 4))
        prof = OpinionProfile(tuple(drawn() for _ in range(K)))
        raw = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=K, max_size=K)))
        w = 0.05 + (1.0 - 0.05 * K) * raw / raw.sum()  # every weight at least 0.05
        _assert_no_step_lowers(rule, prof, w, drawn())

    def test_seeded_2d_profile(self, rule):
        rng = np.random.default_rng(31)

        def drawn():
            g = gaussian(rng.uniform(-2.0, 2.0, 2), rng.uniform(0.7, 2.0, 2), rng.uniform(-0.5, 0.5))
            return to_grid(g, [-10.0] * 2, [10.0] * 2, (65, 65))

        prof = OpinionProfile(tuple(drawn() for _ in range(3)))
        _assert_no_step_lowers(rule, prof, rng.dirichlet(np.ones(3)), drawn())


def test_proper_product_with_a_large_log_ratio():
    # the weighted log ratio reaches -756 in the narrow agent's far tail, and
    # the product N(-81/89, 18/89) is proper
    agents = [Gaussian([-1.0], [[0.25]]), Gaussian([1.0], [[4.0]])]
    q0 = Gaussian([0.0], [[9.0]])
    profile = OpinionProfile(common_grid(*agents))
    _, q0_grid = common_grid(profile.densities[0], q0)
    w = np.array([1.2, 1.2])
    pooled = gaussian_power_product([q0, *agents], [1.0 - w.sum(), *w])
    mean, cov = moments(P.multiplicative_pool(profile, q0_grid, w))
    _assert_moments_close((mean, cov), pooled)
    assert abs(mean[0] + 81.0 / 89.0) <= 1e-9 and abs(cov[0, 0] - 18.0 / 89.0) <= 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: an improper multiplicative product is not detected; the grid "
    "truncates it to a density of variance about 80",
)
def test_improper_product_raises():
    agents = [Gaussian([-1.0], [[1.0]]), Gaussian([1.0], [[1.0]])]
    q0 = Gaussian([0.0], [[0.25]])
    profile = OpinionProfile(common_grid(*agents))
    _, q0_grid = common_grid(profile.densities[0], q0)
    # the pooled precision 1 + 1 - 4 is negative: no density exists
    assert gaussian_power_product([q0, *agents], [-1.0, 1.0, 1.0]) is None
    with pytest.raises(BoundednessError):
        P.multiplicative_pool(profile, q0_grid)


@pytest.mark.xfail(
    raises=PositivityError,
    strict=True,
    reason="ROADMAP item 3: N(0, 0.01) underflows to zero on the shared grid, so the profile "
    "is not positive",
)
def test_log_linear_pool_of_a_narrow_pair_is_covariance_intersection():
    profile = OpinionProfile(common_grid(Gaussian([0.0], [[0.01]]), Gaussian([3.0], [[1.0]])))
    mean, cov = moments(P.log_linear_pool(profile, [0.5, 0.5]))
    # pooled precision 0.5 / 0.01 + 0.5 / 1 = 50.5
    assert abs(mean[0] - 1.5 / 50.5) <= 1e-9
    assert abs(cov[0, 0] - 1.0 / 50.5) <= 1e-9
