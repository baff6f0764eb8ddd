from __future__ import annotations

import numpy as np
import pytest

from pdffusion import pooling as P
from pdffusion.errors import (
    BoundednessError,
    GridMismatchError,
    PositivityError,
    SimplexError,
)
from pdffusion.gaussian import Gaussian, to_grid
from pdffusion.grid import (
    GridDensity,
    OpinionProfile,
    from_samples,
    integrate,
    moments,
    normalize,
)


def gauss_grid(mu, var, lower=-10.5, upper=10.5, n=2048):
    return to_grid(Gaussian([mu], [[var]]), [lower], [upper], (n,))


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
        with pytest.raises(PositivityError):
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

    def test_inverse_linear_is_alpha_minus_one(self, mirror_pair):
        inv = P.inverse_linear_pool(mirror_pair, [0.4, 0.6])
        hol = P.holder_pool(mirror_pair, [0.4, 0.6], -1.0)
        np.testing.assert_array_equal(inv.values, hol.values)


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

    def test_unbounded_ratio_rejected(self):
        lo, hi, n = -35.0, 35.0, 2048
        narrow = gauss_grid(0.0, 1.0, lo, hi, n)
        wide = gauss_grid(0.0, 4.0, lo, hi, n)
        # weighted log ratio peaks near 1.6 * 459 = 734 at the edges
        with pytest.raises(BoundednessError):
            P.multiplicative_pool(OpinionProfile((narrow, narrow)), wide, [1.6, 1.6])

    def test_grid_mismatch(self, mirror_pair):
        q0 = gauss_grid(0.0, 4.0, n=1024)
        with pytest.raises(GridMismatchError):
            P.multiplicative_pool(mirror_pair, q0)


class TestTrivialPools:
    def test_dictatorship_returns_chosen_agent(self, mirror_pair):
        assert P.dictatorship_pool(mirror_pair, 2) is mirror_pair.densities[1]
        with pytest.raises(IndexError):
            P.dictatorship_pool(mirror_pair, 3)
        with pytest.raises(IndexError):
            P.dictatorship_pool(mirror_pair, 0)

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
        from pdffusion.errors import DegenerateError

        d = normalize(from_samples([0.0], [1.0], (64,), np.ones(64)))
        with pytest.raises(DegenerateError):
            P.bayes_update(d, np.zeros(64))


class TestChiTransformPool:
    def test_identity_matches_linear(self, mirror_pair):
        chi = P.ChiTransform(P.ChiKind.IDENTITY)
        fused = P.chi_transform_pool(mirror_pair, [0.3, 0.7], chi)
        lin = P.linear_pool(mirror_pair, [0.3, 0.7])
        assert np.max(np.abs(fused.values - lin.values)) < 1e-12

    def test_log_matches_log_linear(self, mirror_pair):
        chi = P.ChiTransform(P.ChiKind.LOG)
        fused = P.chi_transform_pool(mirror_pair, [0.5, 0.5], chi)
        ll = P.log_linear_pool(mirror_pair, [0.5, 0.5])
        np.testing.assert_allclose(fused.values, ll.values, rtol=1e-10)

    def test_reciprocal_matches_inverse_linear(self, mirror_pair):
        chi = P.ChiTransform(P.ChiKind.RECIPROCAL)
        fused = P.chi_transform_pool(mirror_pair, [0.4, 0.6], chi)
        inv = P.inverse_linear_pool(mirror_pair, [0.4, 0.6])
        np.testing.assert_allclose(fused.values, inv.values, rtol=1e-9, atol=1e-300)

    def test_power_matches_holder(self, mirror_pair):
        chi = P.ChiTransform(P.ChiKind.POWER, 2.0)
        fused = P.chi_transform_pool(mirror_pair, [0.5, 0.5], chi)
        hol = P.holder_pool(mirror_pair, [0.5, 0.5], 2.0)
        np.testing.assert_array_equal(fused.values, hol.values)

    def test_power_needs_alpha(self):
        with pytest.raises(ValueError):
            P.ChiTransform(P.ChiKind.POWER)
        with pytest.raises(ValueError):
            P.ChiTransform(P.ChiKind.LOG, 2.0)


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
