from __future__ import annotations

import dataclasses
import json
import math
import re

import axiom_reports
import numpy as np
import pytest
import test_pooling
from test_acceptance import _MATRIX_SPECS

from pdffusion import axioms
from pdffusion.axioms import (
    Axiom,
    AxiomCheckReport,
    AxiomCounterexample,
    AxiomStatus,
    check_axiom,
    expected_matrix,
)
from pdffusion.errors import PositivityError, UnsupportedAxiomError
from pdffusion.grid import GridDensity, OpinionProfile, event_probability, from_samples, integrate, normalize
from pdffusion.pooling import ChiKind, ChiTransform, PoolingKind, PoolingSpec, fields_read, pool

TRIALS = 25


def linear(w=(0.4, 0.6)):
    return PoolingSpec(PoolingKind.LINEAR, weights=np.array(w))


def log_linear(w=(0.3, 0.7)):
    return PoolingSpec(PoolingKind.LOG_LINEAR, weights=np.array(w))


class TestExpectedMatrix:
    def test_covers_every_pair(self):
        matrix = expected_matrix()
        assert len(matrix) == 10 * 12
        kinds = {k for k, _ in matrix}
        assert PoolingKind.CHI_TRANSFORM not in kinds
        assert len(kinds) == 10

    def test_known_entries(self):
        matrix = expected_matrix()
        assert matrix[(PoolingKind.DICTATORSHIP, Axiom.A8)] is AxiomStatus.SATISFIED
        assert matrix[(PoolingKind.LOG_LINEAR, Axiom.A2)] is AxiomStatus.NOT_APPLICABLE
        assert matrix[(PoolingKind.HOLDER, Axiom.A1)] is AxiomStatus.EQUAL_WEIGHTS_ONLY
        assert matrix[(PoolingKind.MULTIPLICATIVE, Axiom.A1)] is AxiomStatus.SATISFIED
        assert matrix[(PoolingKind.LINEAR, Axiom.A10)] is AxiomStatus.NOT_ESTABLISHED

    def test_row_and_column_counts(self):
        matrix = expected_matrix()

        def row(kind):
            return [matrix[(kind, a)] for a in Axiom]

        assert row(PoolingKind.LINEAR).count(AxiomStatus.SATISFIED) == 6
        assert row(PoolingKind.DICTATORSHIP).count(AxiomStatus.SATISFIED) == 10
        col7 = [matrix[(k, Axiom.A7)] for k in {k for k, _ in matrix}]
        assert col7.count(AxiomStatus.SATISFIED) == 10
        na = [pair for pair, st in matrix.items() if st is AxiomStatus.NOT_APPLICABLE]
        # the Holder row is for alpha > 0, which pools zeros; A2 is n.a. there only at alpha <= 0
        assert len(na) == 5
        assert all(a is Axiom.A2 for _, a in na)
        assert (PoolingKind.HOLDER, Axiom.A2) not in na


class TestReportContract:
    def test_pass_has_no_counterexample(self):
        rep = check_axiom(linear(), Axiom.A3, trials=TRIALS, seed=1)
        assert rep.passed
        assert rep.counterexample is None
        assert rep.max_violation <= 1e-6
        assert rep.trials == TRIALS

    def test_failure_carries_counterexample(self):
        rep = check_axiom(linear(), Axiom.A10, trials=TRIALS, seed=1)
        assert not rep.passed
        ce = rep.counterexample
        assert ce is not None
        assert 0 <= ce.trial < TRIALS
        assert ce.seed == 1
        assert ce.detail

    def test_inconsistent_report_rejected(self):
        with pytest.raises(ValueError):
            AxiomCheckReport(
                axiom=Axiom.A1,
                pooling=linear(),
                trials=1,
                max_violation=0.0,
                passed=True,
                counterexample=AxiomCounterexample(0, 0, "x"),
            )

    def test_deterministic_given_seed(self):
        a = check_axiom(linear(), Axiom.A10, trials=10, seed=3)
        b = check_axiom(linear(), Axiom.A10, trials=10, seed=3)
        assert a.max_violation == b.max_violation
        assert a.counterexample == b.counterexample

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            check_axiom(linear(), Axiom.A1, trials=0)
        for trials in (2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="^trials must be a whole number"):
                check_axiom(linear(), Axiom.A3, trials=trials)

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "seed must be at least 0, got -1"), (2.5, "seed must be a whole number, got 2.5")],
        ids=["negative", "fraction"],
    )
    def test_seed_validated(self, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_axiom(linear(), Axiom.A4, trials=3, seed=seed)

    def test_whole_seed_reports_as_the_int(self):
        spec = linear()
        assert check_axiom(spec, Axiom.A3, trials=3, seed=3.0) == check_axiom(spec, Axiom.A3, trials=3, seed=3)

    @pytest.mark.parametrize("whole, count", [(3.0, 3), (True, 1), (np.int64(3), 3)], ids=["float", "bool", "int64"])
    def test_whole_trials_report_as_the_int(self, whole, count):
        spec = linear()
        got = check_axiom(spec, Axiom.A3, trials=whole, seed=3)
        want = check_axiom(spec, Axiom.A3, trials=count, seed=3)
        assert type(got.trials) is int
        assert got == want

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_tol_validated(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            check_axiom(linear(), Axiom.A1, trials=1, tol=tol)

    @pytest.mark.parametrize("axiom", [Axiom.A1, Axiom.A2])
    def test_spec_fields_checked_before_the_verdict(self, axiom):
        # A2 is n.a. for multiplicative pooling; the field error still comes first
        with pytest.raises(ValueError, match="^multiplicative pooling does not take weights$"):
            spec = PoolingSpec(PoolingKind.MULTIPLICATIVE, weights=np.array([0.5, 0.5]))
            check_axiom(spec, axiom, trials=1)

    def test_drawn_companions_count_as_supplied(self):
        # q0 is drawn by the harness, so only the missing w0 is reported
        with pytest.raises(ValueError, match="^generalized-linear pooling requires w0$"):
            missing = PoolingSpec(PoolingKind.GENERALIZED_LINEAR, weights=np.array([0.4, 0.4]))
            check_axiom(missing, Axiom.A1, trials=1)
        spec = PoolingSpec(PoolingKind.GENERALIZED_LINEAR, weights=np.array([0.4, 0.4]), w0=0.2)
        assert check_axiom(spec, Axiom.A1, trials=2).passed
        # a companion the kind does not read is still refused
        with pytest.raises(ValueError, match="^log-linear pooling does not take xi0$"):
            spec = PoolingSpec(PoolingKind.LOG_LINEAR, weights=np.array([0.5, 0.5]), xi0=np.ones(512))
            check_axiom(spec, Axiom.A1, trials=1)

    @pytest.mark.parametrize("dictator", [1.9, 2.5])
    def test_fractional_dictator_rejected(self, dictator):
        with pytest.raises(ValueError, match="^dictator index must be a whole number"):
            spec = PoolingSpec(PoolingKind.DICTATORSHIP, dictator=dictator)
            check_axiom(spec, Axiom.A3, trials=1)

    @pytest.mark.parametrize("axiom", list(Axiom), ids=lambda a: a.value)
    @pytest.mark.parametrize("dictator", [2.0, np.int64(2)], ids=["float", "int64"])
    def test_whole_number_dictator_reports_as_the_int(self, axiom, dictator):
        got = check_axiom(PoolingSpec(PoolingKind.DICTATORSHIP, dictator=dictator), axiom, trials=3, seed=3)
        want = check_axiom(PoolingSpec(PoolingKind.DICTATORSHIP, dictator=2), axiom, trials=3, seed=3)
        assert type(got.pooling.dictator) is int
        for field in dataclasses.fields(AxiomCheckReport):
            assert getattr(got, field.name) == getattr(want, field.name), field.name

    def test_axiom_accepts_string(self):
        rep = check_axiom(linear((0.5, 0.5)), "A1", trials=5, seed=0)
        assert rep.axiom is Axiom.A1
        assert rep.passed


class TestSymmetry:
    def test_equal_weights_pass(self):
        assert check_axiom(linear((0.5, 0.5)), Axiom.A1, trials=TRIALS, seed=2).passed

    def test_unequal_weights_fail(self):
        assert not check_axiom(linear((0.3, 0.7)), Axiom.A1, trials=TRIALS, seed=2).passed

    def test_unweighted_product_passes(self):
        spec = PoolingSpec(PoolingKind.MULTIPLICATIVE)
        assert check_axiom(spec, Axiom.A1, trials=TRIALS, seed=2).passed

    def test_dictatorship_fails(self):
        spec = PoolingSpec(PoolingKind.DICTATORSHIP, dictator=2)
        assert not check_axiom(spec, Axiom.A1, trials=TRIALS, seed=2).passed


class TestZeroEvents:
    def test_linear_preserves_null_events(self):
        assert check_axiom(linear(), Axiom.A2, trials=TRIALS, seed=4).passed

    def test_extra_member_breaks_preservation(self):
        spec = PoolingSpec(
            PoolingKind.GENERALIZED_LINEAR, weights=np.array([0.2, 0.5]), w0=0.3
        )
        rep = check_axiom(spec, Axiom.A2, trials=TRIALS, seed=4)
        assert not rep.passed
        assert rep.counterexample is not None

    @pytest.mark.parametrize(
        "kind",
        [
            PoolingKind.LOG_LINEAR,
            PoolingKind.GENERALIZED_LOG_LINEAR,
            PoolingKind.HOLDER,
            PoolingKind.INVERSE_LINEAR,
            PoolingKind.MULTIPLICATIVE,
            PoolingKind.GENERALIZED_MULTIPLICATIVE,
        ],
    )
    def test_positive_only_kinds_not_applicable(self, kind):
        given = {"weights": np.array([0.5, 0.5]), "alpha": -1.0}
        spec = PoolingSpec(kind, **{f: v for f, v in given.items() if f in fields_read(kind)})
        with pytest.raises(UnsupportedAxiomError):
            check_axiom(spec, Axiom.A2, trials=1)

    def test_transform_pool_follows_its_transform(self):
        positive = PoolingSpec(
            PoolingKind.CHI_TRANSFORM,
            weights=np.array([0.5, 0.5]),
            chi=ChiTransform(ChiKind.RECIPROCAL),
        )
        with pytest.raises(UnsupportedAxiomError):
            check_axiom(positive, Axiom.A2, trials=1)
        identity = PoolingSpec(
            PoolingKind.CHI_TRANSFORM,
            weights=np.array([0.5, 0.5]),
            chi=ChiTransform(ChiKind.IDENTITY),
        )
        assert check_axiom(identity, Axiom.A2, trials=10, seed=4).passed

    def test_one_pool_gets_one_a2_verdict(self):
        w = np.array([0.35, 0.65])
        holder = PoolingSpec(PoolingKind.HOLDER, weights=w, alpha=2.0)
        power = PoolingSpec(
            PoolingKind.CHI_TRANSFORM, weights=w, chi=ChiTransform(ChiKind.POWER, 2.0)
        )
        verdicts = []
        for spec in (holder, power):
            try:
                check_axiom(spec, Axiom.A2, trials=3, seed=0)
            except UnsupportedAxiomError:
                verdicts.append("n.a.")
            else:
                verdicts.append("ran")
        assert verdicts[0] == verdicts[1]


# every acceptance matrix spec, and the transform pool of every transform the pooling tests cover
_RULE_SPECS = {
    f"{kind.value}-{role}": spec
    for kind, specs in _MATRIX_SPECS.items()
    for role, spec in zip(("general", "equal"), specs)
} | {
    f"chi-{name}": PoolingSpec(PoolingKind.CHI_TRANSFORM, weights=(0.5, 0.5), chi=ChiTransform(kind, alpha))
    for (kind, alpha, _), name in zip(test_pooling.TestChiTransformPool.CHIS, test_pooling.TestChiTransformPool.CHI_IDS)
}


class TestOnePositivityRule:
    @pytest.fixture(scope="class")
    def one_zero(self):
        """Two agents on 64 nodes of [-5, 5]; the first is zero at one node."""
        x = np.linspace(-5.0, 5.0, 64)
        first, second = np.exp(-0.5 * (x + 1.0) ** 2), np.exp(-0.5 * (x - 1.0) ** 2)
        first[20] = 0.0
        return OpinionProfile(tuple(normalize(from_samples([-5.0], [5.0], (64,), v)) for v in (first, second)))

    @pytest.mark.parametrize("spec", list(_RULE_SPECS.values()), ids=list(_RULE_SPECS))
    def test_pool_verdict_and_spec_agree(self, spec, one_zero):
        try:
            check_axiom(spec, Axiom.A2, trials=1)
        except UnsupportedAxiomError:
            not_applicable = True
        else:
            not_applicable = False
        reads = fields_read(spec.kind)
        companions = {"q0": one_zero.densities[1]} if "q0" in reads else {}
        companions |= {"xi0": np.ones(64)} if "xi0" in reads else {}
        try:
            pool(dataclasses.replace(spec, **companions), one_zero)
        except PositivityError:
            refused = True
        else:
            refused = False
        assert [spec.needs_positive, not_applicable, refused] in ([True] * 3, [False] * 3)

    def test_both_verdicts_occur(self):
        rules = [spec.needs_positive for spec in _RULE_SPECS.values()]
        assert True in rules and False in rules


def _slice_report(spec, axiom, seed):
    """(passed, max_violation bits, counterexample) of a 3-trial check, or "n.a." for A2's refusal."""
    try:
        rep = check_axiom(spec, axiom, trials=3, seed=seed)
    except UnsupportedAxiomError:
        return "n.a."
    return rep.passed, rep.max_violation.hex(), rep.counterexample


class TestTransformsReportAsTheirPools:
    """The harness keys its closed forms on the exponent a spec pools by, so a transform pool
    reports exactly like the pool it reproduces, on every axiom."""

    PAIRS = {
        "log": (ChiTransform(ChiKind.LOG), {"kind": PoolingKind.LOG_LINEAR}),
        "reciprocal": (ChiTransform(ChiKind.RECIPROCAL), {"kind": PoolingKind.INVERSE_LINEAR}),
        "power3": (ChiTransform(ChiKind.POWER, 3.0), {"kind": PoolingKind.HOLDER, "alpha": 3.0}),
        "power-0.5": (ChiTransform(ChiKind.POWER, -0.5), {"kind": PoolingKind.HOLDER, "alpha": -0.5}),
    }
    WEIGHTS = [(0.3, 0.7), (0.2, 0.5, 0.3)]

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("w", WEIGHTS, ids=["K2", "K3"])
    @pytest.mark.parametrize("chi, pool_fields", PAIRS.values(), ids=list(PAIRS))
    def test_bit_equal_reports(self, chi, pool_fields, w, seed):
        transform = PoolingSpec(PoolingKind.CHI_TRANSFORM, weights=w, chi=chi)
        reproduced = PoolingSpec(weights=w, **pool_fields)
        for axiom in Axiom:
            got = _slice_report(transform, axiom, seed)
            assert got == _slice_report(reproduced, axiom, seed), axiom

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("w", WEIGHTS, ids=["K2", "K3"])
    def test_identity_gives_the_linear_verdicts(self, w, seed):
        # normalize() moves the identity pool's bits off the linear pool's, not its verdicts
        identity = PoolingSpec(PoolingKind.CHI_TRANSFORM, weights=w, chi=ChiTransform(ChiKind.IDENTITY))
        for axiom in Axiom:
            got = _slice_report(identity, axiom, seed)
            assert got[0] == _slice_report(linear(w), axiom, seed)[0], axiom


class TestEventMassScaling:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("two_events", [False, True], ids=["one-event", "two-events"])
    def test_each_event_gets_the_target_mass(self, seed, two_events):
        rng = np.random.default_rng(seed)
        template = axioms.GRID_1D
        ncells = template.shape[0] - 1
        if two_events:
            events = list(axioms._disjoint_cell_pair(rng, ncells))
        else:
            events = [axioms._random_cells_1d(rng, ncells)]
        cand = axioms._random_density(rng, template)
        target = 0.5 * min(event_probability(cand, cells) for cells in events)
        scaled = axioms._with_event_mass(template, cand, events, target)
        for cells in events:
            assert abs(event_probability(scaled, cells) - target) <= 1e-12
        assert abs(integrate(scaled) - 1.0) <= 1e-12
        assert np.all(scaled.values > 0.0)


class TestUnanimityAndSetwise:
    def test_unanimity_holds_for_averages(self):
        assert check_axiom(linear(), Axiom.A3, trials=TRIALS, seed=5).passed
        assert check_axiom(log_linear(), Axiom.A3, trials=TRIALS, seed=5).passed

    def test_fixed_density_ignores_unanimity(self):
        rep = check_axiom(PoolingSpec(PoolingKind.DOGMATIC), Axiom.A3, trials=TRIALS, seed=5)
        assert not rep.passed

    def test_strong_setwise(self):
        assert check_axiom(linear(), Axiom.A4, trials=TRIALS, seed=6).passed
        assert not check_axiom(log_linear(), Axiom.A4, trials=TRIALS, seed=6).passed

    def test_weak_setwise(self):
        spec = PoolingSpec(
            PoolingKind.GENERALIZED_LINEAR, weights=np.array([0.2, 0.5]), w0=0.3
        )
        assert check_axiom(spec, Axiom.A5, trials=TRIALS, seed=6).passed
        assert check_axiom(PoolingSpec(PoolingKind.DOGMATIC), Axiom.A5, trials=TRIALS, seed=6).passed
        assert not check_axiom(log_linear(), Axiom.A5, trials=TRIALS, seed=6).passed


class TestLocality:
    def test_shared_values_fuse_identically(self):
        assert check_axiom(log_linear(), Axiom.A6, trials=TRIALS, seed=7).passed
        assert check_axiom(linear(), Axiom.A6, trials=TRIALS, seed=7).passed

    def test_calibration_function_breaks_locality(self):
        spec = PoolingSpec(PoolingKind.GENERALIZED_LOG_LINEAR, weights=np.array([0.3, 0.7]))
        assert not check_axiom(spec, Axiom.A6, trials=TRIALS, seed=7).passed

    @pytest.mark.parametrize(
        "spec",
        [
            linear(),
            log_linear(),
            PoolingSpec(PoolingKind.HOLDER, weights=np.array([0.35, 0.65]), alpha=2.0),
            PoolingSpec(PoolingKind.DOGMATIC),
            PoolingSpec(PoolingKind.GENERALIZED_MULTIPLICATIVE, weights=np.array([0.9, 0.6])),
        ],
    )
    def test_locality_up_to_normalization_holds_broadly(self, spec):
        assert check_axiom(spec, Axiom.A7, trials=TRIALS, seed=8).passed


class TestTwoDimensional:
    def test_dictatorship_preserves_independence(self):
        spec = PoolingSpec(PoolingKind.DICTATORSHIP, dictator=2)
        assert check_axiom(spec, Axiom.A8, trials=TRIALS, seed=9).passed

    def test_mixture_breaks_independence(self):
        assert not check_axiom(linear(), Axiom.A8, trials=TRIALS, seed=9).passed

    def test_geometric_average_keeps_factorization(self):
        assert check_axiom(log_linear(), Axiom.A9, trials=TRIALS, seed=9).passed

    def test_mixture_breaks_factorization(self):
        assert not check_axiom(linear(), Axiom.A9, trials=TRIALS, seed=9).passed


class TestUpdating:
    def test_update_commutes_for_geometric_family(self):
        assert check_axiom(log_linear(), Axiom.A10, trials=TRIALS, seed=10).passed
        spec = PoolingSpec(PoolingKind.GENERALIZED_LOG_LINEAR, weights=np.array([0.3, 0.7]))
        assert check_axiom(spec, Axiom.A10, trials=TRIALS, seed=10).passed

    def test_update_does_not_commute_for_averages(self):
        rep = check_axiom(linear(), Axiom.A10, trials=TRIALS, seed=10)
        assert not rep.passed

    def test_single_agent_update(self):
        assert check_axiom(PoolingSpec(PoolingKind.MULTIPLICATIVE), Axiom.A11, trials=TRIALS, seed=11).passed
        assert not check_axiom(linear(), Axiom.A11, trials=TRIALS, seed=11).passed

    def test_fused_likelihood_closed_forms(self):
        for spec in [
            log_linear(),
            PoolingSpec(PoolingKind.MULTIPLICATIVE),
            PoolingSpec(PoolingKind.GENERALIZED_MULTIPLICATIVE, weights=np.array([0.9, 0.6])),
            PoolingSpec(PoolingKind.DICTATORSHIP, dictator=2),
            PoolingSpec(PoolingKind.DOGMATIC),
        ]:
            assert check_axiom(spec, Axiom.A12, trials=TRIALS, seed=12).passed

    def test_fused_likelihood_depends_on_profile_for_averages(self):
        assert not check_axiom(linear(), Axiom.A12, trials=TRIALS, seed=12).passed


class TestMixture:
    # seeds 11, 1 and 0 draw one, two and three components
    @pytest.mark.parametrize("seed", [11, 1, 0])
    @pytest.mark.parametrize("template", [axioms.GRID_1D, axioms.GRID_2D], ids=["512", "65"])
    def test_broadcast_matches_the_component_loop(self, seed, template):
        x = template.axes[0]
        got = axioms._mixture_on_axis(np.random.default_rng(seed), x)
        comp_w, means, sds = axioms._mixture_draws(np.random.default_rng(seed), x)
        want = np.zeros_like(x)
        for cw, m, s in zip(comp_w[:, 0], means[:, 0], sds[:, 0]):
            want += cw * axioms._bump(x, m, s) / (s * math.sqrt(2.0 * math.pi))
        np.testing.assert_array_equal(got, want)


class TestPinnedReports:
    def test_seed3_reports_match_the_golden_file(self):
        got = axiom_reports.reports((axiom_reports.SLICE,))
        want = json.loads(axiom_reports.GOLDEN.read_text())
        assert got == {key: want[key] for key in got}

    @pytest.mark.parametrize("template", [axioms.GRID_1D, axioms.GRID_2D], ids=["1-D", "2-D"])
    @pytest.mark.parametrize("broad", [False, True], ids=["mixture", "broad"])
    def test_one_construction_per_density(self, monkeypatch, template, broad):
        built = []
        post_init = GridDensity.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(GridDensity, "__post_init__", counted)
        q = axioms._random_density(np.random.default_rng(0), template, broad=broad)
        assert len(built) == 1
        normalize(q)
        assert len(built) == 2

