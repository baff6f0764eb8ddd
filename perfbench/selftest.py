"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the package's own test run: they test the
benchmark, which lives beside the package rather than in it.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cli_session  # noqa: E402
import grid_fusion  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from ops import KNOWN_DEFECTS, run_op  # noqa: E402

import pdffusion  # noqa: E402
from pdffusion import divergence, gaussian, grid, pooling, supra, weights  # noqa: E402


def _plain(x):
    """Comparable form of a library result."""
    if isinstance(x, BaseException):
        return type(x)
    if isinstance(x, (tuple, list)):
        return tuple(_plain(v) for v in x)
    if isinstance(x, grid.GridDensity):
        return ("grid", x.values.tobytes(), x.normalized)
    if isinstance(x, weights.WeightResult):
        return ("weights", x.weights.tobytes(), x.objective, x.iterations)
    if isinstance(x, gaussian.Gaussian):
        return ("gaussian", x.mean.tobytes(), x.cov.tobytes())
    if isinstance(x, np.ndarray):
        return ("array", x.tobytes())
    if hasattr(x, "max_violation"):
        return ("report", x.passed, x.max_violation)
    return x


def _library_calls(tmp):
    """A spread of public calls, including the narrow-Gaussian failures."""
    narrow, wide = gaussian.Gaussian([0.0], [[0.01]]), gaussian.Gaussian([3.0], [[1.0]])
    a, b = gaussian.Gaussian([-1.0], [[1.0]]), gaussian.Gaussian([1.5], [[2.0]])
    qa = gaussian.to_grid(a, [-12.0], [12.0], (2048,))
    qb = gaussian.to_grid(b, [-12.0], [12.0], (2048,))
    profile = grid.OpinionProfile((qa, qb))
    path = os.path.join(tmp, "q.csv")

    def attempt(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the exception type is the outcome compared
            return exc

    pdffusion.write_density_csv(path, qa)
    return [
        qa,
        pooling.linear_pool(profile, [0.3, 0.7]),
        pooling.log_linear_pool(profile, [0.3, 0.7]),
        pooling.holder_pool(profile, [0.3, 0.7], -0.5),
        pooling.pool(pooling.PoolingSpec(pooling.PoolingKind.INVERSE_LINEAR, weights=(0.5, 0.5)), profile),
        grid.moments(qb),
        divergence.kl(qa, qb),
        divergence.alpha_div(qa, qb, 0.3),
        weights.min_kld_weights(profile),
        weights.ci_weights([a, b, gaussian.Gaussian([0.0], [[0.5]])]),
        pdffusion.check_axiom(pooling.PoolingSpec(pooling.PoolingKind.LINEAR, weights=(0.4, 0.6)), "A10", trials=3),
        supra.scalar_fusion(supra.private_shared_model(3, 4, [1, 4, 4]), np.zeros(3)).scalar_weights,
        pdffusion.read_density_csv(path),
        attempt(
            pooling.log_linear_pool,
            grid.OpinionProfile(tuple(gaussian.to_grid(g, [-10.0], [10.0], (2048,)) for g in (narrow, wide))),
            [0.5, 0.5],
        ),
        attempt(divergence.kl, wide, narrow),
    ]


def test_wrappers_are_transparent(tmp_path):
    plain = [_plain(x) for x in _library_calls(str(tmp_path))]
    original, init = grid.event_probability, grid.GridDensity.__init__
    rec = spans.Recorder()
    rec.install()
    try:
        traced = [_plain(x) for x in _library_calls(str(tmp_path))]
        # `from .grid import event_probability` rebinds it: every binding is wrapped
        for namespace in (pdffusion, pdffusion.grid, pdffusion.axioms):
            assert namespace.event_probability.__wrapped__ is original
    finally:
        rec.uninstall()
    assert traced == plain
    assert pdffusion.axioms.event_probability is original
    assert grid.GridDensity.__init__ is init
    # every traced name was seen at least once by the calls above or is a class
    table, _ = rec.table()
    for name in ("gaussian.to_grid", "grid.GridDensity", "pooling.holder_pool", "weights.ci_weights"):
        assert table[name][0] > 0
    assert rec.counters["weights.ci_objective_evals"] > 0
    assert rec.counters["fileio.bytes_written"] == os.path.getsize(tmp_path / "q.csv")


def test_spans_nest():
    rec = spans.Recorder()
    ops = grid_fusion.Workload(5, "").round(0)
    rec.install()
    try:
        for op in ops:
            run_op(op, rec)
    finally:
        rec.uninstall()
    table, self_time = rec.table()
    dur = np.frombuffer(rec.end) - np.frombuffer(rec.start)
    resolution = 1e-6
    assert np.all(self_time >= -resolution)
    assert np.all(self_time <= dur + resolution)
    for name, (calls, total, self_s) in table.items():
        assert self_s <= total + resolution, name
    op = np.frombuffer(rec.op, dtype=np.int32)
    parent = np.frombuffer(rec.parent, dtype=np.int32)
    roots = np.flatnonzero(parent < 0)
    assert len(roots) == len(ops)
    for root in roots:
        assert abs(self_time[op == op[root]].sum() - dur[root]) <= resolution


def test_rounds_repeat_the_same_ops():
    workload = grid_fusion.Workload(3, "")
    first, second = workload.round(0), workload.round(1)
    assert sorted(map(id, first)) == sorted(map(id, second))
    assert [op.name for op in first] != [op.name for op in second]


def test_every_divergence_is_called():
    rec = spans.Recorder()
    rec.install()
    try:
        for op in grid_fusion.Workload(4, "").round(0):
            run_op(op, rec)
    finally:
        rec.uninstall()
    table, _ = rec.table()
    for name in spans.TRACED["divergence"]:
        assert table.get(f"divergence.{name}", (0,))[0] > 0, name


def test_metric_names():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] + [w["name"] for w in bench["workloads"]]
    assert all(pattern.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    import worker

    layers = worker.layer_metrics({}, {}, {"import.pdffusion_ms": 1.0, "import.interpreter_ms": 1.0}, 1)
    layers.update({"trace.overhead_ms": 0.0, "trace.overhead_share": 0.0})
    assert set(layers) == {m["name"] for m in bench["per_layer"]}


def _cli_inputs(seed, tmp):
    cli_session.Workload(seed, tmp)
    digest = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join(tmp, "in"))):
        with open(os.path.join(tmp, "in", name), "rb") as fh:
            digest.update(name.encode() + fh.read())
    return digest.hexdigest()


def _fusion_outputs(seed):
    ops = grid_fusion.Workload(seed, "").round(0)
    cheap = [op for op in ops if op.name.startswith("fusion-1d")][:3]
    return [op.name for op in ops], [_plain(op.run()[2]) for op in cheap]


def test_inputs_follow_the_seed(tmp_path):
    assert _cli_inputs(1, str(tmp_path / "a")) == _cli_inputs(1, str(tmp_path / "b"))
    assert _cli_inputs(1, str(tmp_path / "c")) != _cli_inputs(2, str(tmp_path / "d"))
    assert _fusion_outputs(1) == _fusion_outputs(1)
    assert _fusion_outputs(1) != _fusion_outputs(2)


def test_closed_forms_match_the_paper():
    assert oracle.private_shared_weights(3, 4, [1, 4, 4])[0] == pytest.approx(-1.0 / 7.0)
    p, q = (np.array([3.0]), np.array([[1.0]])), (np.array([0.0]), np.array([[0.01]]))
    assert oracle.kl(p, q) == pytest.approx(497.197, abs=1e-3)
    mean, cov = oracle.mixture_moments([(np.array([-2.5]), np.eye(1)), (np.array([2.5]), np.eye(1))], [0.5, 0.5])
    assert mean[0] == 0.0 and cov[0, 0] == pytest.approx(7.25)


def test_closed_forms_match_quadrature():
    p = (np.array([0.4, -0.2]), np.array([[0.8, 0.3], [0.3, 0.6]]))
    q = (np.array([-0.3, 0.5]), np.array([[1.5, -0.2], [-0.2, 1.1]]))
    lower, upper, shape = np.array([-8.0, -8.0]), np.array([8.0, 8.0]), (801, 801)
    w = oracle.quad_weights(lower, upper, shape)
    pv = np.exp(oracle.log_pdf_on_grid(*p, lower, upper, shape))
    log_q = oracle.log_pdf_on_grid(*q, lower, upper, shape)
    qv = np.exp(log_q)
    assert oracle.pearson_chi2(p, q) == pytest.approx(float(np.sum(w * (pv - qv) ** 2 / qv)), rel=1e-9)
    assert oracle.cross_entropy(p, q) == pytest.approx(-float(np.sum(w * pv * log_q)), rel=1e-9)
    assert oracle.chi2_integrand(q, p) is None


def test_known_defects_are_in_the_op_stream(tmp_path):
    names = {op.name for op in grid_fusion.Workload(1, "").round(0)}
    names |= {op.name for op in cli_session.Workload(1, str(tmp_path)).round(0)}
    assert set(KNOWN_DEFECTS) <= names


@pytest.mark.parametrize("seed", cli_session.AXIOM_SEEDS)
def test_axiom_verdicts_hold(seed):
    # the CLI's axiom checks must pass on every seed the script may draw
    for kind, weights, axiom in cli_session.AXIOM_CHECKS:
        spec = pooling.PoolingSpec(pooling.PoolingKind(kind), weights=tuple(float(w) for w in weights.split(",")))
        assert pdffusion.check_axiom(spec, axiom, trials=100, seed=seed).passed, (kind, axiom, seed)
