from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdffusion.axioms import Axiom, check_axiom
from pdffusion.cli import main
from pdffusion.divergence import DivergenceKind, DivergenceSpec, evaluate
from pdffusion.errors import (
    BoundednessError,
    DegenerateError,
    FusionError,
    NonConvergenceError,
    RankError,
    SingularityError,
)
from pdffusion.fileio import (
    FLOAT_FMT,
    read_density_csv,
    read_gaussian_json,
    write_density_csv,
    write_gaussian_json,
    write_model_json,
)
from pdffusion.gaussian import Gaussian, ci_fuse, common_grid, to_grid
from pdffusion.grid import GridDensity, OpinionProfile, from_samples, moments, normalize
from pdffusion.pooling import ChiKind, ChiTransform, PoolingKind, PoolingSpec, fields_read, pool
from pdffusion.supra import LinearGaussianModel, private_shared_model
from pdffusion.weights import CICriterion, ci_weights, discrepancy_weights, min_kld_weights

from closed_forms import power_mean

SMALL_ENV = {"FUSION_GRID_POINTS": "128"}


@pytest.fixture
def runner():
    return CliRunner()


def gauss_json(tmp_path, name, mean, var):
    path = tmp_path / name
    write_gaussian_json(path, Gaussian([mean], [[var]]))
    return str(path)


def density_csv(tmp_path, name, mean, var, lower=-8.0, upper=8.0, n=256):
    path = tmp_path / name
    write_density_csv(path, to_grid(Gaussian([mean], [[var]]), [lower], [upper], (n,)))
    return str(path)


def stderr_error(result):
    payload = json.loads(result.stderr.strip().splitlines()[-1])
    assert set(payload) == {"error", "message"}
    return payload["error"]


def stderr_message(result):
    return json.loads(result.stderr.strip().splitlines()[-1])["message"]


class TestPool:
    def test_holder_writes_csv_and_moments(self, runner, tmp_path):
        a = density_csv(tmp_path, "a.csv", -2.5, 1.0)
        b = density_csv(tmp_path, "b.csv", 2.5, 1.0)
        out = str(tmp_path / "fused.csv")
        result = runner.invoke(
            main,
            ["pool", "--kind", "holder", "--alpha", "0.5", "--weights", "0.5,0.5", a, b, "-o", out],
        )
        assert result.exit_code == 0
        fused = read_density_csv(out)
        assert fused.normalized
        assert fused.grid.shape == (256,)
        payload = json.loads(result.output)
        assert set(payload) == {"mean", "cov"}
        assert abs(payload["mean"][0]) < 1e-8

    def test_gaussian_inputs_use_env_grid(self, runner, tmp_path):
        a = gauss_json(tmp_path, "a.json", 0.0, 1.0)
        b = gauss_json(tmp_path, "b.json", 1.0, 2.0)
        out = str(tmp_path / "fused.csv")
        result = runner.invoke(
            main,
            ["pool", "--kind", "linear", "--weights", "0.5,0.5", a, b, "-o", out],
            env=SMALL_ENV,
        )
        assert result.exit_code == 0
        assert read_density_csv(out).grid.shape == (128,)

    def test_deterministic_output(self, runner, tmp_path):
        a = density_csv(tmp_path, "a.csv", -1.0, 1.0)
        b = density_csv(tmp_path, "b.csv", 1.0, 1.0)
        outs = []
        for name in ("f1.csv", "f2.csv"):
            out = str(tmp_path / name)
            result = runner.invoke(
                main, ["pool", "--kind", "log-linear", "--weights", "0.3,0.7", a, b, "-o", out]
            )
            assert result.exit_code == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_dictatorship_copies_agent(self, runner, tmp_path):
        a = density_csv(tmp_path, "a.csv", -1.0, 1.0)
        b = density_csv(tmp_path, "b.csv", 3.0, 1.0)
        out = str(tmp_path / "fused.csv")
        result = runner.invoke(
            main, ["pool", "--kind", "dictatorship", "--dictator", "2", a, b, "-o", out]
        )
        assert result.exit_code == 0
        # the grid truncates the copied agent's tails, shifting the mean slightly
        assert abs(json.loads(result.output)["mean"][0] - 3.0) < 1e-4

    def test_missing_parameter_exits_2(self, runner, tmp_path):
        a = density_csv(tmp_path, "a.csv", 0.0, 1.0)
        out = str(tmp_path / "fused.csv")
        result = runner.invoke(
            main, ["pool", "--kind", "holder", "--weights", "1.0", a, "-o", out]
        )
        assert result.exit_code == 2
        stderr_error(result)

    def test_mirrored_json_pair_uses_union_grid(self, runner, tmp_path):
        a = gauss_json(tmp_path, "a.json", -2.5, 1.0)
        b = gauss_json(tmp_path, "b.json", 2.5, 1.0)
        out = str(tmp_path / "fused.csv")
        result = runner.invoke(
            main, ["pool", "--kind", "linear", "--weights", "0.5,0.5", a, b, "-o", out]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        # mixture moments: mean 0, variance 1 + 2.5^2
        assert abs(payload["mean"][0]) < 1e-12
        assert abs(payload["cov"][0][0] - 7.25) < 1e-8

    def test_2d_json_log_linear_matches_ci_fuse(self, runner, tmp_path):
        gs = [
            Gaussian([0.5, -0.3], [[1.0, 0.3], [0.3, 2.0]]),
            Gaussian([-0.4, 0.6], [[1.5, -0.2], [-0.2, 0.8]]),
        ]
        paths = []
        for i, g in enumerate(gs):
            paths.append(str(tmp_path / f"g{i}.json"))
            write_gaussian_json(paths[-1], g)
        out = str(tmp_path / "fused.csv")
        result = runner.invoke(
            main, ["pool", "--kind", "log-linear", "--weights", "0.3,0.7", *paths, "-o", out]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        exact = ci_fuse(gs, [0.3, 0.7])
        np.testing.assert_allclose(payload["mean"], exact.mean, rtol=0, atol=1e-8)
        np.testing.assert_allclose(payload["cov"], exact.cov, rtol=0, atol=1e-8)
        assert read_density_csv(out).grid.shape == (257, 257)

    def test_non_finite_weights_exit_2(self, runner, tmp_path):
        a = density_csv(tmp_path, "a.csv", -1.0, 1.0)
        b = density_csv(tmp_path, "b.csv", 1.0, 1.0)
        out = str(tmp_path / "fused.csv")
        result = runner.invoke(
            main, ["pool", "--kind", "linear", "--weights", "nan,nan", a, b, "-o", out]
        )
        assert result.exit_code == 2
        assert stderr_error(result) == "SimplexError"

    def test_xi0_on_another_grid_exits_2(self, runner, tmp_path):
        a = density_csv(tmp_path, "a.csv", -1.0, 1.0, -6.0, 6.0, 64)
        b = density_csv(tmp_path, "b.csv", 1.0, 2.0, -6.0, 6.0, 64)
        out = str(tmp_path / "fused.csv")
        args = ["pool", "--kind", "generalized-log-linear", "--weights", "0.5,0.5", a, b, "-o", out]
        for name, lower, upper in (("far.csv", 0.0, 12.0), ("near.csv", -6.0, 6.0)):
            x = np.linspace(lower, upper, 64)
            write_density_csv(tmp_path / name, from_samples([lower], [upper], (64,), np.exp(x)))
        result = runner.invoke(main, args + ["--xi0", str(tmp_path / "far.csv")])
        assert result.exit_code == 2
        assert stderr_error(result) == "GridMismatchError"
        # on the agents' grid, exp(x) shifts the pool N(-1/3, 4/3) by its variance
        result = runner.invoke(main, args + ["--xi0", str(tmp_path / "near.csv")])
        assert result.exit_code == 0
        assert json.loads(result.output)["mean"][0] == pytest.approx(1.0, abs=1e-3)

    def test_holder_nonfinite_alpha_exits_2_at_entry(self, runner, tmp_path):
        a = density_csv(tmp_path, "a.csv", -1.0, 1.0)
        b = density_csv(tmp_path, "b.csv", 1.0, 1.0)
        out = tmp_path / "fused.csv"
        args = ["pool", "--kind", "holder", "--alpha", "nan", "--weights", "0.5,0.5", a, b]
        result = runner.invoke(main, args + ["-o", str(out)])
        assert result.exit_code == 2
        message = json.loads(result.stderr.strip().splitlines()[-1])["message"]
        assert message == "Holder exponent must be finite, got nan"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kind", "linear", "--weights", "0.5,0.5"],
            ["--kind", "dictatorship", "--dictator", "1"],
            ["--kind", "dogmatic", "--q0", "Q0"],
        ],
        ids=["linear", "dictatorship", "dogmatic"],
    )
    def test_unnormalized_pool_leaves_no_output(self, runner, tmp_path, flags):
        paths = []
        for name, mean in (("a.csv", -1.0), ("b.csv", 1.0), ("q0.csv", 0.0)):
            d = to_grid(Gaussian([mean], [[1.0]]), [-8.0], [8.0], (64,))
            paths.append(tmp_path / name)
            write_density_csv(paths[-1], GridDensity(d.grid, 2.0 * d.values))  # integrates to 2
        flags = [str(paths[2]) if f == "Q0" else f for f in flags]
        out = tmp_path / "fused.csv"
        result = runner.invoke(main, ["pool", *flags, str(paths[0]), str(paths[1]), "-o", str(out)])
        assert result.exit_code == 2
        assert stderr_error(result) == "NotNormalizedError"
        assert not out.exists()

    def test_missing_file_exits_2(self, runner, tmp_path):
        out = str(tmp_path / "fused.csv")
        result = runner.invoke(
            main, ["pool", "--kind", "linear", str(tmp_path / "nope.csv"), "-o", out]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--kind", "multiplicative", "--q0", "Q0", "--weights", "0.3,0.3"],
             "multiplicative pooling does not take weights"),
            (["--kind", "generalized-linear", "--weights", "0.5,0.5", "--w0", "0.5"],
             "generalized-linear pooling requires q0"),
            (["--kind", "generalized-linear", "--q0", "Q0", "--weights", "0.3,0.3"],
             "generalized-linear pooling requires w0"),
            (["--kind", "generalized-log-linear", "--weights", "0.5,0.5"],
             "generalized-log-linear pooling requires xi0"),
            (["--kind", "linear"], "linear pooling requires weights"),
            (["--kind", "linear", "--weights", "0.5,0.5", "--chi", "log"],
             "linear pooling does not take chi"),
            (["--kind", "linear", "--weights", "0.5,0.5", "--chi-alpha", "2"],
             "--chi-alpha requires --chi power"),
            (["--kind", "chi-transform", "--weights", "0.5,0.5", "--chi", "identity", "--chi-alpha", "2"],
             "alpha is only meaningful for Power, not identity"),
            (["--kind", "chi-transform", "--weights", "0.5,0.5", "--chi", "log", "--chi-alpha", "2"],
             "alpha is only meaningful for Power, not log"),
            (["--kind", "chi-transform", "--weights", "0.5,0.5", "--chi", "reciprocal", "--chi-alpha", "2"],
             "alpha is only meaningful for Power, not reciprocal"),
            (["--kind", "linear", "--weights", "0.5,x"],
             "could not parse '0.5,x' as comma-separated numbers"),
            # the spec refuses the missing rule field at construction, before pool asks for q0
            (["--kind", "generalized-linear", "--weights", "0.5,0.5"],
             "generalized-linear pooling requires w0"),
        ],
    )
    def test_flags_must_match_the_kind(self, runner, tmp_path, flags, message):
        a = density_csv(tmp_path, "a.csv", -1.0, 1.0)
        b = density_csv(tmp_path, "b.csv", 1.0, 1.0)
        q0 = density_csv(tmp_path, "q0.csv", 0.0, 4.0)
        flags = [q0 if f == "Q0" else f for f in flags]
        result = runner.invoke(main, ["pool", *flags, a, b, "-o", str(tmp_path / "fused.csv")])
        assert result.exit_code == 2
        assert stderr_error(result) == "ValueError"
        assert stderr_message(result) == message
        assert not (tmp_path / "fused.csv").exists()


CORPUS_INPUTS = Path(__file__).parent / "golden" / "cli" / "inputs"
# the corpus's grid CSVs by dimension: z1 and z2 hold zeros, xi is a positive calibration function
CSVS = {1: ("a.csv", "b.csv", "c.csv", "z1.csv", "z2.csv"), 2: ("a2.csv", "b2.csv")}
XI0S = {1: ("xi.csv", "c.csv", "z1.csv"), 2: ("a2.csv", "b2.csv")}
# every pooling kind, the transform once per chi kind
KIND_CHOICES = [(k, None) for k in PoolingKind if k is not PoolingKind.CHI_TRANSFORM] + [
    (PoolingKind.CHI_TRANSFORM, c) for c in ChiKind
]
EXPONENTS = st.floats(-3.0, 3.0).filter(lambda a: abs(a) >= 0.05)


def _simplex(counts) -> list[float]:
    return [c / sum(counts) for c in counts]


def _rule_flags(draw, kind, chi, K) -> dict:
    """The flags of a valid pooling rule of ``kind`` (and transform ``chi``) for ``K`` agents, less --q0 and --xi0."""
    flags = {}
    reads = fields_read(kind)
    counts = st.integers(0, 10)
    if kind is PoolingKind.GENERALIZED_MULTIPLICATIVE:  # arbitrary real weights
        flags["weights"] = draw(st.lists(st.floats(-1.0, 2.0), min_size=K, max_size=K))
    elif kind is PoolingKind.GENERALIZED_LINEAR:
        w = _simplex(draw(st.lists(counts, min_size=K + 1, max_size=K + 1).filter(any)))
        flags["w0"], flags["weights"] = w[0], w[1:]
    elif "weights" in reads:
        flags["weights"] = _simplex(draw(st.lists(counts, min_size=K, max_size=K).filter(any)))
    if "alpha" in reads:
        flags["alpha"] = draw(EXPONENTS)
    if "dictator" in reads:
        flags["dictator"] = draw(st.integers(1, K))
    if chi is not None:
        flags["chi"] = chi
        if chi is ChiKind.POWER:
            flags["chi_alpha"] = draw(EXPONENTS)
    return flags


@st.composite
def pool_calls(draw):
    """A valid ``pool`` call: (kind, input names, flag -> value), each value as the library takes it."""
    kind, chi = draw(st.sampled_from(KIND_CHOICES))
    dim = draw(st.sampled_from([1, 2]))
    inputs = draw(st.lists(st.sampled_from(CSVS[dim]), min_size=2, max_size=3))
    flags = _rule_flags(draw, kind, chi, len(inputs))
    reads = fields_read(kind)
    if "q0" in reads:
        flags["q0"] = draw(st.sampled_from(CSVS[dim]))
    if "xi0" in reads:
        flags["xi0"] = draw(st.sampled_from(XI0S[dim]))
    return kind, inputs, flags


def _flag_args(flags) -> list[str]:
    """The command line options that set ``flags``, in their order."""
    args = []
    for name, value in flags.items():
        option = "--" + name.replace("_", "-")
        if name == "weights":
            args += [option, ",".join(repr(float(w)) for w in value)]
        elif name in ("q0", "xi0"):
            args += [option, str(CORPUS_INPUTS / value)]
        elif name in ("chi", "criterion"):
            args += [option, value.value]
        else:
            args += [option, repr(value)]
    return args


def _cli_args(kind, inputs, flags, out):
    args = ["pool", "--kind", kind.value, *_flag_args(flags)]
    return args + [str(CORPUS_INPUTS / name) for name in inputs] + ["-o", str(out)]


def _read(name):
    return read_density_csv(CORPUS_INPUTS / name)


def _library_exit(call):
    """(0, what ``call()`` returns), or (the CLI's exit code for the FusionError it raises, "")."""
    try:
        return 0, call()
    except NonConvergenceError:
        return 4, ""
    except (DegenerateError, SingularityError, BoundednessError, RankError):
        return 3, ""
    except FusionError:
        return 2, ""


def _json_line(payload) -> str:
    """``payload`` as the CLI prints it: one sorted JSON line."""
    return json.dumps(payload, sort_keys=True, separators=(", ", ": ")) + "\n"


def _library_pool(kind, inputs, flags, out):
    """(exit code, stdout) of the call done with the library, writing the pooled CSV to ``out``."""

    def call():
        spec = PoolingSpec(
            kind,
            weights=flags.get("weights"),
            alpha=flags.get("alpha"),
            q0=_read(flags["q0"]) if "q0" in flags else None,
            w0=flags.get("w0"),
            xi0=_read(flags["xi0"]).values if "xi0" in flags else None,
            dictator=flags.get("dictator"),
            chi=ChiTransform(flags["chi"], flags.get("chi_alpha")) if "chi" in flags else None,
        )
        fused = pool(spec, OpinionProfile(tuple(_read(name) for name in inputs)))
        mean, cov = moments(fused)
        write_density_csv(out, fused)
        return _json_line({"mean": mean.tolist(), "cov": cov.tolist()})

    return _library_exit(call)


class TestPoolEqualsTheLibrary:
    """``pool`` on the corpus CSVs prints and writes what the library computes, or exits with its error's code."""

    @settings(max_examples=150, deadline=None)
    @given(pool_calls())
    @example((PoolingKind.CHI_TRANSFORM, ["a.csv", "b.csv"], {"weights": [0.3, 0.7], "chi": ChiKind.IDENTITY}))
    @example((PoolingKind.CHI_TRANSFORM, ["z1.csv", "z2.csv"], {"weights": [0.3, 0.7], "chi": ChiKind.IDENTITY}))
    @example((PoolingKind.CHI_TRANSFORM, ["a.csv", "b.csv"], {"weights": [0.3, 0.7], "chi": ChiKind.LOG}))
    @example((PoolingKind.CHI_TRANSFORM, ["a.csv", "c.csv"], {"weights": [0.3, 0.7], "chi": ChiKind.RECIPROCAL}))
    @example((PoolingKind.CHI_TRANSFORM, ["a2.csv", "b2.csv"], {"weights": [0.5, 0.5], "chi": ChiKind.POWER, "chi_alpha": 2}))
    def test_pool(self, call):
        kind, inputs, flags = call
        with tempfile.TemporaryDirectory() as tmp:
            cli_out, lib_out = Path(tmp) / "cli.csv", Path(tmp) / "lib.csv"
            result = CliRunner().invoke(main, _cli_args(kind, inputs, flags, cli_out))
            code, stdout = _library_pool(kind, inputs, flags, lib_out)
            assert (result.exit_code, result.stdout) == (code, stdout), result.stderr
            if code == 0:
                assert cli_out.read_bytes() == lib_out.read_bytes()
            else:
                assert not cli_out.exists()


ALPHAS = EXPONENTS.filter(lambda a: abs(a - 1.0) >= 0.05)


@st.composite
def divergence_calls(draw):
    """A valid ``divergence`` call: (kind, two input names, flag -> value), each value as the library takes it."""
    kind = draw(st.sampled_from(DivergenceKind))
    dim = draw(st.sampled_from([1, 2]))
    inputs = draw(st.lists(st.sampled_from(CSVS[dim]), min_size=2, max_size=2))
    flags = {}
    if kind in (DivergenceKind.ALPHA, DivergenceKind.REVERSE_ALPHA):
        flags["alpha"] = draw(ALPHAS)
    if kind is DivergenceKind.CHI_DISTANCE:
        flags["chi"] = draw(st.sampled_from(ChiKind))
        if flags["chi"] is ChiKind.POWER:
            flags["chi_alpha"] = draw(EXPONENTS)
    return kind, inputs, flags


class TestDivergenceEqualsTheLibrary:
    """``divergence`` on the corpus CSVs prints what the library computes, or exits with its error's code."""

    @settings(max_examples=150, deadline=None)
    @given(divergence_calls())
    @example((DivergenceKind.REVERSE_KL, ["a.csv", "c.csv"], {}))
    @example((DivergenceKind.REVERSE_ALPHA, ["a.csv", "c.csv"], {"alpha": 0.5}))
    @example((DivergenceKind.CHI_DISTANCE, ["a2.csv", "b2.csv"], {"chi": ChiKind.POWER, "chi_alpha": -0.5}))
    def test_divergence(self, call):
        kind, inputs, flags = call
        args = ["divergence", "--kind", kind.value, *_flag_args(flags)]
        result = CliRunner().invoke(main, args + [str(CORPUS_INPUTS / name) for name in inputs])
        chi = ChiTransform(flags["chi"], flags.get("chi_alpha")) if "chi" in flags else None
        spec = DivergenceSpec(kind, alpha=flags.get("alpha"), chi=chi)
        code, value = _library_exit(lambda: evaluate(spec, *map(_read, inputs)))
        assert (result.exit_code, result.stdout) == (code, FLOAT_FMT % value + "\n" if code == 0 else ""), result.stderr


# the corpus's Gaussian JSON files, which ci weights read
JSONS = ("a.json", "b.json")


@st.composite
def weights_calls(draw):
    """A valid ``weights`` call: (method, input names, flag -> value), only the flags the method reads, each drawn or unset."""
    method = draw(st.sampled_from(["min-kld", "discrepancy", "ci"]))
    dim = draw(st.sampled_from([1, 2]))
    names = JSONS if method == "ci" else CSVS[dim]
    inputs = draw(st.lists(st.sampled_from(names), min_size=2, max_size=3))
    drawn = {}
    if method == "ci":
        drawn["criterion"] = st.sampled_from(CICriterion)
    if method != "discrepancy":
        drawn["max_iter"] = st.integers(1, 30)
        drawn["tol"] = st.floats(1e-10, 1e-2)
    flags = {name: draw(value) for name, value in drawn.items() if draw(st.booleans())}
    return method, inputs, flags


def _library_weights(method, inputs, flags) -> tuple[int, str]:
    """(exit code, stdout) of the ``weights`` call done with the library, the unset flags left to its defaults."""

    def call():
        if method == "discrepancy":
            w = discrepancy_weights(OpinionProfile(tuple(map(_read, inputs))))
            return _json_line({"weights": w.tolist()})
        if method == "ci":
            res = ci_weights([read_gaussian_json(CORPUS_INPUTS / name) for name in inputs], **flags)
        else:
            res = min_kld_weights(OpinionProfile(tuple(map(_read, inputs))), **flags)
        fields = ("objective", "iterations", "converged", "gradient_norm")
        return _json_line({"weights": res.weights.tolist(), **{f: getattr(res, f) for f in fields}})

    return _library_exit(call)


class TestWeightsEqualsTheLibrary:
    """``weights`` on the corpus inputs prints what the library selects, or exits with its error's code.

    Both sides run the same numerics in one process, so min-KLD and ci
    weights are compared at every printed digit.
    """

    @settings(max_examples=100, deadline=None)
    @given(weights_calls())
    @example(("min-kld", ["a.csv", "z1.csv"], {}))
    @example(("min-kld", ["a.csv", "b.csv", "c.csv"], {"max_iter": 1}))
    @example(("min-kld", ["a2.csv", "b2.csv"], {"tol": 1e-3}))
    @example(("discrepancy", ["a.csv", "a.csv"], {}))
    @example(("ci", ["a.json", "b.json"], {"criterion": CICriterion.LOGDET, "max_iter": 2, "tol": 1e-9}))
    def test_weights(self, call):
        method, inputs, flags = call
        args = ["weights", "--method", method, *_flag_args(flags)]
        result = CliRunner().invoke(main, args + [str(CORPUS_INPUTS / name) for name in inputs])
        code, stdout = _library_weights(method, inputs, flags)
        assert (result.exit_code, result.stdout) == (code, stdout), result.stderr


@st.composite
def axiom_calls(draw):
    """A valid ``axiom-check`` call: (kind, rule flags, axiom, trials, seed)."""
    kind, chi = draw(st.sampled_from(KIND_CHOICES))
    flags = _rule_flags(draw, kind, chi, draw(st.integers(2, 3)))
    return kind, flags, draw(st.sampled_from(Axiom)), draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1))


class TestAxiomCheckEqualsTheLibrary:
    """``axiom-check`` prints ``check_axiom``'s report, its spec named by kind, or exits with its error's code."""

    @settings(max_examples=60, deadline=None)
    @given(axiom_calls())
    @example((PoolingKind.HOLDER, {"weights": [0.35, 0.65], "alpha": -1.0}, Axiom.A2, 3, 0))
    @example((PoolingKind.LINEAR, {"weights": [0.4, 0.6]}, Axiom.A1, 3, 5))
    @example((PoolingKind.CHI_TRANSFORM, {"weights": [0.3, 0.7], "chi": ChiKind.LOG}, Axiom.A12, 2, 3))
    def test_axiom_check(self, call):
        kind, flags, axiom, trials, seed = call
        args = ["axiom-check", "--kind", kind.value, *_flag_args(flags), "--axiom", axiom.value]
        result = CliRunner().invoke(main, args + ["--trials", str(trials), "--seed", str(seed)])
        chi = ChiTransform(flags["chi"], flags.get("chi_alpha")) if "chi" in flags else None
        spec = PoolingSpec(kind, **{k: v for k, v in flags.items() if k not in ("chi", "chi_alpha")}, chi=chi)

        def call_library():
            payload = dataclasses.asdict(check_axiom(spec, axiom, trials=trials, seed=seed))
            payload["kind"] = payload.pop("pooling")["kind"].value
            return _json_line({**payload, "axiom": axiom.value})

        code, stdout = _library_exit(call_library)
        assert (result.exit_code, result.stdout) == (code, stdout), result.stderr


class TestDivergence:
    def test_kl_self_is_zero(self, runner, tmp_path):
        a = density_csv(tmp_path, "a.csv", 0.3, 1.2)
        result = runner.invoke(main, ["divergence", "--kind", "kl", a, a])
        assert result.exit_code == 0
        assert result.output.strip() == "0"

    def test_kl_between_unit_gaussians(self, runner, tmp_path):
        a = gauss_json(tmp_path, "a.json", -2.5, 1.0)
        b = gauss_json(tmp_path, "b.json", 2.5, 1.0)
        result = runner.invoke(main, ["divergence", "--kind", "kl", a, b])
        assert result.exit_code == 0
        # closed form: squared mean gap over two
        assert abs(float(result.output) - 12.5) < 1e-6

    def test_alpha_requires_alpha_flag(self, runner, tmp_path):
        a = density_csv(tmp_path, "a.csv", 0.0, 1.0)
        result = runner.invoke(main, ["divergence", "--kind", "alpha", a, a])
        assert result.exit_code == 2
        assert stderr_error(result) in ("ValueError", "ParameterError")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kind", "alpha", "--alpha", "nan"],
            ["--kind", "reverse-alpha", "--alpha", "inf"],
            ["--kind", "chi-distance", "--chi", "power", "--chi-alpha", "nan"],
        ],
    )
    def test_nonfinite_exponent_exits_2(self, runner, tmp_path, flags):
        a = density_csv(tmp_path, "a.csv", 0.0, 1.0)
        b = density_csv(tmp_path, "b.csv", 0.5, 1.0)
        result = runner.invoke(main, ["divergence", *flags, a, b])
        assert result.exit_code == 2
        assert stderr_error(result) == "ValueError"
        assert "finite" in json.loads(result.stderr.strip().splitlines()[-1])["message"]

    def test_chi_power_requires_chi_alpha(self, runner, tmp_path):
        a = density_csv(tmp_path, "a.csv", 0.0, 1.0)
        result = runner.invoke(
            main, ["divergence", "--kind", "chi-distance", "--chi", "power", a, a]
        )
        assert result.exit_code == 2
        assert stderr_error(result) == "ValueError"
        assert stderr_message(result) == "--chi power requires --chi-alpha"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--kind", "kl", "--alpha", "3"], "kl divergence does not take alpha"),
            (["--kind", "kl", "--chi", "log"], "kl divergence does not take chi"),
            (["--kind", "l2", "--chi-alpha", "2"], "--chi-alpha requires --chi power"),
            (["--kind", "chi-distance", "--chi", "identity", "--chi-alpha", "2"],
             "alpha is only meaningful for Power, not identity"),
            (["--kind", "chi-distance", "--chi", "log", "--chi-alpha", "2"],
             "alpha is only meaningful for Power, not log"),
            (["--kind", "chi-distance", "--chi", "reciprocal", "--chi-alpha", "2"],
             "alpha is only meaningful for Power, not reciprocal"),
        ],
    )
    def test_flag_the_kind_ignores_exits_2(self, runner, tmp_path, flags, message):
        a = density_csv(tmp_path, "a.csv", 0.0, 1.0)
        b = density_csv(tmp_path, "b.csv", 0.5, 1.0)
        result = runner.invoke(main, ["divergence", *flags, a, b])
        assert result.exit_code == 2
        assert stderr_error(result) == "ValueError"
        assert stderr_message(result) == message

    def test_support_error_names_the_argument_with_mass(self, runner, tmp_path):
        # reverse KL integrates b log(b / a): b has mass where a vanishes
        vals = np.ones(64)
        vals[:16] = 0.0
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_density_csv(a, normalize(from_samples([0.0], [1.0], (64,), vals)))
        write_density_csv(b, normalize(from_samples([0.0], [1.0], (64,), np.ones(64))))
        result = runner.invoke(main, ["divergence", "--kind", "reverse-kl", str(a), str(b)])
        assert result.exit_code == 2
        assert stderr_error(result) == "SupportError"
        assert stderr_message(result) == "KL divergence: second density has mass where the first vanishes"

    def test_csv_with_several_values_on_a_line_exits_2(self, runner, tmp_path):
        rows = tmp_path / "rows.csv"
        rows.write_text("# 1,-1,1,16\n" + "0.5 0.5\n" * 8)
        result = runner.invoke(main, ["divergence", "--kind", "kl", str(rows), str(rows)])
        assert result.exit_code == 2
        assert stderr_error(result) == "ValueError"
        assert stderr_message(result) == f"{rows}: 2 values on a line; the format has one per line"

    @pytest.mark.parametrize(
        "payload, message",
        [
            ("[1, 2]", "expected a JSON object with field 'mean'"),
            ('"x"', "expected a JSON object with field 'mean'"),
            ('{"mean": {"a": 1}, "cov": [[1]]}', "field 'mean' is not an array of numbers"),
            ('{"mean": [true], "cov": [["2.0"]]}', "field 'mean' is not an array of numbers"),
            ('{"mean": [0.0], "cov": [["2.0"]]}', "field 'cov' is not an array of numbers"),
            ('{"mean": [1, true], "cov": [[1, 0], [0, 1]]}', "field 'mean' is not an array of numbers"),
        ],
        ids=["array", "string", "object-mean", "boolean-mean", "string-cov", "boolean-among-ints"],
    )
    def test_json_of_the_wrong_shape_exits_2(self, runner, tmp_path, payload, message):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        ok = gauss_json(tmp_path, "ok.json", 0.0, 1.0)
        result = runner.invoke(main, ["divergence", "--kind", "kl", str(bad), ok])
        assert result.exit_code == 2
        assert stderr_error(result) == "ValueError"
        assert stderr_message(result) == f"{bad}: {message}"

    def test_truncated_json_names_the_file(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mean": [0.0] "cov": [[1.0]]}')
        ok = gauss_json(tmp_path, "ok.json", 0.0, 1.0)
        result = runner.invoke(main, ["divergence", "--kind", "kl", str(bad), ok])
        assert result.exit_code == 2
        assert stderr_error(result) == "ValueError"
        assert stderr_message(result) == f"{bad}: not valid JSON: Expecting ',' delimiter: line 1 column 16 (char 15)"

    def test_csv_header_error_names_the_file(self, runner, tmp_path):
        bare = tmp_path / "bare.csv"
        bare.write_text("#\n" + "0.5\n" * 16)
        result = runner.invoke(main, ["divergence", "--kind", "kl", str(bare), str(bare)])
        assert result.exit_code == 2
        assert stderr_message(result).startswith(f"{bare}: bad header field: ")


class TestWeights:
    def test_min_kld_converges(self, runner, tmp_path):
        a = density_csv(tmp_path, "a.csv", -1.0, 1.0)
        b = density_csv(tmp_path, "b.csv", 1.0, 1.5)
        result = runner.invoke(main, ["weights", "--method", "min-kld", a, b])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["converged"] is True
        assert abs(sum(payload["weights"]) - 1.0) < 1e-9
        assert {"objective", "iterations", "gradient_norm"} <= set(payload)

    def test_discrepancy_prints_weights_only(self, runner, tmp_path):
        a = density_csv(tmp_path, "a.csv", -1.0, 1.0)
        b = density_csv(tmp_path, "b.csv", 1.0, 1.0)
        result = runner.invoke(main, ["weights", "--method", "discrepancy", a, b])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert set(payload) == {"weights"}
        assert abs(sum(payload["weights"]) - 1.0) < 1e-12

    def test_discrepancy_identical_agents_exits_3(self, runner, tmp_path):
        a = density_csv(tmp_path, "a.csv", 0.0, 1.0)
        result = runner.invoke(main, ["weights", "--method", "discrepancy", a, a])
        assert result.exit_code == 3
        assert stderr_error(result) == "DegenerateError"

    def test_min_kld_iteration_budget_exits_4(self, runner, tmp_path):
        a = density_csv(tmp_path, "a.csv", -1.0, 1.0)
        b = density_csv(tmp_path, "b.csv", 1.0, 1.5)
        result = runner.invoke(
            main, ["weights", "--method", "min-kld", "--max-iter", "1", a, b]
        )
        assert result.exit_code == 4
        assert stderr_error(result) == "NonConvergenceError"

    @pytest.mark.parametrize(
        "budget",
        [
            ["--method", "ci", "--max-iter", "-3"],
            ["--method", "ci", "--tol", "-1"],
            ["--method", "ci", "--tol", "nan"],
            ["--method", "min-kld", "--max-iter", "0"],
            ["--method", "min-kld", "--tol", "-1"],
        ],
    )
    def test_bad_budget_exits_2(self, runner, tmp_path, budget):
        a = gauss_json(tmp_path, "a.json", 0.0, 1.0)
        b = gauss_json(tmp_path, "b.json", 1.0, 2.0)
        result = runner.invoke(main, ["weights", *budget, a, b], env=SMALL_ENV)
        assert result.exit_code == 2
        assert stderr_error(result) == "ValueError"

    def test_ci_on_gaussians(self, runner, tmp_path):
        a = gauss_json(tmp_path, "a.json", 0.0, 1.0)
        b = gauss_json(tmp_path, "b.json", 1.0, 4.0)
        result = runner.invoke(
            main, ["weights", "--method", "ci", "--criterion", "trace", a, b]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["converged"] is True
        # the tighter estimate should dominate
        assert payload["weights"][0] > payload["weights"][1]

    def test_csv_given_to_ci_names_the_file(self, runner, tmp_path):
        a = density_csv(tmp_path, "a.csv", 0.0, 1.0)
        b = density_csv(tmp_path, "b.csv", 1.0, 2.0)
        result = runner.invoke(main, ["weights", "--method", "ci", a, b])
        assert result.exit_code == 2
        assert stderr_error(result) == "ValueError"
        assert stderr_message(result) == f"{a}: not valid JSON: Expecting value: line 1 column 1 (char 0)"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--method", "min-kld", "--criterion", "logdet"], "min-kld weights do not take --criterion"),
            (["--method", "discrepancy", "--criterion", "trace"], "discrepancy weights do not take --criterion"),
            (["--method", "discrepancy", "--max-iter", "3"], "discrepancy weights do not take --max-iter"),
            (["--method", "discrepancy", "--tol", "5"], "discrepancy weights do not take --tol"),
        ],
    )
    def test_unread_flag_exits_2(self, runner, tmp_path, flags, message):
        a = gauss_json(tmp_path, "a.json", 0.0, 1.0)
        b = gauss_json(tmp_path, "b.json", 1.0, 2.0)
        result = runner.invoke(main, ["weights", *flags, a, b], env=SMALL_ENV)
        assert result.exit_code == 2
        assert stderr_error(result) == "ValueError"
        assert stderr_message(result) == message

    @pytest.mark.parametrize("method", ["min-kld", "ci"])
    def test_unset_budget_and_criterion_take_the_defaults(self, runner, tmp_path, method):
        a = gauss_json(tmp_path, "a.json", 0.0, 1.0)
        b = gauss_json(tmp_path, "b.json", 1.0, 4.0)
        explicit = ["--max-iter", "500", "--tol", "1e-6"] + (["--criterion", "trace"] if method == "ci" else [])
        unset = runner.invoke(main, ["weights", "--method", method, a, b], env=SMALL_ENV)
        spelled = runner.invoke(main, ["weights", "--method", method, *explicit, a, b], env=SMALL_ENV)
        assert unset.exit_code == spelled.exit_code == 0
        assert unset.output == spelled.output


class TestAxiomCheck:
    def test_pass_report(self, runner):
        result = runner.invoke(
            main,
            [
                "axiom-check", "--kind", "linear", "--weights", "0.5,0.5",
                "--axiom", "A1", "--trials", "5",
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["passed"] is True
        assert payload["counterexample"] is None
        assert payload["trials"] == 5

    def test_violation_still_exits_0(self, runner):
        result = runner.invoke(
            main, ["axiom-check", "--kind", "dogmatic", "--axiom", "A3", "--trials", "5"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["passed"] is False
        ce = payload["counterexample"]
        assert ce is not None and ce["detail"]

    @pytest.mark.parametrize("flag", ["--q0", "--xi0"])
    def test_density_files_rejected(self, runner, tmp_path, flag):
        # the harness draws its own companions, so it takes no density files
        q0 = density_csv(tmp_path, "q0.csv", 0.0, 1.0)
        result = runner.invoke(
            main, ["axiom-check", "--kind", "dogmatic", "--axiom", "A3", "--trials", "3", flag, q0]
        )
        assert result.exit_code == 2
        assert "No such option" in result.output + result.stderr

    def test_not_applicable_exits_2(self, runner):
        result = runner.invoke(
            main,
            [
                "axiom-check", "--kind", "log-linear", "--weights", "0.5,0.5",
                "--axiom", "A2", "--trials", "5",
            ],
        )
        assert result.exit_code == 2
        assert stderr_error(result) == "UnsupportedAxiomError"

    # A2 is n.a. for multiplicative pooling: the field error must come first
    @pytest.mark.parametrize("axiom", ["A1", "A2"])
    def test_weights_for_a_kind_without_weights_exit_2(self, runner, axiom):
        result = runner.invoke(
            main,
            [
                "axiom-check", "--kind", "multiplicative", "--weights", "0.5,0.5",
                "--axiom", axiom, "--trials", "2",
            ],
        )
        assert result.exit_code == 2
        assert stderr_error(result) == "ValueError"
        assert stderr_message(result) == "multiplicative pooling does not take weights"

    def test_chi_alpha_for_a_transform_without_exponent_exits_2(self, runner):
        result = runner.invoke(
            main,
            [
                "axiom-check", "--kind", "chi-transform", "--weights", "0.5,0.5",
                "--chi", "log", "--chi-alpha", "2", "--axiom", "A1", "--trials", "2",
            ],
        )
        assert result.exit_code == 2
        assert stderr_error(result) == "ValueError"
        assert stderr_message(result) == "alpha is only meaningful for Power, not log"

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_tol_exits_2(self, runner, tol):
        result = runner.invoke(
            main,
            [
                "axiom-check", "--kind", "dictatorship", "--dictator", "1",
                "--axiom", "A3", "--trials", "2", "--tol", tol,
            ],
        )
        assert result.exit_code == 2
        assert stderr_error(result) == "ValueError"


class TestSupra:
    def test_private_shared_weights(self, runner):
        result = runner.invoke(main, ["supra", "--private-shared", "4,1,4,4"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["mode"] == "scalar"
        assert math.isclose(payload["weights"][0], -1.0 / 7.0, rel_tol=1e-12)
        assert "posterior" not in payload

    def test_model_file_matches_shorthand(self, runner, tmp_path):
        path = tmp_path / "model.json"
        write_model_json(path, private_shared_model(3, 4, (1, 4, 4)))
        result = runner.invoke(main, ["supra", "--model", str(path), "--scalar"])
        assert result.exit_code == 0
        shorthand = runner.invoke(main, ["supra", "--private-shared", "4,1,4,4"])
        assert json.loads(result.output)["weights"] == json.loads(shorthand.output)["weights"]

    def test_observations_add_posterior(self, runner):
        result = runner.invoke(
            main, ["supra", "--private-shared", "0,2,5", "--y", "1,1,2,2,2,2,2"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        np.testing.assert_allclose(payload["weights"], [1.0, 1.0], atol=1e-9)
        # independent noise loses nothing, so the fused and all-data answers agree
        post, oracle = payload["posterior"], payload["oracle"]
        assert abs(post["mean"][0] - oracle["mean"][0]) < 1e-9
        assert abs(post["mean"][0] - 1.5) < 1e-9
        assert abs(post["cov"][0][0] - 0.125) < 1e-9

    def test_vector_mode_payload(self, runner, tmp_path):
        rng = np.random.default_rng(3)
        H = [np.vstack([np.eye(2), rng.normal(size=(1, 2))]) for _ in range(2)]
        blocks = []
        for _ in range(2):
            A = rng.normal(size=(3, 3))
            blocks.append(A @ A.T + 0.5 * np.eye(3))
        Sigma = np.zeros((6, 6))
        Sigma[:3, :3], Sigma[3:, 3:] = blocks
        model = LinearGaussianModel(
            H_blocks=tuple(H),
            Sigma=Sigma,
            prior_mean=np.zeros(2),
            prior_cov=np.eye(2),
        )
        path = tmp_path / "model.json"
        write_model_json(path, model)
        result = runner.invoke(main, ["supra", "--model", str(path), "--y", "1,0,1,0,1,0"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["mode"] == "vector"
        assert {"G", "sigma_hat_inv", "sigma_tilde", "posterior", "oracle"} <= set(payload)
        assert np.array(payload["weights"]).shape == (2, 2, 2)

    def test_scalar_and_vector_payloads_share_one_fusion(self, runner):
        scalar = json.loads(runner.invoke(main, ["supra", "--private-shared", "4,1,4,4"]).output)
        vector = json.loads(
            runner.invoke(main, ["supra", "--private-shared", "4,1,4,4", "--vector"]).output
        )
        assert scalar["weights"] == [w[0][0] for w in vector["weights"]]
        assert scalar["sigma_hat_inv"] == vector["sigma_hat_inv"]
        assert scalar["sigma_tilde"] == vector["sigma_tilde"]
        assert "G" not in scalar and vector["G"] is not None

    @pytest.mark.parametrize("counts", ["4,1,4,4.5", "4,1,4,inf", "nan,1,4,4", "4,1.5,4,4"])
    def test_non_integral_counts_exit_2(self, runner, counts):
        result = runner.invoke(main, ["supra", "--private-shared", counts])
        assert result.exit_code == 2
        assert stderr_error(result) == "ValueError"
        assert "must be a whole number" in json.loads(result.stderr)["message"]

    def test_unallocatable_model_exits_2(self, runner):
        # 1e9 private observations need a 6.94 EiB noise covariance, which numpy
        # refuses before allocating anything
        result = runner.invoke(main, ["supra", "--private-shared", "4,1e9,4,4"])
        assert result.exit_code == 2
        assert stderr_error(result) == "MemoryError"
        assert result.stderr.count("\n") == 1
        assert "6.94 EiB" in stderr_message(result)

    def test_non_finite_observation_exit_2(self, runner):
        y = ",".join(["0"] * 5 + ["nan"] + ["0"] * 15)
        result = runner.invoke(main, ["supra", "--private-shared", "4,1,4,4", "--y", y])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["message"] == "observation entry 5 is not finite (nan)"

    def test_boolean_in_model_sigma_exits_2(self, runner, tmp_path):
        path = tmp_path / "model.json"
        write_model_json(path, private_shared_model(2, 1, (1, 1)))
        payload = json.loads(path.read_text())
        payload["Sigma"][0][0] = True
        path.write_text(json.dumps(payload))
        result = runner.invoke(main, ["supra", "--model", str(path)])
        assert result.exit_code == 2
        assert stderr_error(result) == "ValueError"
        assert stderr_message(result) == f"{path}: field 'Sigma' is not an array of numbers"

    def test_exactly_one_source_required(self, runner, tmp_path):
        path = tmp_path / "model.json"
        write_model_json(path, private_shared_model(2, 1, (1, 1)))
        both = runner.invoke(
            main, ["supra", "--model", str(path), "--private-shared", "1,1,1"]
        )
        neither = runner.invoke(main, ["supra"])
        assert both.exit_code == 2 and neither.exit_code == 2

    def test_scalar_flag_needs_1d_parameter(self, runner, tmp_path):
        model = LinearGaussianModel(
            H_blocks=(np.eye(2),),
            Sigma=np.eye(2),
            prior_mean=np.zeros(2),
            prior_cov=np.eye(2),
        )
        path = tmp_path / "model.json"
        write_model_json(path, model)
        result = runner.invoke(main, ["supra", "--model", str(path), "--scalar"])
        assert result.exit_code == 2
        assert stderr_error(result) == "DimensionError"
        assert stderr_message(result) == "scalar fusion needs a one-dimensional parameter"

    def test_private_shared_needs_an_agent_count(self, runner):
        result = runner.invoke(main, ["supra", "--private-shared", "4"])
        assert result.exit_code == 2
        assert stderr_error(result) == "ValueError"
        assert stderr_message(result) == "--private-shared needs r0 plus at least one agent count"

    @pytest.mark.parametrize(
        "prior_mean, prior_cov, message",
        [
            ("[NaN, 0.0]", "[[1.0, 0.0], [0.0, 1.0]]", "prior mean entry 0 is not finite (nan)"),
            ("[0.0, 0.0]", "[[NaN, 0.0], [0.0, 1.0]]", "prior covariance has non-finite entries"),
            ("[0.0, 0.0]", "[[1.0, 0.9], [-0.5, 1.0]]", "prior covariance is not symmetric"),
        ],
    )
    def test_bad_prior_exits_2(self, runner, tmp_path, prior_mean, prior_cov, message):
        path = tmp_path / "model.json"
        path.write_text(
            '{"H_blocks": [[[1.0, 0.0], [0.0, 1.0]]], "Sigma": [[1.0, 0.0], [0.0, 1.0]], '
            f'"prior_mean": {prior_mean}, "prior_cov": {prior_cov}}}'
        )
        result = runner.invoke(main, ["supra", "--model", str(path)])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["message"] == message

    def test_model_json_of_the_wrong_shape_exits_2(self, runner, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            '{"H_blocks": 5, "Sigma": [[1.0]], "prior_mean": [0.0], "prior_cov": [[1.0]]}'
        )
        result = runner.invoke(main, ["supra", "--model", str(path)])
        assert result.exit_code == 2
        assert stderr_error(result) == "ValueError"
        assert stderr_message(result) == f"{path}: field 'H_blocks' is not a list of matrices"

    def test_singular_joint_noise_exits_3(self, runner, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            '{"H_blocks": [[[1.0]], [[1.0]]], '
            '"Sigma": [[1.0, 1.0], [1.0, 1.0]], '
            '"prior_mean": [0.0], "prior_cov": [[1.0]]}'
        )
        result = runner.invoke(main, ["supra", "--model", str(path)])
        assert result.exit_code == 3
        assert stderr_error(result) == "SingularityError"


class TestFig4:
    HEADER = "theta,q1,q2,holder_alpha_-1,log_linear,holder_alpha_0.5,holder_alpha_1,holder_alpha_2"

    def test_files_and_header(self, runner, tmp_path):
        result = runner.invoke(main, ["fig4", "-d", str(tmp_path)], env={"FUSION_GRID_POINTS": "64"})
        assert result.exit_code == 0
        assert json.loads(result.output)["written"] == ["fig4a.csv", "fig4b.csv"]
        for name in ("fig4a.csv", "fig4b.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == self.HEADER
            assert len(lines) == 65

    def test_byte_identical_reruns(self, runner, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            result = runner.invoke(main, ["fig4", "-d", str(d)], env={"FUSION_GRID_POINTS": "64"})
            assert result.exit_code == 0
        assert (d1 / "fig4a.csv").read_bytes() == (d2 / "fig4a.csv").read_bytes()
        assert (d1 / "fig4b.csv").read_bytes() == (d2 / "fig4b.csv").read_bytes()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestOneDimensionalOutputsPinned:
    """1-D CLI outputs at the default grids, pinned byte for byte.

    The expected bytes come from the full-mesh `to_grid` and `moments`
    (numpy 2.4, x86-64); evaluating one axis at a time must not change any
    1-D arithmetic.
    """

    DEFAULT_GRID = {"FUSION_GRID_POINTS": None}

    def test_fig4_csvs(self, runner, tmp_path):
        result = runner.invoke(main, ["fig4", "-d", str(tmp_path)], env=self.DEFAULT_GRID)
        assert result.exit_code == 0
        assert sha256((tmp_path / "fig4a.csv").read_bytes()) == (
            "bf75fe7d75abe9b5cab217b98007552b66b3927c629452f96dd9370078362ea2"
        )
        assert sha256((tmp_path / "fig4b.csv").read_bytes()) == (
            "02c6b45a666f56789b93cc1b6df51c93d6f12f1e23a6386440c7fbc403eefd6c"
        )

    def test_linear_pool_of_json_gaussians(self, runner, tmp_path):
        a = gauss_json(tmp_path, "a.json", -1.0, 0.5)
        b = gauss_json(tmp_path, "b.json", 2.0, 2.0)
        out = tmp_path / "fused.csv"
        result = runner.invoke(
            main,
            ["pool", "--kind", "linear", "--weights", "0.3,0.7", a, b, "-o", str(out)],
            env=self.DEFAULT_GRID,
        )
        assert result.exit_code == 0
        assert result.output == '{"cov": [[3.4399999999998867]], "mean": [1.0999999999999996]}\n'
        assert sha256(out.read_bytes()) == (
            "2cf8a8910cbca1e6319a1704193212afa2f946ec60ff12883f4cdd42ffb82c67"
        )


# chi-distances of the narrow pair N(0, 0.01), N(0.05, 0.01) whose powers
# overflow; A and B stand for the two JSON files
OVERFLOWS = [
    ["divergence", "--kind", "chi-distance", "--chi", "power", "--chi-alpha", "300", "A", "B"],  # inf
    ["divergence", "--kind", "chi-distance", "--chi", "power", "--chi-alpha", "600", "A", "B"],  # nan
]


def test_overflowing_power_exits_3_with_no_warning_and_no_output(run_python, tmp_path):
    # a fresh interpreter with the default warning filters: stderr holds only the errors
    code = """
import json, sys
from pdffusion.cli import main
for args in json.loads(sys.argv[1]):
    try:
        main(args)
    except SystemExit as exc:
        print(exc.code)
"""
    files = {
        "A": gauss_json(tmp_path, "a.json", 0.0, 0.01),
        "B": gauss_json(tmp_path, "b.json", 0.05, 0.01),
    }
    calls = [[files.get(arg, arg) for arg in args] for args in OVERFLOWS]
    env = {k: v for k, v in os.environ.items() if k != "FUSION_GRID_POINTS"}
    result = run_python(code, json.dumps(calls), env=env)
    assert result.stdout.split() == ["3"] * len(calls)
    errors = [json.loads(line)["error"] for line in result.stderr.splitlines()]
    assert errors == ["BoundednessError"] * len(calls)


# a call through the fast exit of `python -m pdffusion.cli` and through main with
# the interpreter's teardown: (arguments, whether stdout is closed, exit status)
ENTRY_CASES = {
    "pool": (["pool", "--kind", "linear", "--weights", "0.3,0.7", "a.csv", "b.csv", "-o", "out.csv"], False, 0),
    "fig4": (["fig4", "-d", "figs"], False, 0),
    "overflow": (OVERFLOWS[1], False, 3),
    "unread-flag": (["weights", "--method", "min-kld", "--criterion", "logdet", "a.csv", "b.csv"], False, 2),
    "help": (["--help"], False, 0),
    "closed-stdout": (["supra", "--private-shared", "4,1,4,4"], True, 0),
}
# the prog_name click gives `python -m pdffusion.cli`, which `-c` would print as "-c"
TEARDOWN = "import sys; from pdffusion.cli import main; main(sys.argv[1:], prog_name='python -m pdffusion.cli')"


@pytest.mark.parametrize("args, close_stdout, status", ENTRY_CASES.values(), ids=ENTRY_CASES)
def test_entry_points_end_a_call_alike(run_process, tmp_path, args, close_stdout, status):
    inputs = {
        "A": gauss_json(tmp_path, "a.json", 0.0, 0.01),
        "B": gauss_json(tmp_path, "b.json", 0.05, 0.01),
        "a.csv": str(CORPUS_INPUTS / "a.csv"),
        "b.csv": str(CORPUS_INPUTS / "b.csv"),
    }
    args = [inputs.get(arg, arg) for arg in args]
    env = {k: v for k, v in os.environ.items() if k != "FUSION_GRID_POINTS"}
    ends = {}
    for name, entry in (("fast-exit", ["-m", "pdffusion.cli"]), ("teardown", ["-c", TEARDOWN])):
        cwd = tmp_path / name
        cwd.mkdir()
        argv = [sys.executable, *entry, *args]
        if close_stdout:
            argv = ["sh", "-c", 'exec "$@" >&-', "sh", *argv]
        result = run_process(argv, env=env, cwd=cwd)
        written = {str(f.relative_to(cwd)): f.read_bytes() for f in sorted(cwd.rglob("*")) if f.is_file()}
        ends[name] = (result.returncode, result.stdout, result.stderr, written)
    assert ends["fast-exit"] == ends["teardown"]
    assert ends["fast-exit"][0] == status, ends["fast-exit"][2]


@pytest.mark.parametrize(
    "args", [["supra", "--private-shared", "4,1,4,4"], ["fig4", "-d", "figs"]], ids=["supra", "fig4"]
)
def test_broken_stdout_pipe_ends_a_call_with_status_1(run_process, tmp_path, args):
    # the pipe's read end is closed before the call starts, so its output write always fails
    for name, entry in (("fast-exit", ["-m", "pdffusion.cli"]), ("teardown", ["-c", TEARDOWN])):
        cwd = tmp_path / name
        cwd.mkdir()
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = run_process([sys.executable, *entry, *args], cwd=cwd, stdout=write_end)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (1, b""), name


@pytest.mark.parametrize(
    "kind",
    [["holder", "--alpha", "-400"], ["chi-transform", "--chi", "power", "--chi-alpha", "-400"]],
    ids=["holder", "chi-power"],
)
def test_power_beyond_float_range_pools(runner, tmp_path, kind):
    # on the same pair the -400th power of the members' ratio is beyond the
    # float range, but their power mean is a density
    a = gauss_json(tmp_path, "a.json", 0.0, 0.01)
    b = gauss_json(tmp_path, "b.json", 0.05, 0.01)
    out = tmp_path / "h.csv"
    args = ["pool", "--kind", *kind, "--weights", "0.5,0.5", a, b, "-o", str(out)]
    result = runner.invoke(main, args, env={"FUSION_GRID_POINTS": None})
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["cov"][0][0] == pytest.approx(0.008216196286521725, abs=1e-9)
    members = common_grid(Gaussian([0.0], [[0.01]]), Gaussian([0.05], [[0.01]]))
    want = power_mean([q.values for q in members], [0.5, 0.5], -400.0)
    want /= members[0].grid.integral(want)
    np.testing.assert_allclose(read_density_csv(out).values, want, rtol=1e-12, atol=0.0)


def test_cli_import_skips_scipy_stats(run_python):
    # numpy is the only linear-algebra library; the CLI must not pay for scipy
    code = (
        "import pdffusion.cli, sys; "
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]; "
        "assert not loaded, loaded"
    )
    result = run_python(code, env=dict(os.environ, **SMALL_ENV))
    assert result.returncode == 0, result.stderr


def test_cli_runs_without_scipy(run_python, tmp_path):
    # a None entry in sys.modules makes every scipy import raise ImportError
    code = """
import sys
sys.modules["scipy"] = None
from click.testing import CliRunner
from pdffusion.cli import main
a, b, out = sys.argv[1:]
for args in (
    ["supra", "--private-shared", "4,1,4,4"],
    ["pool", "--kind", "log-linear", "--weights", "0.3,0.7", a, b, "-o", out],
    ["divergence", "--kind", "kl", a, b],
    ["weights", "--method", "ci", a, b],
):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, (args, result.output, repr(result.exception))
"""
    a = gauss_json(tmp_path, "a.json", 0.0, 1.0)
    b = gauss_json(tmp_path, "b.json", 1.0, 4.0)
    result = run_python(code, a, b, str(tmp_path / "fused.csv"), env=dict(os.environ, **SMALL_ENV))
    assert result.returncode == 0, result.stderr


def test_header_only_csv_prints_one_json_line(run_python, tmp_path):
    # loadtxt warns about a file with no values; stderr holds only the error
    empty = tmp_path / "e.csv"
    empty.write_text("# 1,-1,1,16\n")
    code = "import sys; from pdffusion.cli import main; main(sys.argv[1:])"
    result = run_python(code, "divergence", "--kind", "kl", str(empty), str(empty))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert json.loads(result.stderr) == {
        "error": "ValueError",
        "message": f"{empty}: 0 values for grid shape (16,)",
    }
