from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pdffusion.errors as errors_module
from pdffusion.axioms import Axiom, check_axiom
from pdffusion.cli import _NUMERICAL, main
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

import test_cli_corpus as corpus
from closed_forms import gaussian_kl, power_mean
from separable import bumps, product

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
             "could not parse --weights '0.5,x' as comma-separated numbers"),
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


def test_divergence_of_separable_csvs_is_the_sum_of_the_axes(runner, tmp_path):
    # KL of products is the sum of the two 1-D KLs: this reads 2-D CSVs end to end,
    # on unequal node counts so that swapped axes fail by shape
    rng = np.random.default_rng(21)
    densities = {
        "px": bumps(rng, -3.0, 5.0, 61),
        "qx": bumps(rng, -3.0, 5.0, 61),
        "py": bumps(rng, -1.0, 9.0, 44),
        "qy": bumps(rng, -1.0, 9.0, 44),
    }
    densities["p"] = product(densities["px"], densities["py"])
    densities["q"] = product(densities["qx"], densities["qy"])
    printed = {}
    for name, d in densities.items():
        write_density_csv(tmp_path / f"{name}.csv", d)
    for p, q in (("px", "qx"), ("py", "qy"), ("p", "q")):
        result = runner.invoke(main, ["divergence", "--kind", "kl", str(tmp_path / f"{p}.csv"), str(tmp_path / f"{q}.csv")])
        assert result.exit_code == 0, result.output
        printed[p] = float(result.stdout)
    assert abs(printed["p"] - (printed["px"] + printed["py"])) <= 1e-13 * printed["p"]


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
    def test_grid_points_may_be_a_whole_float(self, runner, tmp_path):
        a = gauss_json(tmp_path, "a.json", 0.0, 1.0)
        b = gauss_json(tmp_path, "b.json", 1.0, 2.0)
        as_float = runner.invoke(main, ["divergence", "--kind", "kl", a, b], env={"FUSION_GRID_POINTS": "64.0"})
        as_int = runner.invoke(main, ["divergence", "--kind", "kl", a, b], env={"FUSION_GRID_POINTS": "64"})
        assert as_float.exit_code == 0
        assert as_float.output == as_int.output

    def test_grid_points_that_are_no_number_name_the_variable(self, runner, tmp_path):
        a = gauss_json(tmp_path, "a.json", 0.0, 1.0)
        b = gauss_json(tmp_path, "b.json", 1.0, 2.0)
        result = runner.invoke(main, ["divergence", "--kind", "kl", a, b], env={"FUSION_GRID_POINTS": "abc"})
        assert result.exit_code == 2
        assert stderr_error(result) == "ValueError"
        assert stderr_message(result) == "FUSION_GRID_POINTS must be a whole number, got abc"

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

    @pytest.mark.parametrize("kind", ["alpha", "reverse-alpha"])
    def test_subnormal_alpha_prints_its_kl_limit(self, runner, kind):
        # 1e-320 is a subnormal float; the call printed -0 when the limit was lost to round-off
        p, q = str(CORPUS_INPUTS / "a.json"), str(CORPUS_INPUTS / "b.json")
        args = ["divergence", "--kind", kind, "--alpha", "1e-320", *((p, q) if kind == "alpha" else (q, p))]
        result = runner.invoke(main, args, env={"FUSION_GRID_POINTS": "2048"})
        assert result.exit_code == 0, result.stderr
        kl_qp = gaussian_kl(Gaussian([1.5], [[2.0]]), Gaussian([-1.0], [[1.0]]))
        assert float(result.stdout) == pytest.approx(kl_qp, rel=1e-12)

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
        assert json.loads(result.stderr)["message"] == "model observation entry 5 is not finite (nan)"

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
        assert json.loads(result.stderr)["message"] == f"{path}: {message}"

    def test_model_json_of_the_wrong_shape_exits_2(self, runner, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            '{"H_blocks": 5, "Sigma": [[1.0]], "prior_mean": [0.0], "prior_cov": [[1.0]]}'
        )
        result = runner.invoke(main, ["supra", "--model", str(path)])
        assert result.exit_code == 2
        assert stderr_error(result) == "ValueError"
        assert stderr_message(result) == f"{path}: field 'H_blocks' is not a list of matrices"

    def test_model_block_that_is_no_matrix_exits_2(self, runner, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            '{"H_blocks": [[[[1.0], [0.0]], [[0.0], [1.0]]]], "Sigma": [[1.0, 0.0], [0.0, 1.0]], '
            '"prior_mean": [0.0, 0.0], "prior_cov": [[1.0, 0.0], [0.0, 1.0]]}'
        )
        result = runner.invoke(main, ["supra", "--model", str(path)])
        assert result.exit_code == 2
        assert stderr_error(result) == "DimensionError"
        assert stderr_message(result) == f"{path}: H block 0 has shape (2, 2, 1), expected a matrix"

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

    The expected bytes come from `to_grid` and `moments` evaluated at the
    grid's centre plus offsets (numpy 2.4, x86-64). fig4's grids are
    symmetric about 0, where that is the arithmetic at the axes.
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
        assert result.output == '{"cov": [[3.4399999999998867]], "mean": [1.1]}\n'
        assert sha256(out.read_bytes()) == (
            "893e1a8f6e813ef994241475f0c7534f7a574a5460a4c1fb9ccf8ce20d2dae83"
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


POOL_TO = ["pool", "--kind", "linear", "--weights", "0.3,0.7", "a.csv", "b.csv", "-o"]


def test_output_that_is_no_regular_file_is_written_alike(run_process, tmp_path):
    # a pipe and a device have no length to cut and no position to ask for
    for name in ("a.csv", "b.csv"):
        (tmp_path / name).write_bytes((CORPUS_INPUTS / name).read_bytes())
    to_file = run_process([sys.executable, "-m", "pdffusion.cli", *POOL_TO, "out.csv"], cwd=tmp_path)
    assert to_file.returncode == 0, to_file.stderr
    # stdout is a pipe: the CSV goes down it, then the printed moments
    to_pipe = run_process([sys.executable, "-m", "pdffusion.cli", *POOL_TO, "/dev/stdout"], cwd=tmp_path)
    assert (to_pipe.returncode, to_pipe.stderr) == (0, b"")
    assert to_pipe.stdout == (tmp_path / "out.csv").read_bytes() + to_file.stdout
    to_null = run_process([sys.executable, "-m", "pdffusion.cli", *POOL_TO, os.devnull], cwd=tmp_path)
    assert (to_null.returncode, to_null.stdout, to_null.stderr) == (0, to_file.stdout, b"")


def test_failed_pool_leaves_an_existing_output_untouched(runner, tmp_path):
    out = tmp_path / "out.csv"
    out.write_bytes((CORPUS_INPUTS / "a.csv").read_bytes())
    mass2 = str(CORPUS_INPUTS / "mass2.csv")  # integrates to 2
    result = runner.invoke(main, ["pool", "--kind", "linear", "--weights", "0.5,0.5", mass2, mass2, "-o", str(out)])
    assert result.exit_code == 2
    assert stderr_error(result) == "NotNormalizedError"
    assert out.read_bytes() == (CORPUS_INPUTS / "a.csv").read_bytes()


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the console script's "module:function", which pip's wrapper imports and calls
CONSOLE_TARGET = re.search(
    r'^pdffusion = "(.+)"$', (Path(__file__).parents[1] / "pyproject.toml").read_text(), re.MULTILINE
)[1]
# runs one process entry, "-m" or the console target, on the arguments that follow;
# its last stderr line holds the call's status and the thread variables that the
# first import of numpy saw (an audit hook reads them when numpy starts to load)
ENTRY_PROBE = f"""
import importlib, json, os, runpy, sys
seen = []
def hook(event, args):
    if event == "import" and args[0] == "numpy" and not seen:
        seen.append({{var: os.environ.get(var) for var in {BLAS_VARS!r}}})
sys.addaudithook(hook)
def exit_through_system_exit(status):
    raise SystemExit(status)
os._exit = exit_through_system_exit
entry, sys.argv = sys.argv[1], ["pdffusion", *sys.argv[2:]]
try:
    if entry == "-m":
        runpy.run_module("pdffusion.cli", run_name="__main__", alter_sys=True)
    else:
        module, name = entry.split(":")
        getattr(importlib.import_module(module), name)()
except SystemExit as exc:
    status = exc.code
print(json.dumps([status, *seen]), file=sys.stderr)
"""


@pytest.mark.parametrize("entry", ["-m", CONSOLE_TARGET], ids=["python-m", "console-script"])
@pytest.mark.parametrize(
    "user, seen",
    [
        ({}, dict.fromkeys(BLAS_VARS, "1")),
        ({"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}),
        (dict.fromkeys(BLAS_VARS, "3"), dict.fromkeys(BLAS_VARS, "3")),
    ],
    ids=["unset", "openblas-set", "all-set"],
)
def test_process_entry_gives_numpy_one_blas_thread_unless_the_user_chose(run_process, entry, user, seen):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    argv = [sys.executable, "-c", ENTRY_PROBE, entry, "supra", "--private-shared", "4,1,4,4"]
    result = run_process(argv, env={**env, **user}, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stderr.splitlines()[-1]) == [0, seen]


def test_embedding_code_keeps_its_environment(run_python):
    # importing the package and the CLI, and calling main, set no thread variable
    code = """
import os
before = dict(os.environ)
import pdffusion, pdffusion.cli
pdffusion.kl
try:
    pdffusion.cli.main(["supra", "--private-shared", "4,1,4,4"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
assert dict(os.environ) == before, set(os.environ.items()) ^ set(before.items())
"""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    result = run_python(code, env=env)
    assert result.returncode == 0, result.stderr


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


BEYOND_FLOAT = 10**400


@pytest.mark.parametrize(
    "args, what",
    [
        (["axiom-check", "--kind", "linear", "--weights", "0.5,0.5", "--axiom", "A4", "--trials", str(BEYOND_FLOAT)], "trials"),
        (["pool", "--kind", "dictatorship", "--dictator", str(BEYOND_FLOAT), "a.csv", "b.csv", "-o", "out.csv"], "dictator index"),
        (["weights", "--method", "min-kld", "--max-iter", str(BEYOND_FLOAT), "a.csv", "b.csv"], "max_iter"),
    ],
    ids=["trials", "dictator", "max-iter"],
)
def test_whole_number_beyond_float_range_exits_2(runner, tmp_path, monkeypatch, args, what):
    for name in ("a.csv", "b.csv"):
        (tmp_path / name).write_bytes((CORPUS_INPUTS / name).read_bytes())
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, repr(result.exception)
    message = f"{what} must be a whole number, got {BEYOND_FLOAT}"
    assert result.stderr == json.dumps({"error": "ValueError", "message": message}) + "\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["pool", "--kind", "holder", "--alpha", "2", "--weights", "0.5,0.5", "zero.csv", "b.csv"],
        ["pool", "--kind", "dogmatic", "--q0", "c.csv", "zero.csv"],
        ["pool", "--kind", "dictatorship", "--dictator", "2", "zero.csv", "b.csv"],
        ["pool", "--kind", "generalized-log-linear", "--weights", "0.5,0.5", "--xi0", "zero.csv", "a.csv", "b.csv"],
    ],
    ids=["holder", "dogmatic", "dictatorship", "xi0"],
)
def test_all_zero_csv_is_no_density(runner, tmp_path, monkeypatch, args):
    for name in ("a.csv", "b.csv", "c.csv"):
        (tmp_path / name).write_bytes((CORPUS_INPUTS / name).read_bytes())
    (tmp_path / "zero.csv").write_text("# 1,-8,8,64\n" + "0\n" * 64)
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, [*args, "-o", "out.csv"])
    assert (result.exit_code, result.stdout) == (2, ""), repr(result.exception)
    assert json.loads(result.stderr) == {"error": "ValueError", "message": "zero.csv: density values are all zero"}
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["pool", "--kind", "linear", "--weights", "0.2,0.3,0.5", "a.csv", "b.csv", "off.csv"],
        ["pool", "--kind", "generalized-log-linear", "--weights", "0.5,0.5", "--xi0", "off.csv", "a.csv", "b.csv"],
        ["pool", "--kind", "dogmatic", "--q0", "off.csv", "a.json", "a.csv"],
    ],
    ids=["agent", "xi0", "q0"],
)
def test_a_grid_mismatch_names_both_files(runner, tmp_path, monkeypatch, args):
    for name in ("a.csv", "b.csv", "off.csv", "a.json"):
        (tmp_path / name).write_bytes((CORPUS_INPUTS / name).read_bytes())
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, [*args, "-o", "out.csv"])
    assert (result.exit_code, result.stdout) == (2, ""), repr(result.exception)
    off, a = "Grid(lower=(-6.0,), upper=(6.0,), shape=(64,))", "Grid(lower=(-8.0,), upper=(8.0,), shape=(64,))"
    message = f"grids differ: off.csv has {off}, a.csv has {a}"
    assert json.loads(result.stderr) == {"error": "GridMismatchError", "message": message}
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--private-shared", "", "--y", "1"], "--private-shared"),
        (["--private-shared", "4,1,4,4", "--y", ""], "--y"),
    ],
)
def test_an_unparseable_list_names_its_flag(runner, args, flag):
    result = runner.invoke(main, ["supra", *args])
    assert result.exit_code == 2
    assert json.loads(result.stderr) == {"error": "ValueError", "message": f"could not parse {flag} '' as comma-separated numbers"}


@pytest.mark.parametrize(
    "pair, expected",
    [
        (((1e17, 1.0), (1.00000000000000016e17, 1.0)), 128.0),
        (((1e15, 1.0), (1e15 + 1.0, 1.0)), 0.5),
        (((1e13, 1.0), (1e13 + 1.0, 1.0)), 0.5),
        (((1e9, 1.0), (1e9 + 1.0, 1.0)), 0.5),
        (((1e15, 2.5e-9), (1e15, 3.6e-9)), None),
        (((1e17, 2.5e-5), (1e17, 3.6e-5)), None),
        (((1e17, 1e-24), (1e17, 1e-24)), None),
    ],
    ids=["1e17-16-apart", "1e15-1-apart", "1e13-1-apart", "1e9-1-apart", "1e15-sd-5e-5", "1e17-sd-5e-3", "1e17-sd-1e-12"],
)
def test_gaussians_far_from_0_need_a_grid_that_float64_resolves(runner, tmp_path, pair, expected):
    # the default 2048 nodes on the union of the mean +- 8 sd boxes are spaced about 0.0083 sd,
    # below the float spacing at 1e15 (0.125) and at 1e17 (16), where the node coordinates
    # collapse; the densities are evaluated at the grid's centre plus offsets, which keep the
    # spacing. At 1e17 the boxes' bounds round by up to 8, and move out where that cut into a
    # box. A box narrower than the float spacing at its mean (the rows expecting None) is
    # refused: bounds moved out to that spacing would put the nodes wider apart than the sd.
    # The refusal names the file of the first such box
    paths = [gauss_json(tmp_path, f"g{i}.json", *g) for i, g in enumerate(pair)]
    result = runner.invoke(main, ["divergence", "--kind", "kl", *paths])
    if expected is None:
        assert (result.exit_code, result.stdout) == (2, ""), result.stdout
        payload = json.loads(result.stderr)
        assert payload["error"] == "DomainError" and "narrower than the float spacing" in payload["message"], payload
        assert payload["message"].startswith(f"{paths[0]}: the box mean +- 8 sd at "), payload
    else:
        assert result.exit_code == 0, (result.stdout, result.stderr)
        assert abs(float(result.stdout) - expected) <= 1e-12 * expected, result.stdout


def test_gaussians_across_a_power_of_two_keep_their_kl(runner, tmp_path):
    # the default 2048 nodes on [2^30 - 7.5, 2^30 + 9.5], and the mirror at -2^30; the node
    # coordinates round unevenly across the power of two, the offsets about the centre do not
    for centre in (2.0**30 + 0.5, -(2.0**30) + 0.5):
        paths = [str(gauss_json(tmp_path, f"g{i}.json", centre + i, 1.0)) for i in range(2)]
        result = runner.invoke(main, ["divergence", "--kind", "kl", *paths])
        assert result.exit_code == 0, (result.stdout, result.stderr)
        assert abs(float(result.stdout) - 0.5) <= 1e-12, (centre, result.stdout)


def test_a_csv_far_from_0_pools_to_its_moments(runner, tmp_path):
    # N(1e15, 1) on [1e15 - 8, 1e15 + 9], written by numpy alone from the nodes' distances to
    # the mean; its 2048 nodes are closer than the float spacing at 1e15 (0.125)
    lower, upper, n = 1e15 - 8.0, 1e15 + 9.0, 2048
    values = np.exp(-0.5 * np.linspace(-8.0, 9.0, n) ** 2) / math.sqrt(2.0 * math.pi)
    far = tmp_path / "far.csv"
    far.write_text("\n".join([f"# 1,{lower!r},{upper!r},{n}", *map(repr, values.tolist())]) + "\n")
    out = tmp_path / "out.csv"
    result = runner.invoke(main, ["pool", "--kind", "log-linear", "--weights", "0.5,0.5", str(far), str(far), "-o", str(out)])
    assert result.exit_code == 0, (result.stdout, result.stderr)
    moments = json.loads(result.stdout)
    assert abs(moments["mean"][0] - 1e15) <= 1e-9 and abs(moments["cov"][0][0] - 1.0) <= 1e-9, moments


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


# the flags that take numbers, and the values that replace one of them: out of range, not
# finite, subnormal, huge, fractional, empty, a list, a list holding nan, and no number
NUMERIC_FLAGS = (
    "--weights", "--alpha", "--w0", "--dictator", "--chi-alpha", "--trials", "--seed", "--tol", "--max-iter", "--y",
    "--private-shared",
)
ODD_VALUES = ("-1", "0", "1e400", "-1e400", "nan", "inf", "1e-320", "1e23", "2.5", "", "1,2,3", "0.5,nan", "abc")
# --trials and --max-iter set the run time: a huge one is a long request, not an invalid one
BOUNDED_FLAGS = ("--trials", "--max-iter")
# the error each documented exit status names on stderr: 3 numerical failures, 4 non-convergence, 2 the rest
NUMERICAL_ERRORS = {error.__name__ for error in _NUMERICAL}
CLI_ERRORS = {
    2: {"ValueError", "IndexError", "OSError", "MemoryError"}
    | {name for name in dir(errors_module) if name.endswith("Error")} - NUMERICAL_ERRORS - {"NonConvergenceError"},
    3: NUMERICAL_ERRORS,
    4: {"NonConvergenceError"},
}
_CORPUS_ROWS = corpus.load_expected()
# corpus calls with a numeric flag to replace: (row id, arguments)
PERTURBABLE = [(case_id, args) for case_id, args in corpus.CASES if set(args) & set(NUMERIC_FLAGS)]
# the library's names for what each numeric flag sets; an error line names the flag, one of
# these, or the value as typed
LIBRARY_NAMES = {
    "--weights": ("weights",),
    "--w0": ("weights",),  # entry 0 of the weights with w0
    "--alpha": ("alpha", "Holder exponent"),
    "--chi-alpha": ("alpha",),  # "Power transform alpha"
    "--dictator": ("dictator index",),
    "--trials": ("trials",),
    "--seed": ("seed",),
    "--tol": ("tol",),
    "--max-iter": ("max_iter",),
    "--y": ("observation",),
    "--private-shared": ("shared count", "private count", "model"),  # the counts of the private-shared model
}


def _bounded(flag: str, value: str) -> bool:
    """Whether ``value`` keeps ``flag``'s run short: at most a few trials or iterations."""
    return flag not in BOUNDED_FLAGS or not value.lstrip("-").isdigit() or int(value) <= 10


@st.composite
def perturbed_calls(draw):
    """A corpus call with one numeric flag's value replaced by an odd one: (row id, arguments)."""
    case_id, args = draw(st.sampled_from(PERTURBABLE))
    at = draw(st.sampled_from([i for i, arg in enumerate(args) if arg in NUMERIC_FLAGS]))
    value = draw(st.sampled_from(ODD_VALUES).filter(lambda v: _bounded(args[at], v)))
    return case_id, [*args[: at + 1], value, *args[at + 2 :]], args[at]


def _numbers(value):
    """Every number in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [n for item in value for n in _numbers(item)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


@settings(max_examples=60, deadline=None)
@given(perturbed_calls())
@example(("divergence-reverse-alpha", ["divergence", "--kind", "reverse-alpha", "--alpha", "50", "a.csv", "b.csv"], "--alpha"))
@example(("divergence-alpha", ["divergence", "--kind", "alpha", "--alpha", "1e23", "a.csv", "b.csv"], "--alpha"))
# a subnormal exponent: a Holder pool of a profile with zeros, and a power transform's distance
@example(("pool-holder-2-zeros", ["pool", "--kind", "holder", "--alpha", "1e-320", *corpus.W, "z1.csv", "z2.csv", "-o", "out.csv"], "--alpha"))
@example(("chi-distance-power-2-zeros", ["divergence", "--kind", "chi-distance", "--chi", "power", "--chi-alpha", "1e-320", "z1.csv", "z2.csv"], "--chi-alpha"))
# messages that named no flag before: an exponent at or below 0 on zeros, a power that
# overflows, and an observation longer than the private-shared model's; an empty list flag
# names its value, which shows quoted
@example(("axiom-check-holder-2-A2", ["axiom-check", "--kind", "holder", "--alpha", "-1", "--weights", "0.35,0.65", "--axiom", "A2", "--trials", "3"], "--alpha"))
@example(("pool-holder-2-zeros", ["pool", "--kind", "holder", "--alpha", "0", *corpus.W, "z1.csv", "z2.csv", "-o", "out.csv"], "--alpha"))
@example(("chi-distance-power-2-zeros", ["divergence", "--kind", "chi-distance", "--chi", "power", "--chi-alpha", "-1", "z1.csv", "z2.csv"], "--chi-alpha"))
@example(("chi-distance-json-power-600-overflow", ["divergence", "--kind", "chi-distance", "--chi", "power", "--chi-alpha", "1e23", "narrow-a.json", "narrow-b.json"], "--chi-alpha"))
@example(("supra-y", ["supra", "--private-shared", "", "--y", corpus.Y21], "--private-shared"))
@example(("supra-y", ["supra", "--private-shared", "1,2,3", "--y", corpus.Y21], "--private-shared"))
def test_an_odd_number_exits_0_with_finite_numbers_or_fails_as_documented(call):
    # in process, on the corpus inputs and grid: an odd value in one flag gives a
    # result, a documented error line, or click's usage message, never a traceback or inf;
    # a divergence is at least 0, weights lie on the simplex, and a failed call writes no file.
    # An error line names the flag, the library's name for it, or the value as typed, unless
    # the corpus row fails already and the call fails as the row does
    case_id, args, flag = call
    with tempfile.TemporaryDirectory() as tmp:
        got = corpus.run_case(corpus.in_process, case_id, args, Path(tmp))
    code, stdout, stderr = got["exit_code"], got["stdout"], got["stderr"]
    if code == 0:
        numbers = [n for line in stdout.splitlines() for n in _numbers(json.loads(line))]
        assert numbers and all(math.isfinite(n) for n in numbers), stdout
        if args[0] == "divergence":
            assert float(stdout) >= 0.0, stdout
        if args[0] == "weights":
            weights = json.loads(stdout)["weights"]
            assert min(weights) >= -1e-9 and abs(math.fsum(weights) - 1.0) <= 1e-9, weights
        return
    assert got["files"] == {}, (code, got["files"])
    if code == 2 and stderr.startswith("Usage: "):
        assert "\nError: " in stderr and stdout == "", stderr
    else:
        assert code in CLI_ERRORS and stdout == "", (code, stderr)
        assert stderr.count("\n") == 1, stderr
        payload = json.loads(stderr)
        assert set(payload) == {"error", "message"} and payload["error"] in CLI_ERRORS[code], (code, payload)
        value = args[args.index(flag) + 1]
        names = [flag, *LIBRARY_NAMES[flag], value or "''"]  # an empty value, as typed, shows quoted
        named = any(name in payload["message"] for name in names)
        assert named or stderr == _CORPUS_ROWS[case_id]["stderr"], (flag, value, payload)


def _inputs_read(args: list[str]) -> list[str]:
    """The corpus input files among a call's arguments."""
    return sorted({arg for arg in args if (corpus.INPUTS / arg).is_file()})


# corpus calls that succeed and read input files: (row id, arguments, files)
FILE_CALLS = [
    (case_id, args, _inputs_read(args))
    for case_id, args in corpus.CASES
    if _CORPUS_ROWS[case_id]["exit_code"] == 0 and _inputs_read(args)
]
CSV_PERTURBATIONS = (
    "nan", "inf", "-inf", "negative", "text", "second-column", "truncated", "all-zero", "header", "span-overflow",
)
# of a Gaussian's mean and cov, or a model's prior mean and prior cov
JSON_PERTURBATIONS = ("cov-shape", "nan-cov", "not-positive-definite", "string-mean", "cut-off")


def _perturbed_csv(text: str, how: str, at: int) -> str:
    """The density CSV ``text`` perturbed ``how``, at its value line ``at``."""
    header, *lines = text.splitlines()
    if how == "header":  # a lower bound that is no number
        header = header.replace(",", ",x", 1)
    elif how == "span-overflow":  # finite bounds whose span is beyond the float range
        header = "# 1,-1e308,1e308,16"
    elif how == "truncated":
        lines = lines[:at]
    elif how == "all-zero":
        lines = ["0"] * len(lines)
    elif how == "second-column":
        lines[at] += "," + lines[at]
    else:
        lines[at] = {"negative": "-0.5", "text": "abc"}.get(how, how)
    return "\n".join([header, *lines]) + "\n"


def _perturbed_json(text: str, how: str) -> str:
    """The Gaussian or model JSON ``text`` perturbed ``how``: in its prior, for a model."""
    if how == "cut-off":
        return text[: len(text) // 2]
    payload = json.loads(text)
    cov, mean = ("prior_cov", "prior_mean") if "prior_cov" in payload else ("cov", "mean")
    d = len(payload[mean])
    payload.update({
        "cov-shape": {cov: [[1.0] * (d + 1)]},
        "nan-cov": {cov: [[math.nan] * d] * d},
        "not-positive-definite": {cov: (-np.eye(d)).tolist()},
        "string-mean": {mean: "abc"},
    }[how])
    return json.dumps(payload)


@st.composite
def perturbed_files(draw):
    """A corpus call and one of its input files perturbed: (row id, arguments, file name, new text)."""
    case_id, args, files = draw(st.sampled_from(FILE_CALLS))
    name = draw(st.sampled_from(files))
    text = (corpus.INPUTS / name).read_text()
    if name.endswith(".csv"):
        at = draw(st.integers(0, text.count("\n") - 2))
        return case_id, args, name, _perturbed_csv(text, draw(st.sampled_from(CSV_PERTURBATIONS)), at)
    return case_id, args, name, _perturbed_json(text, draw(st.sampled_from(JSON_PERTURBATIONS)))


@settings(max_examples=150, deadline=None)
@given(perturbed_files())
# a value that is no number, and a second column: numpy's message named no file
@example(("divergence-kl", dict(corpus.CASES)["divergence-kl"], "a.csv", "# 1,-8,8,64\n" + "abc\n" * 64))
@example(("pool-json-linear", dict(corpus.CASES)["pool-json-linear"], "b.json", '{"mean": [1.5], "cov": [[2.0, 0.0]]}'))
# bounds whose span overflows: numpy warned twice on stderr, then blamed normalization
@example(("divergence-kl", dict(corpus.CASES)["divergence-kl"], "a.csv", "# 1,-1e308,1e308,16\n" + "1\n" * 16))
def test_a_perturbed_input_file_fails_naming_it(call):
    # in process, on the corpus inputs: a file whose content is not a valid density,
    # Gaussian or model fails with one documented error line that names the file, and no output
    case_id, args, name, text = call
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / name).write_text(text)  # run_case copies the other inputs beside it
        got = corpus.run_case(corpus.in_process, case_id, args, Path(tmp))
    code, stderr = got["exit_code"], got["stderr"]
    assert code in (2, 3) and got["stdout"] == "" and got["files"] == {}, (code, got)
    assert stderr.count("\n") == 1, stderr
    payload = json.loads(stderr)
    assert payload["error"] in CLI_ERRORS[code] and name in payload["message"], (code, payload)


# the corpus inputs that are positive normalized densities on their grids
POSITIVE_INPUTS = (
    "a.csv", "b.csv", "c.csv", "flat.csv", "a2.csv", "b2.csv",
    "a.json", "b.json", "narrow-a.json", "narrow-b.json", "a2.json", "b2.json", "c2.json", "d2.json",
)
SELF_ALPHAS = ("-400", "-0.5", "0", "1e-300", "0.3", "1", "2", "50")
# the flags of each divergence kind that reads any
SELF_FLAGS = {
    "alpha": [["--alpha", alpha] for alpha in SELF_ALPHAS],
    "reverse-alpha": [["--alpha", alpha] for alpha in SELF_ALPHAS],
    "chi-distance": [["--chi", chi] for chi in ("identity", "log", "reciprocal")]
    + [["--chi", "power", "--chi-alpha", alpha] for alpha in ("-0.5", "0", "1e-7", "2")],
}


@st.composite
def self_divergences(draw):
    """A divergence call of any kind on one positive corpus input given twice."""
    kind = draw(st.sampled_from([kind.value for kind in DivergenceKind]))
    name = draw(st.sampled_from(POSITIVE_INPUTS))
    return ["divergence", "--kind", kind, *draw(st.sampled_from(SELF_FLAGS.get(kind, [[]]))), name, name]


@settings(max_examples=100, deadline=None)
@given(self_divergences())
# (integral - 1) / (alpha (alpha - 1)) printed -1.4802973661668753e-16 and -0 for these
@example(["divergence", "--kind", "alpha", "--alpha", "-0.5", "a.csv", "a.csv"])
@example(["divergence", "--kind", "alpha", "--alpha", "0.3", "b.csv", "b.csv"])
def test_every_divergence_of_an_input_with_itself_prints_0(args):
    with tempfile.TemporaryDirectory() as tmp:
        got = corpus.run_case(corpus.in_process, "self", args, Path(tmp))
    assert (got["exit_code"], got["stdout"], got["stderr"]) == (0, "0\n", ""), (args, got)
