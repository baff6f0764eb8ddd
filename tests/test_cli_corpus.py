"""Replay the golden CLI corpus: the outputs the CLI promises to keep byte for byte.

Each row is one call of the command line in a fresh directory that holds a
copy of the corpus inputs. The corpus pins its exit code, stdout, stderr and
the sha256 of every file it writes, so a call that fails must also leave no
output behind. pytest replays every row in process, through click's test
runner, and

    python tests/test_cli_corpus.py --replay pdffusion
    python tests/test_cli_corpus.py --replay python -m pdffusion.cli

replays every row as a fresh process of the named command, names each row
that does not match, and exits 1 if any does. A row that writes a file
replays twice in one directory, so the second run writes over the first
run's outputs and must leave the same bytes. The replay needs only numpy,
click and the standard library, so it runs where only the package's runtime
dependencies are installed.

The inputs are small grid CSVs (1-D on 64 nodes, 2-D on 17x17), 1-D Gaussian
and linear Gaussian model JSON, and a few malformed files. Every call runs
with ``ENV`` (``FUSION_GRID_POINTS=64``) updated by its row's entry in
``ROW_ENV``. The inputs are written here from numpy and json alone, not
through pdffusion, so regenerating the corpus cannot move its inputs. Left
out on purpose:

- 2-D JSON outputs, which are promised only to 1e-12 (the grid log-density
  is a BLAS product), but for the two log-linear pools that pin covariance
  intersection;
- ``min-kld`` and ``ci`` weights, which are fixed only to ``--tol``;
- calls whose output is known to be wrong today: a narrow Gaussian whose
  grid values underflow, divergent or near-boundary alpha integrals of
  Gaussians, improper multiplicative pools, and min-KLD weights of an
  affinely dependent profile;
- click's usage errors, whose message names the entry point ("Usage:
  pdffusion pool" against "Usage: python -m pdffusion.cli pool").

Regenerate the inputs and the expectations with

    PYTHONPATH=src python tests/test_cli_corpus.py

and review the diff of ``tests/golden/cli/``.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
from click.testing import CliRunner

CORPUS_DIR = Path(__file__).parent / "golden" / "cli"
INPUTS = CORPUS_DIR / "inputs"
EXPECTED = CORPUS_DIR / "corpus.json"
ENV = {"FUSION_GRID_POINTS": "64"}
RESULT_KEYS = ("exit_code", "stdout", "stderr", "files")

W = ["--weights", "0.3,0.7"]
Y21 = ",".join(f"{0.1 * (i % 7) - 0.3:g}" for i in range(21))
BEYOND_FLOAT = str(10**400)

# (case id, arguments); every path is relative to the call's directory
CASES = [
    ("pool-linear", ["pool", "--kind", "linear", *W, "a.csv", "b.csv", "-o", "out.csv"]),
    ("pool-linear-zeros", ["pool", "--kind", "linear", *W, "z1.csv", "z2.csv", "-o", "out.csv"]),
    ("pool-generalized-linear", ["pool", "--kind", "generalized-linear", "--weights", "0.5,0.3", "--w0", "0.2", "--q0", "c.csv", "a.csv", "b.csv", "-o", "out.csv"]),
    ("pool-log-linear", ["pool", "--kind", "log-linear", *W, "a.csv", "b.csv", "-o", "out.csv"]),
    ("pool-generalized-log-linear", ["pool", "--kind", "generalized-log-linear", *W, "--xi0", "xi.csv", "a.csv", "b.csv", "-o", "out.csv"]),
    ("pool-holder-0.5", ["pool", "--kind", "holder", "--alpha", "0.5", *W, "a.csv", "b.csv", "-o", "out.csv"]),
    ("pool-holder-neg0.5", ["pool", "--kind", "holder", "--alpha", "-0.5", *W, "a.csv", "b.csv", "-o", "out.csv"]),
    ("pool-holder-2-zeros", ["pool", "--kind", "holder", "--alpha", "2", *W, "z1.csv", "z2.csv", "-o", "out.csv"]),
    ("pool-holder-3-zeros", ["pool", "--kind", "holder", "--alpha", "3", *W, "z1.csv", "a.csv", "-o", "out.csv"]),
    ("pool-inverse-linear", ["pool", "--kind", "inverse-linear", *W, "a.csv", "b.csv", "-o", "out.csv"]),
    ("pool-multiplicative", ["pool", "--kind", "multiplicative", "--q0", "c.csv", "a.csv", "b.csv", "-o", "out.csv"]),
    ("pool-generalized-multiplicative", ["pool", "--kind", "generalized-multiplicative", "--weights", "0.6,0.7", "--q0", "c.csv", "a.csv", "b.csv", "-o", "out.csv"]),
    ("pool-dictatorship", ["pool", "--kind", "dictatorship", "--dictator", "2", "a.csv", "b.csv", "-o", "out.csv"]),
    ("pool-dogmatic", ["pool", "--kind", "dogmatic", "--q0", "c.csv", "a.csv", "b.csv", "-o", "out.csv"]),
    ("pool-chi-identity-zeros", ["pool", "--kind", "chi-transform", "--chi", "identity", *W, "z1.csv", "z2.csv", "-o", "out.csv"]),
    ("pool-chi-log", ["pool", "--kind", "chi-transform", "--chi", "log", *W, "a.csv", "b.csv", "-o", "out.csv"]),
    ("pool-chi-reciprocal", ["pool", "--kind", "chi-transform", "--chi", "reciprocal", *W, "a.csv", "b.csv", "-o", "out.csv"]),
    ("pool-chi-power-2-zeros", ["pool", "--kind", "chi-transform", "--chi", "power", "--chi-alpha", "2", *W, "z1.csv", "z2.csv", "-o", "out.csv"]),
    ("pool-2d-log-linear", ["pool", "--kind", "log-linear", *W, "a2.csv", "b2.csv", "-o", "out.csv"]),
    ("pool-2d-holder-neg0.5", ["pool", "--kind", "holder", "--alpha", "-0.5", *W, "a2.csv", "b2.csv", "-o", "out.csv"]),
    ("pool-json-linear", ["pool", "--kind", "linear", *W, "a.json", "b.json", "-o", "out.csv"]),
    ("pool-json-holder-neg0.5", ["pool", "--kind", "holder", "--alpha", "-0.5", *W, "a.json", "b.json", "-o", "out.csv"]),
    ("pool-json-chi-power-neg0.5", ["pool", "--kind", "chi-transform", "--chi", "power", "--chi-alpha", "-0.5", *W, "a.json", "b.json", "-o", "out.csv"]),
    ("pool-json-inverse-linear", ["pool", "--kind", "inverse-linear", *W, "a.json", "b.json", "-o", "out.csv"]),
    ("pool-json-chi-reciprocal", ["pool", "--kind", "chi-transform", "--chi", "reciprocal", *W, "a.json", "b.json", "-o", "out.csv"]),
    ("pool-json-log-linear", ["pool", "--kind", "log-linear", *W, "a.json", "b.json", "-o", "out.csv"]),
    ("pool-json-chi-log", ["pool", "--kind", "chi-transform", "--chi", "log", *W, "a.json", "b.json", "-o", "out.csv"]),
    ("pool-json-holder-0", ["pool", "--kind", "holder", "--alpha", "0", *W, "a.json", "b.json", "-o", "out.csv"]),
    ("pool-json-holder-1e-9", ["pool", "--kind", "holder", "--alpha", "1e-9", *W, "a.json", "b.json", "-o", "out.csv"]),
    ("pool-json-chi-power-0", ["pool", "--kind", "chi-transform", "--chi", "power", "--chi-alpha", "0", *W, "a.json", "b.json", "-o", "out.csv"]),
    ("pool-json-holder-2", ["pool", "--kind", "holder", "--alpha", "2", *W, "a.json", "b.json", "-o", "out.csv"]),
    ("pool-json-chi-power-2", ["pool", "--kind", "chi-transform", "--chi", "power", "--chi-alpha", "2", *W, "a.json", "b.json", "-o", "out.csv"]),
    ("pool-json-holder-neg400-narrow", ["pool", "--kind", "holder", "--alpha", "-400", "--weights", "0.5,0.5", "narrow-a.json", "narrow-b.json", "-o", "out.csv"]),
    ("pool-json-2d-log-linear", ["pool", "--kind", "log-linear", *W, "a2.json", "b2.json", "-o", "out.csv"]),
    ("pool-json-2d-log-linear-correlated", ["pool", "--kind", "log-linear", "--weights", "0.4,0.6", "c2.json", "d2.json", "-o", "out.csv"]),
    ("divergence-kl", ["divergence", "--kind", "kl", "a.csv", "b.csv"]),
    ("divergence-reverse-kl", ["divergence", "--kind", "reverse-kl", "a.csv", "b.csv"]),
    ("divergence-alpha", ["divergence", "--kind", "alpha", "--alpha", "0.5", "a.csv", "b.csv"]),
    ("divergence-reverse-alpha", ["divergence", "--kind", "reverse-alpha", "--alpha", "0.3", "a.csv", "b.csv"]),
    ("divergence-alpha-0", ["divergence", "--kind", "alpha", "--alpha", "0", "a.csv", "b.csv"]),
    ("divergence-alpha-1", ["divergence", "--kind", "alpha", "--alpha", "1", "a.csv", "b.csv"]),
    # a divergence of an input with itself is 0, never -0 or a round-off
    ("divergence-alpha-2-self", ["divergence", "--kind", "alpha", "--alpha", "2", "a.json", "a.json"]),
    ("divergence-reverse-alpha-self", ["divergence", "--kind", "reverse-alpha", "--alpha", "0.3", "a.csv", "a.csv"]),
    ("divergence-pearson-chi2", ["divergence", "--kind", "pearson-chi2", "a.csv", "c.csv"]),
    ("divergence-l2", ["divergence", "--kind", "l2", "z1.csv", "z2.csv"]),
    ("divergence-2d-kl", ["divergence", "--kind", "kl", "a2.csv", "b2.csv"]),
    ("divergence-json-kl", ["divergence", "--kind", "kl", "a.json", "b.json"]),
    ("chi-distance-identity-zeros", ["divergence", "--kind", "chi-distance", "--chi", "identity", "z1.csv", "z2.csv"]),
    ("chi-distance-log", ["divergence", "--kind", "chi-distance", "--chi", "log", "a.csv", "b.csv"]),
    ("chi-distance-reciprocal", ["divergence", "--kind", "chi-distance", "--chi", "reciprocal", "a.csv", "b.csv"]),
    ("chi-distance-power-2-zeros", ["divergence", "--kind", "chi-distance", "--chi", "power", "--chi-alpha", "2", "z1.csv", "z2.csv"]),
    ("chi-distance-json-power-neg0.5", ["divergence", "--kind", "chi-distance", "--chi", "power", "--chi-alpha", "-0.5", "a.json", "b.json"]),
    ("chi-distance-json-power-600-overflow", ["divergence", "--kind", "chi-distance", "--chi", "power", "--chi-alpha", "600", "narrow-a.json", "narrow-b.json"]),
    ("divergence-chi-distance-power-1e-7", ["divergence", "--kind", "chi-distance", "--chi", "power", "--chi-alpha", "1e-7", "a.json", "b.json"]),
    ("weights-discrepancy", ["weights", "--method", "discrepancy", "a.csv", "b.csv", "c.csv"]),
    ("axiom-check-linear-A2", ["axiom-check", "--kind", "linear", "--weights", "0.5,0.5", "--axiom", "A2", "--trials", "3"]),
    ("axiom-check-holder-A1", ["axiom-check", "--kind", "holder", "--alpha", "0.5", "--weights", "0.3,0.7", "--axiom", "A1", "--trials", "3", "--seed", "1"]),
    ("axiom-check-holder-2-A2", ["axiom-check", "--kind", "holder", "--alpha", "2", "--weights", "0.35,0.65", "--axiom", "A2", "--trials", "3"]),
    ("axiom-check-log-linear-A12", ["axiom-check", "--kind", "log-linear", *W, "--axiom", "A12", "--trials", "3", "--seed", "3"]),
    ("axiom-check-chi-log-A12", ["axiom-check", "--kind", "chi-transform", "--chi", "log", *W, "--axiom", "A12", "--trials", "3", "--seed", "3"]),
    ("supra", ["supra", "--private-shared", "4,1,4,4"]),
    ("supra-y", ["supra", "--private-shared", "4,1,4,4", "--y", Y21]),
    ("supra-model-y", ["supra", "--model", "model.json", "--y", "0.5,-1.2,0.3,2.0,0.7,-0.4"]),
    ("fig4", ["fig4", "-d", "out"]),
    ("invalid-holder-without-alpha", ["pool", "--kind", "holder", *W, "a.csv", "b.csv", "-o", "out.csv"]),
    ("invalid-kl-with-alpha", ["divergence", "--kind", "kl", "--alpha", "3", "a.csv", "b.csv"]),
    ("invalid-discrepancy-with-tol", ["weights", "--method", "discrepancy", "--tol", "1e-3", "a.csv", "b.csv"]),
    ("invalid-min-kld-with-criterion", ["weights", "--method", "min-kld", "--criterion", "logdet", "a.json", "b.json"]),
    ("invalid-chi-distance-log-with-chi-alpha", ["divergence", "--kind", "chi-distance", "--chi", "log", "--chi-alpha", "2", "a.json", "b.json"]),
    ("invalid-chi-reciprocal-with-chi-alpha", ["pool", "--kind", "chi-transform", "--chi", "reciprocal", "--chi-alpha", "7", "--weights", "0.5,0.5", "a.json", "b.json", "-o", "out.csv"]),
    ("invalid-json-not-an-object", ["divergence", "--kind", "kl", "list.json", "a.json"]),
    ("invalid-json-boolean-mean", ["divergence", "--kind", "kl", "bool.json", "a.json"]),
    ("invalid-grid-points", ["divergence", "--kind", "kl", "a.json", "b.json"]),
    ("invalid-supra-model-wrong-size", ["supra", "--model", "model-wrong-size.json"]),
    ("invalid-supra-model-3d-block", ["supra", "--model", "model-3d-block.json"]),
    ("invalid-trials-beyond-float-range", ["axiom-check", "--kind", "linear", "--weights", "0.5,0.5", "--axiom", "A4", "--trials", BEYOND_FLOAT]),
    ("invalid-axiom-check-negative-seed", ["axiom-check", "--kind", "linear", "--weights", "0.5,0.5", "--axiom", "A4", "--trials", "3", "--seed", "-1"]),
    ("invalid-axiom-check-holder-neg1-A2", ["axiom-check", "--kind", "holder", "--alpha", "-1", "--weights", "0.35,0.65", "--axiom", "A2", "--trials", "3"]),
    ("invalid-all-zero-density", ["pool", "--kind", "holder", "--alpha", "2", "--weights", "0.5,0.5", "zero.csv", "flat.csv", "-o", "out.csv"]),
    ("invalid-pool-not-normalized", ["pool", "--kind", "linear", "--weights", "0.5,0.5", "mass2.csv", "mass2.csv", "-o", "out.csv"]),
    ("invalid-alpha-overflow", ["divergence", "--kind", "reverse-alpha", "--alpha", "50", "a.csv", "b.csv"]),
    ("invalid-grid-span-overflow", ["divergence", "--kind", "kl", "wide.csv", "wide.csv"]),
    ("invalid-grid-mismatch-names-the-files", ["pool", "--kind", "linear", "--weights", "0.2,0.3,0.5", "a.csv", "b.csv", "off.csv", "-o", "out.csv"]),
]

# per-row changes to ENV, recorded in the corpus. None unsets a variable: the
# narrow-pair, 2-D JSON and alpha-2 self rows build their Gaussians on the default
# grid, as a call made without FUSION_GRID_POINTS does
ROW_ENV = {
    "divergence-alpha-2-self": {"FUSION_GRID_POINTS": None},
    "pool-json-holder-neg400-narrow": {"FUSION_GRID_POINTS": None},
    "pool-json-2d-log-linear": {"FUSION_GRID_POINTS": None},
    "pool-json-2d-log-linear-correlated": {"FUSION_GRID_POINTS": None},
    "chi-distance-json-power-600-overflow": {"FUSION_GRID_POINTS": None},
    "invalid-grid-points": {"FUSION_GRID_POINTS": "abc"},
}

# rows whose results agree in all but the "kind" they print: a chi transform
# pools, and its axiom report reads, as the pool it reproduces, and an
# exponent 0 is its log limit
SAME_RESULT = [
    ("pool-json-chi-reciprocal", "pool-json-inverse-linear"),
    ("pool-json-chi-log", "pool-json-log-linear"),
    ("pool-json-holder-0", "pool-json-log-linear"),
    ("pool-json-chi-power-0", "pool-json-chi-log"),
    ("pool-json-chi-power-2", "pool-json-holder-2"),
    ("axiom-check-chi-log-A12", "axiom-check-log-linear-A12"),
]


def _trapezoid_normalized(values: np.ndarray, lower: float, upper: float) -> np.ndarray:
    """``values`` divided by their trapezoid integral, one axis at a time."""
    total = values
    for _ in range(values.ndim):
        h = (upper - lower) / (total.shape[0] - 1)
        total = h * (total.sum(axis=0) - 0.5 * (total[0] + total[-1]))
    return values / total


def _csv(values: np.ndarray, lower: float, upper: float) -> str:
    d = values.ndim
    header = [str(d)] + ["%.17g" % lower] * d + ["%.17g" % upper] * d + [str(n) for n in values.shape]
    return "\n".join(["# " + ",".join(header)] + ["%.17g" % v for v in values.ravel()]) + "\n"


def _json(value) -> str:
    return json.dumps(value) + "\n"


def _input_files() -> dict[str, str]:
    """The corpus inputs, by file name, from numpy and json alone."""
    x = np.linspace(-8.0, 8.0, 64)

    def gauss(mean, var):
        return _trapezoid_normalized(np.exp(-0.5 * (x - mean) ** 2 / var), -8.0, 8.0)

    def bump(mid, half):  # exactly 0 outside (mid - half, mid + half)
        return _trapezoid_normalized(np.maximum(0.0, 1.0 - ((x - mid) / half) ** 2), -8.0, 8.0)

    t = np.linspace(-6.0, 6.0, 17)
    u, v = np.meshgrid(t, t, indexing="ij")
    eye2 = [[1.0, 0.0], [0.0, 1.0]]
    files = {
        "a.csv": _csv(gauss(-1.0, 1.0), -8.0, 8.0),
        "b.csv": _csv(gauss(1.5, 2.0), -8.0, 8.0),
        "c.csv": _csv(gauss(0.0, 4.0), -8.0, 8.0),
        "xi.csv": _csv(1.0 + 0.5 * np.sin(x), -8.0, 8.0),
        "z1.csv": _csv(bump(-1.0, 3.0), -8.0, 8.0),
        "z2.csv": _csv(bump(1.0, 4.0), -8.0, 8.0),
        "zero.csv": _csv(np.zeros(64), -8.0, 8.0),
        "flat.csv": _csv(np.full(64, 0.0625), -8.0, 8.0),  # integrates to 1
        "mass2.csv": _csv(np.full(64, 0.125), -8.0, 8.0),  # integrates to 2
        "wide.csv": _csv(np.full(16, 0.5), -1e308, 1e308),  # finite bounds whose span overflows
        "off.csv": _csv(_trapezoid_normalized(np.exp(-0.5 * np.linspace(-6.0, 6.0, 64) ** 2), -6.0, 6.0), -6.0, 6.0),
        "a2.csv": _csv(_trapezoid_normalized(np.exp(-0.5 * (u**2 + v**2 - u * v) / 1.5), -6.0, 6.0), -6.0, 6.0),
        "b2.csv": _csv(_trapezoid_normalized(np.exp(-0.5 * ((u - 1.0) ** 2 + (v + 0.5) ** 2 / 2.0)), -6.0, 6.0), -6.0, 6.0),
        "a.json": _json({"mean": [-1.0], "cov": [[1.0]]}),
        "b.json": _json({"mean": [1.5], "cov": [[2.0]]}),
        # powers of this pair overflow
        "narrow-a.json": _json({"mean": [0.0], "cov": [[0.01]]}),
        "narrow-b.json": _json({"mean": [0.05], "cov": [[0.01]]}),
        # 2-D pairs whose log-linear pool is covariance intersection; the second is
        # correlated (rho about 0.9), where the grid log-density has its largest rounding error
        "a2.json": _json({"mean": [0.5, -0.3], "cov": [[1.0, 0.3], [0.3, 2.0]]}),
        "b2.json": _json({"mean": [-0.4, 0.6], "cov": [[1.5, -0.2], [-0.2, 0.8]]}),
        "c2.json": _json({"mean": [0.5, -0.3], "cov": [[1.0, 0.9], [0.9, 1.0]]}),
        "d2.json": _json({"mean": [0.3, -0.1], "cov": [[1.1, 0.9215], [0.9215, 0.95]]}),
        "list.json": _json([1, 2]),
        "bool.json": _json({"mean": [True], "cov": [[2.0]]}),  # numpy would read true as 1.0
        # two observation blocks with independent (block-diagonal) noise, where
        # the fused posterior is the all-data oracle
        "model.json": _json({
            "H_blocks": [[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [[1.0, -1.0], [0.5, 2.0], [0.0, 1.0]]],
            "Sigma": [
                [1.0, 0.3, 0.0, 0.0, 0.0, 0.0],
                [0.3, 2.0, 0.4, 0.0, 0.0, 0.0],
                [0.0, 0.4, 1.5, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.8, -0.2, 0.1],
                [0.0, 0.0, 0.0, -0.2, 1.2, 0.0],
                [0.0, 0.0, 0.0, 0.1, 0.0, 0.6],
            ],
            "prior_mean": [0.2, -0.1],
            "prior_cov": [[2.0, 0.3], [0.3, 1.0]],
        }),
        # one parameter with a 2 x 2 prior covariance
        "model-wrong-size.json": _json({"H_blocks": [[[1.0]], [[1.0]]], "Sigma": eye2, "prior_mean": [0.0], "prior_cov": eye2}),
        "model-3d-block.json": _json({"H_blocks": [[[[1.0], [0.0]], [[0.0], [1.0]]]], "Sigma": eye2, "prior_mean": [0.0, 0.0], "prior_cov": eye2}),
    }
    return files


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_case(call, case_id: str, args: list[str], workdir: Path) -> dict:
    """Run one call in ``workdir``, with a copy of the inputs, and describe what it did.

    ``call(args, env, workdir)`` runs the command line in ``workdir`` with ``env``
    changing the environment and returns its exit code, stdout and stderr.
    """
    inputs = set(os.listdir(INPUTS))
    # a second run in one directory reuses the first run's copies: copying over
    # them would truncate each one, which took up to 50 ms a file on ext4 with discard
    for name in inputs - set(os.listdir(workdir)):
        shutil.copy(INPUTS / name, workdir / name)
    exit_code, stdout, stderr = call(args, {**ENV, **ROW_ENV.get(case_id, {})}, workdir)
    written = {
        path.relative_to(workdir).as_posix(): _sha256(path)
        for path in sorted(workdir.rglob("*"))
        if path.is_file() and path.relative_to(workdir).as_posix() not in inputs
    }
    return {"exit_code": exit_code, "stdout": stdout, "stderr": stderr, "files": written}


def in_process(args: list[str], env: dict, workdir: Path) -> tuple[int, str, str]:
    """A ``call`` through click's test runner, in this process."""
    from pdffusion.cli import main  # here, so that a replay through a command never imports it

    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        result = CliRunner().invoke(main, args, env=env)
    finally:
        os.chdir(cwd)
    return result.exit_code, result.stdout, result.stderr


def through(command: list[str]):
    """A ``call`` that runs ``command`` and the arguments as a fresh process.

    Each call runs in its own directory, so a relative ``PYTHONPATH`` entry is
    made absolute against the working directory of this process.
    """

    def call(args: list[str], env: dict, workdir: Path) -> tuple[int, str, str]:
        child_env = dict(os.environ)
        if "PYTHONPATH" in child_env:
            entries = child_env["PYTHONPATH"].split(os.pathsep)
            child_env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) if p else p for p in entries)
        for name, value in env.items():
            if value is None:
                child_env.pop(name, None)
            else:
                child_env[name] = value
        result = subprocess.run([*command, *args], cwd=workdir, env=child_env, capture_output=True, timeout=120)
        return result.returncode, result.stdout.decode(errors="replace"), result.stderr.decode(errors="replace")

    return call


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def pinned(row: dict) -> dict:
    """What a replay of a corpus row must reproduce: the one comparison both runners make."""
    return {key: row[key] for key in RESULT_KEYS}


def replay(command: list[str], cases=CASES) -> list[str]:
    """Run ``cases`` through ``command``; the ids of the rows that differ from the corpus, each named on stderr.

    A row that writes a file runs a second time in the same directory, over
    its own outputs, and must match again.
    """
    expected = load_expected()
    call = through(command)
    mismatched = []
    for case_id, args in cases:
        want = pinned(expected[case_id])
        with tempfile.TemporaryDirectory() as tmp:
            for run in ("", " (second run)")[: 2 if want["files"] else 1]:
                got = run_case(call, case_id, args, Path(tmp))
                if got != want:
                    differ = [key for key in RESULT_KEYS if got[key] != want[key]]
                    print(f"{case_id}{run}: {', '.join(differ)} differ; got {json.dumps(got)[:400]}", file=sys.stderr)
                    mismatched.append(case_id)
                    break
    return mismatched


def test_inputs_match_their_generator():
    assert sorted(os.listdir(INPUTS)) == sorted(_input_files())
    for name, text in _input_files().items():
        assert (INPUTS / name).read_text() == text, name


def test_corpus_lists_every_case():
    assert list(load_expected()) == [case_id for case_id, _ in CASES]


def pytest_generate_tests(metafunc):
    # parametrized here, so that the replay runs without pytest installed
    if "case_id" in metafunc.fixturenames:
        metafunc.parametrize("case_id, args", CASES, ids=[case_id for case_id, _ in CASES])


def test_call_replays(case_id, args, tmp_path):
    want = load_expected()[case_id]
    assert want["args"] == args
    assert want.get("env") == ROW_ENV.get(case_id)
    assert run_case(in_process, case_id, args, tmp_path) == pinned(want)


def test_transforms_agree_with_the_pools_they_reproduce():
    def without_kind(row):
        result = pinned(row)
        result["stdout"] = {k: v for k, v in json.loads(row["stdout"]).items() if k != "kind"}
        return result

    expected = load_expected()
    for chi, pooled in SAME_RESULT:
        assert without_kind(expected[chi]) == without_kind(expected[pooled]), (chi, pooled)


def test_alpha_divergence_rows_at_0_and_1_print_the_kl_rows():
    # the alpha family's limits: alpha = 0 is KL(q || p), alpha = 1 is KL(p || q)
    expected = load_expected()
    for limit, kl in (("divergence-alpha-0", "divergence-reverse-kl"), ("divergence-alpha-1", "divergence-kl")):
        value, want = float(expected[limit]["stdout"]), float(expected[kl]["stdout"])
        assert abs(value - want) <= 1e-15 * want, (limit, value, want)


def test_supra_model_row_pins_the_oracle():
    # the paper's exactness result: with block-diagonal noise the fused posterior
    # is the all-data oracle, so the replays check it through the installed entry points
    row = json.loads(load_expected()["supra-model-y"]["stdout"])
    for key in ("mean", "cov"):
        gap = np.max(np.abs(np.array(row["posterior"][key]) - np.array(row["oracle"][key])))
        assert gap <= 1e-12, (key, gap)


def test_2d_log_linear_rows_pin_covariance_intersection():
    # the log-linear pool of Gaussians is covariance intersection: precisions
    # averaged by the weights, on the 257 x 257 grid of each row
    from closed_forms import gaussian_power_product  # here: the replay runs without hypothesis
    from pdffusion.gaussian import Gaussian

    expected = load_expected()
    for case_id in ("pool-json-2d-log-linear", "pool-json-2d-log-linear-correlated"):
        args = expected[case_id]["args"]
        weights = [float(v) for v in args[args.index("--weights") + 1].split(",")]
        inputs = [json.loads((INPUTS / name).read_text()) for name in args[-4:-2]]
        mean, cov = gaussian_power_product([Gaussian(g["mean"], g["cov"]) for g in inputs], weights)
        row = json.loads(expected[case_id]["stdout"])
        for key, want in (("mean", mean), ("cov", cov)):
            gap = np.max(np.abs(np.array(row[key]) - want))
            assert gap <= 1e-9, (case_id, key, gap)


def test_replay_through_python_m_matches(monkeypatch):
    import pdffusion

    # the child imports this pdffusion from its own directory
    src = str(Path(pdffusion.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # the two rows that write files replay twice, the second time over their own outputs
    names = ("supra", "invalid-axiom-check-negative-seed", "pool-2d-log-linear", "fig4")
    rows = [case for case in CASES if case[0] in names]
    assert replay([sys.executable, "-m", "pdffusion.cli"], rows) == []


def test_replay_with_a_relative_pythonpath(monkeypatch):
    import pdffusion

    # PYTHONPATH=src from the directory that holds src, as the tier-1 command sets it
    src = Path(pdffusion.__file__).resolve().parents[1]
    monkeypatch.chdir(src.parent)
    monkeypatch.setenv("PYTHONPATH", src.name)
    rows = [case for case in CASES if case[0] == "divergence-kl"]
    assert replay([sys.executable, "-m", "pdffusion.cli"], rows) == []


def test_replay_names_a_row_whose_bytes_differ(capsys):
    assert replay([sys.executable, "-c", "print('other')"], CASES[:1]) == ["pool-linear"]
    assert capsys.readouterr().err.startswith("pool-linear: stdout, files differ;")


def test_replay_names_a_row_whose_second_run_differs(monkeypatch, capsys):
    # a command that appends to its output writes the pinned bytes on a first run only
    row = {"exit_code": 0, "stdout": "", "stderr": "", "files": {"out.csv": _sha256(INPUTS / "a.csv")}}
    monkeypatch.setitem(globals(), "load_expected", lambda: {"pool-linear": row})
    append = "import shutil; shutil.copyfileobj(open('a.csv'), open('out.csv', 'a'))"
    assert replay([sys.executable, "-c", append], CASES[:1]) == ["pool-linear"]
    assert capsys.readouterr().err.startswith("pool-linear (second run): files differ;")


def regenerate() -> None:
    """Write the inputs and every row's expected result from this pdffusion, in process."""
    # pytest turns a warning from pdffusion into an error; capture under the same rule
    warnings.filterwarnings("error", category=RuntimeWarning, module="pdffusion")
    if INPUTS.exists():
        shutil.rmtree(INPUTS)
    INPUTS.mkdir(parents=True)
    for name, text in _input_files().items():
        (INPUTS / name).write_text(text)
    corpus = {}
    for case_id, args in CASES:
        env = {"env": ROW_ENV[case_id]} if case_id in ROW_ENV else {}
        with tempfile.TemporaryDirectory() as tmp:
            corpus[case_id] = {"args": args, **env, **run_case(in_process, case_id, args, Path(tmp))}
    EXPECTED.write_text(json.dumps(corpus, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--replay"] and sys.argv[2:]:
        command = sys.argv[2:]
        mismatched = replay(command)
        print(f"{len(CASES) - len(mismatched)} of {len(CASES)} corpus rows match through {' '.join(command)}")
        sys.exit(1 if mismatched else 0)
    if sys.argv[1:]:
        sys.exit("usage: python tests/test_cli_corpus.py [--replay COMMAND...]")
    regenerate()
