"""Replay the golden CLI corpus: the outputs the CLI promises to keep byte for byte.

Each case is one call of the command line through click's test runner, in a
fresh directory that holds a copy of the corpus inputs. The corpus pins its
exit code, stdout, stderr and the sha256 of every file it writes, so a call
that fails must also leave no output behind.

The inputs are small grid CSVs (1-D on 64 nodes, 2-D on 17x17) and 1-D
Gaussian JSON, and every call runs with ``FUSION_GRID_POINTS=64``. They are
written here from numpy alone, not through pdffusion, so regenerating the
corpus cannot move its inputs. Left out on purpose:

- 2-D JSON outputs, which are promised only to 1e-12 (the grid log-density
  is a BLAS product);
- ``min-kld`` and ``ci`` weights, which are fixed only to ``--tol``;
- calls whose output is known to be wrong today: a narrow Gaussian whose
  grid values underflow, divergent or near-boundary alpha integrals of
  Gaussians, improper multiplicative pools, and min-KLD weights of an
  affinely dependent profile;
- powers of densities that overflow, which raise ``BoundednessError``.

Regenerate the inputs and the expectations with

    PYTHONPATH=src python tests/test_cli_corpus.py

and review the diff of ``tests/golden/cli/``.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from pdffusion.cli import main

CORPUS_DIR = Path(__file__).parent / "golden" / "cli"
INPUTS = CORPUS_DIR / "inputs"
EXPECTED = CORPUS_DIR / "corpus.json"
ENV = {"FUSION_GRID_POINTS": "64"}

W = ["--weights", "0.3,0.7"]
Y21 = ",".join(f"{0.1 * (i % 7) - 0.3:g}" for i in range(21))

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
    ("divergence-kl", ["divergence", "--kind", "kl", "a.csv", "b.csv"]),
    ("divergence-reverse-kl", ["divergence", "--kind", "reverse-kl", "a.csv", "b.csv"]),
    ("divergence-alpha", ["divergence", "--kind", "alpha", "--alpha", "0.5", "a.csv", "b.csv"]),
    ("divergence-reverse-alpha", ["divergence", "--kind", "reverse-alpha", "--alpha", "0.3", "a.csv", "b.csv"]),
    ("divergence-pearson-chi2", ["divergence", "--kind", "pearson-chi2", "a.csv", "c.csv"]),
    ("divergence-l2", ["divergence", "--kind", "l2", "z1.csv", "z2.csv"]),
    ("divergence-2d-kl", ["divergence", "--kind", "kl", "a2.csv", "b2.csv"]),
    ("divergence-json-kl", ["divergence", "--kind", "kl", "a.json", "b.json"]),
    ("chi-distance-identity-zeros", ["divergence", "--kind", "chi-distance", "--chi", "identity", "z1.csv", "z2.csv"]),
    ("chi-distance-log", ["divergence", "--kind", "chi-distance", "--chi", "log", "a.csv", "b.csv"]),
    ("chi-distance-reciprocal", ["divergence", "--kind", "chi-distance", "--chi", "reciprocal", "a.csv", "b.csv"]),
    ("chi-distance-power-2-zeros", ["divergence", "--kind", "chi-distance", "--chi", "power", "--chi-alpha", "2", "z1.csv", "z2.csv"]),
    ("chi-distance-json-power-neg0.5", ["divergence", "--kind", "chi-distance", "--chi", "power", "--chi-alpha", "-0.5", "a.json", "b.json"]),
    ("weights-discrepancy", ["weights", "--method", "discrepancy", "a.csv", "b.csv", "c.csv"]),
    ("axiom-check-linear-A2", ["axiom-check", "--kind", "linear", "--weights", "0.5,0.5", "--axiom", "A2", "--trials", "3"]),
    ("axiom-check-holder-A1", ["axiom-check", "--kind", "holder", "--alpha", "0.5", "--weights", "0.3,0.7", "--axiom", "A1", "--trials", "3", "--seed", "1"]),
    ("supra", ["supra", "--private-shared", "4,1,4,4"]),
    ("supra-y", ["supra", "--private-shared", "4,1,4,4", "--y", Y21]),
    ("fig4", ["fig4", "-d", "out"]),
    ("invalid-holder-without-alpha", ["pool", "--kind", "holder", *W, "a.csv", "b.csv", "-o", "out.csv"]),
    ("invalid-kl-with-alpha", ["divergence", "--kind", "kl", "--alpha", "3", "a.csv", "b.csv"]),
    ("invalid-discrepancy-with-tol", ["weights", "--method", "discrepancy", "--tol", "1e-3", "a.csv", "b.csv"]),
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


def _input_files() -> dict[str, str]:
    """The corpus inputs, by file name, from numpy alone."""
    x = np.linspace(-8.0, 8.0, 64)

    def gauss(mean, var):
        return _trapezoid_normalized(np.exp(-0.5 * (x - mean) ** 2 / var), -8.0, 8.0)

    def bump(mid, half):  # exactly 0 outside (mid - half, mid + half)
        return _trapezoid_normalized(np.maximum(0.0, 1.0 - ((x - mid) / half) ** 2), -8.0, 8.0)

    t = np.linspace(-6.0, 6.0, 17)
    u, v = np.meshgrid(t, t, indexing="ij")
    files = {
        "a.csv": _csv(gauss(-1.0, 1.0), -8.0, 8.0),
        "b.csv": _csv(gauss(1.5, 2.0), -8.0, 8.0),
        "c.csv": _csv(gauss(0.0, 4.0), -8.0, 8.0),
        "xi.csv": _csv(1.0 + 0.5 * np.sin(x), -8.0, 8.0),
        "z1.csv": _csv(bump(-1.0, 3.0), -8.0, 8.0),
        "z2.csv": _csv(bump(1.0, 4.0), -8.0, 8.0),
        "a2.csv": _csv(_trapezoid_normalized(np.exp(-0.5 * (u**2 + v**2 - u * v) / 1.5), -6.0, 6.0), -6.0, 6.0),
        "b2.csv": _csv(_trapezoid_normalized(np.exp(-0.5 * ((u - 1.0) ** 2 + (v + 0.5) ** 2 / 2.0)), -6.0, 6.0), -6.0, 6.0),
        "a.json": '{"mean": [-1.0], "cov": [[1.0]]}\n',
        "b.json": '{"mean": [1.5], "cov": [[2.0]]}\n',
    }
    return files


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_case(args: list[str], workdir: Path) -> dict:
    """Run one call in ``workdir``, a fresh copy of the inputs, and describe what it did."""
    inputs = set(os.listdir(INPUTS))
    for name in inputs:
        shutil.copy(INPUTS / name, workdir / name)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        result = CliRunner().invoke(main, args, env=ENV)
    finally:
        os.chdir(cwd)
    written = {
        path.relative_to(workdir).as_posix(): _sha256(path)
        for path in sorted(workdir.rglob("*"))
        if path.is_file() and path.relative_to(workdir).as_posix() not in inputs
    }
    return {
        "exit_code": result.exit_code,
        "stdout": result.stdout,
        "stderr": result.stderr,
        "files": written,
    }


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


def test_inputs_match_their_generator():
    assert sorted(os.listdir(INPUTS)) == sorted(_input_files())
    for name, text in _input_files().items():
        assert (INPUTS / name).read_text() == text, name


def test_corpus_lists_every_case(expected):
    assert list(expected) == [case_id for case_id, _ in CASES]


@pytest.mark.parametrize("case_id, args", CASES, ids=[case_id for case_id, _ in CASES])
def test_call_replays(case_id, args, tmp_path, expected):
    want = expected[case_id]
    assert want["args"] == args
    got = run_case(args, tmp_path)
    assert got == {k: want[k] for k in got}


if __name__ == "__main__":
    import tempfile

    # pytest turns a warning from pdffusion into an error; capture under the same rule
    warnings.filterwarnings("error", category=RuntimeWarning, module="pdffusion")
    if INPUTS.exists():
        shutil.rmtree(INPUTS)
    INPUTS.mkdir(parents=True)
    for name, text in _input_files().items():
        (INPUTS / name).write_text(text)
    corpus = {}
    for case_id, args in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            corpus[case_id] = {"args": args, **run_case(args, Path(tmp))}
    EXPECTED.write_text(json.dumps(corpus, indent=1) + "\n")
