"""Workload `cli-session`: a scripted list of fresh-process CLI calls.

Each op starts ``python -m pdffusion.cli`` once, as a user's shell does,
so import dominates it. The script covers all six subcommands, reads 1-D
2048-node and 2-D 257x257 CSV files and Gaussian JSON, and writes CSV
(``pool -o`` and ``fig4``). Inputs are made from the seed at set-up, by
NumPy alone, into the run's work directory; the program sees only the
files. A round is the whole script, in order.

With ``traced`` the calls run under ``cli_traced.py``, which installs the
span recorder in the child and writes its spans to a file per call.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

import grid_fusion
import oracle
from ops import Op

HERE = os.path.dirname(os.path.abspath(__file__))
FLOAT_FMT = "%.17g"
CALL_TIMEOUT_S = 120
# check_axiom seeds the script draws from; selftest.py confirms the two
# verdicts on each, so a run never rests on an unverified random draw
AXIOM_SEEDS = tuple(range(8))
# (kind, weights, axiom) checked by `axiom-check`, both satisfied per
# expected_matrix(): A4 goes through event_probability, A10 through
# bayes_update
AXIOM_CHECKS = (("linear", "0.4,0.6", "A4"), ("log-linear", "0.3,0.7", "A10"))
# rounds in a traced run (one round is about 20 s untraced on the seed)
TRACED_ROUNDS = 1
FIG4_PANELS = {
    "fig4a.csv": ([(np.array([-2.5]), np.array([[1.0]])), (np.array([2.5]), np.array([[1.0]]))], -10.5, 10.5),
    "fig4b.csv": (
        [(np.array([0.0]), np.array([[5.0]])), (np.array([0.0]), np.array([[0.5]]))],
        -8.0 * np.sqrt(5.0),
        8.0 * np.sqrt(5.0),
    ),
}


def write_csv(path, values, lower, upper, shape):
    """The package's grid CSV layout: one header line, then row-major values."""
    header = ",".join(
        [f"# {len(shape)}"] + [FLOAT_FMT % v for v in lower] + [FLOAT_FMT % v for v in upper] + [str(n) for n in shape]
    )
    with open(path, "w") as fh:
        fh.write(header + "\n" + "\n".join(FLOAT_FMT % v for v in np.ravel(values)) + "\n")


def read_csv(path):
    """(values, lower, upper, shape) of a grid CSV."""
    with open(path) as fh:
        fields = fh.readline().lstrip("#").split(",")
        dims = int(fields[0])
        lower = np.array([float(v) for v in fields[1 : 1 + dims]])
        upper = np.array([float(v) for v in fields[1 + dims : 1 + 2 * dims]])
        shape = tuple(int(v) for v in fields[1 + 2 * dims :])
        values = np.loadtxt(fh, ndmin=1)
    return values.reshape(shape), lower, upper, shape


def write_json(path, g):
    with open(path, "w") as fh:
        json.dump({"mean": np.asarray(g[0]).tolist(), "cov": np.asarray(g[1]).tolist()}, fh)


class Workload:
    traced_rounds = TRACED_ROUNDS

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.traced = False
        self.spans_dir = os.path.join(workdir, "spans")
        self.calls = 0
        for sub in ("in", "out", "spans"):
            os.makedirs(os.path.join(workdir, sub), exist_ok=True)
        rng = np.random.default_rng([seed, 0])
        self.ops = self._make_inputs(rng)

    # ------------------------------------------------------------ calls

    def call(self, args):
        """Run one CLI call; returns (exit code, stdout, stderr)."""
        env = dict(os.environ)
        if self.traced:
            self.calls += 1
            env["PERFBENCH_SPANS"] = os.path.join(self.spans_dir, f"{self.calls}.npz")
            env["PERFBENCH_SPAWN_T"] = repr(time.monotonic())
            cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"), *args]
        else:
            cmd = [sys.executable, "-m", "pdffusion.cli", *args]
        proc = subprocess.run(
            cmd, cwd=self.workdir, env=env, capture_output=True, text=True, timeout=CALL_TIMEOUT_S
        )
        return proc.returncode, proc.stdout, proc.stderr

    def _path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def _op(self, name, args, check):
        def judge_call(out):
            code, stdout, stderr = out
            if code != 0:
                try:
                    err = json.loads(stderr.strip().splitlines()[-1])
                    return f"{err['error']}: {err['message']} (exit {code})"
                except (ValueError, KeyError, IndexError):
                    return f"exit {code}: {stderr.strip()[-300:]}"
            try:
                return check(stdout)
            except (ValueError, KeyError, OSError) as exc:
                return f"wrong: unreadable output ({type(exc).__name__}: {exc})"

        return Op(name, lambda: self.call(args), judge_call)

    # ----------------------------------------------------------- inputs

    def _grid_files(self, stem, gs, lower, upper, shape):
        paths = []
        for k, (m, c) in enumerate(gs):
            path = self._path("in", f"{stem}{k}.csv")
            write_csv(path, oracle.pdf_on_grid(m, c, lower, upper, shape), lower, upper, shape)
            paths.append(path)
        return paths

    def _json_files(self, stem, gs):
        paths = []
        for k, g in enumerate(gs):
            path = self._path("in", f"{stem}{k}.json")
            write_json(path, g)
            paths.append(path)
        return paths

    def _make_inputs(self, rng):
        shape1, shape2 = grid_fusion.SHAPES[1], grid_fusion.SHAPES[2]
        g1, lo1, hi1 = grid_fusion.draw_profile(rng, 1, 3, "plain", positive=True)
        g2, lo2, hi2 = grid_fusion.draw_profile(rng, 2, 3, "correlated", positive=True)
        one = self._grid_files("one", g1, lo1, hi1, shape1)
        two = self._grid_files("two", g2, lo2, hi2, shape2)
        gk = grid_fusion._affine(rng, grid_fusion.MIN_KLD_PROBLEMS["1d"])
        lok, hik = oracle.union_bounds(gk)
        kld = self._grid_files("kld", gk, lok, hik, shape1)
        gl2 = [(rng.normal(0.0, 1.5, 1), grid_fusion._cov(rng, 1, "plain", False)) for _ in range(2)]
        l2 = self._json_files("l2_", gl2)
        gci = grid_fusion._affine(rng, grid_fusion.CI_PROBLEM, scale=False)
        ci = self._json_files("ci", gci)
        mirrored = self._json_files("mirror", [(np.array([-2.5]), np.array([[1.0]])), (np.array([2.5]), np.array([[1.0]]))])
        g2d, _, _ = grid_fusion.draw_profile(rng, 2, 2, "plain", positive=True)
        two_json = self._json_files("two", g2d)

        w3 = rng.dirichlet(np.full(3, 2.0))
        w2 = rng.dirichlet(np.full(2, 2.0))
        w3_text = ",".join(FLOAT_FMT % v for v in w3)
        w2_text = ",".join(FLOAT_FMT % v for v in w2)
        # the parsed weights must still sum to 1 within the CLI's 1e-9
        w3, w2 = np.array([float(v) for v in w3_text.split(",")]), np.array([float(v) for v in w2_text.split(",")])
        div_alpha = float(np.round(rng.uniform(0.2, 0.8), 3))
        axiom_seed = int(rng.choice(AXIOM_SEEDS))
        y = np.round(rng.normal(size=21), 6)

        def out(name):
            return self._path("out", name)

        def moments_of(stdout):
            payload = json.loads(stdout)
            return np.array(payload["mean"]), np.array(payload["cov"])

        def pool_check(expected, path):
            def check(stdout):
                mean, cov = moments_of(stdout)
                cause = oracle.moments_mismatch(mean, cov, expected)
                if cause:
                    return cause
                # the written CSV must hold the density whose moments were printed
                return oracle.moments_mismatch(*oracle.grid_moments(*read_csv(path)), (mean, cov), tol=1e-9)

            return check

        def holder_check(stdout):
            values, lower, upper, shape = read_csv(out("holder.csv"))
            stack = np.stack([read_csv(p)[0] for p in one[:2]])
            return oracle.mismatch(values, oracle.power_mean_pool(stack, w2, 2.0, lower, upper, shape))

        def value_check(expected):
            return lambda stdout: oracle.value_mismatch(float(stdout), expected)

        def min_kld_check(stdout):
            res = json.loads(stdout)
            closed = oracle.min_kld_objective(gk, np.array(res["weights"]))
            cause = oracle.value_mismatch(res["objective"], closed)
            best = oracle.simplex_minimum(lambda v: oracle.min_kld_objective(gk, v), len(gk))
            return cause or oracle.optimum_mismatch(closed, best)

        def discrepancy_check(stdout):
            w = np.array(json.loads(stdout)["weights"])
            expected = oracle.discrepancy_weights(g2)
            err = float(np.max(np.abs(w - expected)))
            return None if err <= oracle.DIVERGENCE_TOL else f"wrong: weights {w} vs {expected}"

        def ci_check(stdout):
            w = np.array(json.loads(stdout)["weights"])
            best = oracle.simplex_minimum(lambda v: oracle.ci_size(gci, v, "trace"), len(gci))
            return oracle.optimum_mismatch(oracle.ci_size(gci, w, "trace"), best)

        def axiom_check(stdout):
            report = json.loads(stdout)
            if report["passed"]:
                return None
            return f"wrong: {report['kind']} x {report['axiom']} should pass (seed {axiom_seed})"

        def supra_check(stdout):
            w = np.array(json.loads(stdout)["weights"])
            expected = oracle.private_shared_weights(3, 4, [1, 4, 4])
            err = float(np.max(np.abs(w - expected)))
            return None if err <= oracle.SUPRA_TOL else f"wrong: weights {w} vs {expected}"

        def fig4_check(stdout):
            for name, (gs, lower, upper) in FIG4_PANELS.items():
                path = self._path("out", "fig4", name)
                with open(path) as fh:
                    columns = fh.readline().strip().split(",")
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
                if data.shape != (2048, len(columns)):
                    return f"wrong: {name} has shape {data.shape}"
                col = dict(zip(columns, data.T))
                bounds = ([lower], [upper], (2048,))
                for column, expected in (
                    ("log_linear", oracle.ci(gs, [0.5, 0.5])),
                    ("holder_alpha_1", oracle.mixture_moments(gs, [0.5, 0.5])),
                ):
                    cause = oracle.moments_mismatch(*oracle.grid_moments(col[column], *bounds), expected)
                    if cause:
                        return f"{name} {column}: {cause}"
            return None

        return [
            self._op(
                "cli.pool-linear-1d",
                ["pool", "--kind", "linear", "--weights", w3_text, *one, "-o", out("linear.csv")],
                pool_check(oracle.mixture_moments(g1, w3), out("linear.csv")),
            ),
            self._op(
                "cli.pool-log-linear-2d",
                ["pool", "--kind", "log-linear", "--weights", w3_text, *two, "-o", out("log-linear.csv")],
                pool_check(oracle.ci(g2, w3), out("log-linear.csv")),
            ),
            self._op(
                "cli.pool-holder-1d",
                ["pool", "--kind", "holder", "--alpha", "2", "--weights", w2_text, *one[:2], "-o", out("holder.csv")],
                holder_check,
            ),
            self._op("cli.divergence-kl-1d", ["divergence", "--kind", "kl", *one[:2]], value_check(oracle.kl(g1[0], g1[1]))),
            self._op(
                "cli.divergence-alpha-2d",
                ["divergence", "--kind", "alpha", "--alpha", repr(div_alpha), *two[:2]],
                value_check(oracle.alpha_div(g2[0], g2[1], div_alpha)),
            ),
            self._op("cli.divergence-l2-json", ["divergence", "--kind", "l2", *l2], value_check(oracle.l2(*gl2))),
            self._op("cli.weights-min-kld-1d", ["weights", "--method", "min-kld", *kld], min_kld_check),
            self._op("cli.weights-discrepancy-2d", ["weights", "--method", "discrepancy", *two], discrepancy_check),
            self._op("cli.weights-ci-json", ["weights", "--method", "ci", "--criterion", "trace", *ci], ci_check),
            *(
                self._op(
                    f"cli.axiom-check-{kind}-{axiom}",
                    ["axiom-check", "--kind", kind, "--weights", weights, "--axiom", axiom,
                     "--trials", "100", "--seed", str(axiom_seed)],
                    axiom_check,
                )
                for kind, weights, axiom in AXIOM_CHECKS
            ),
            self._op(
                "cli.supra",
                ["supra", "--private-shared", "4,1,4,4", "--y", ",".join(repr(float(v)) for v in y)],
                supra_check,
            ),
            self._op("cli.fig4", ["fig4", "-d", out("fig4")], fig4_check),
            self._op(
                "cli.pool-linear-mirrored-json",
                ["pool", "--kind", "linear", "--weights", "0.5,0.5", *mirrored, "-o", out("mirrored.csv")],
                pool_check(oracle.mixture_moments(
                    [(np.array([-2.5]), np.array([[1.0]])), (np.array([2.5]), np.array([[1.0]]))], [0.5, 0.5]
                ), out("mirrored.csv")),
            ),
            self._op(
                "cli.pool-2d-json",
                ["pool", "--kind", "log-linear", "--weights", w2_text, *two_json, "-o", out("two-json.csv")],
                pool_check(oracle.ci(g2d, w2), out("two-json.csv")),
            ),
        ]

    def round(self, r: int) -> list[Op]:
        return self.ops
