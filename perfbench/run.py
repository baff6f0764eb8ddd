"""pdffusion benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {cli-session,grid-fusion}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: it imports the package from ``src``
and writes only under ``.perfbench/`` there. It prints a readable summary,
then, as its last line, ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones. Load is closed loop: one client,
each op starting when the previous one has been checked. See README.md in
this directory for the workloads, the metrics and the first numbers.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-session", "grid-fusion")
# op_tail_ms: the highest percentile with at least ten ops beyond it at the
# count of timed ops in a 30 s run (15 CLI calls, 465 to 961 fusion ops);
# with fewer than 20 CLI calls no percentile has ten beyond, so the slowest
# call is reported
TAIL_PERCENTILE = {"cli-session": 100.0, "grid-fusion": 97.0}
SETUP_SAMPLES = 7
# every process of a run must be done within this budget
BUDGET_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, HERE)
from ops import is_known  # noqa: E402


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def pinned_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("FUSION_GRID_POINTS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(cmd, env, timeout, cwd):
    """Run a child to completion; its stdout goes to our stderr.

    The child leads its own process group, so on timeout the CLI calls it
    started are stopped with it.
    """
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{cmd[1:3]} did not finish within {timeout:.0f} s")
    if code != 0:
        raise BenchError(f"{' '.join(cmd[1:4])} exited with {code}")


def run_worker(args, root, env, workdir, deadline, tag, setup_only=False, trace_dir=None):
    result = os.path.join(workdir, f"result-{tag}.json")
    sub = os.path.join(workdir, tag)
    os.makedirs(sub)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", sub, "--result", result,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    env = dict(env, PERFBENCH_SPAWN_T=repr(time.monotonic()))
    spawned = float(env["PERFBENCH_SPAWN_T"])
    spawn(cmd, env, deadline - time.monotonic(), root)
    with open(result) as fh:
        data = json.load(fh)
    data["setup_s"] = data["t_ready"] - spawned
    return data


def setup_sample(args, root, env, workdir, deadline, i):
    return run_worker(args, root, env, workdir, deadline, f"setup{i}", setup_only=True)["setup_s"]


def percentile(sorted_values, p):
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summarize(ops):
    failures = {}
    for name, _, cause, *_ in ops:
        if cause is not None:
            entry = failures.setdefault((name, cause.split(":", 1)[0]), [0, cause, is_known(name, cause)])
            entry[0] += 1
    failed = sum(f[0] for f in failures.values())
    correct = bool(ops) and all(f[2] for f in failures.values())
    return failures, failed, correct


def end_to_end(workload, ops, setups, rss_mb):
    ms = sorted(t * 1000.0 for _, t, *_ in ops)
    rounds = len({r for *_, r in ops})
    p = TAIL_PERCENTILE[workload]
    tail = percentile(ms, p)
    _, failed, _ = summarize(ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(ms) / (sum(ms) / 1000.0), "1/s"),
        "op_p50_ms": (percentile(ms, 50.0), "ms"),
        "op_tail_ms": (tail, "ms"),
        "ok_share": ((len(ops) - failed) / len(ops), "share"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    beyond = sum(1 for v in ms if v > tail)
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "ops_per_s": f"{len(ms)} ops in {rounds} rounds",
        "op_p50_ms": f"of {len(ms)} ops",
        "op_tail_ms": f"p{p:g} of {len(ms)} ops, {beyond} beyond" + (" (the slowest op)" if p == 100 else ""),
        "ok_share": f"failed_share {failed / len(ops):.4f}: {failed} of {len(ops)} ops failed or were wrong",
    }
    return metrics, notes


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if "bytes_" in name:
        return "B"
    if name.endswith("_per_op"):
        return "count/op"
    if name.endswith("_share"):
        return "share"
    return "count"


def report(args, ops, metrics, notes, env_info):
    out = sys.stdout
    failures, failed, correct = summarize(ops)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(ops)} ops", file=out)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44s} {value:14.6g} {unit}{note}", file=out)
    for (name, _), (count, cause, known) in sorted(failures.items()):
        label = "known defect" if known else "UNEXPECTED"
        print(f"  failed: {name} x{count} [{label}] {cause[:240]}", file=out)
    caches = " ".join(f"{k}={v}" for k, v in env_info["caches"].items())
    print(
        f"  env: python {env_info['python']}, numpy {env_info['numpy']}, scipy {env_info['scipy']}, "
        f"{env_info['blas']}, nproc {env_info['nproc']}, {caches}, threads {env_info['threads']}",
        file=out,
    )
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), file=out)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pdffusion", "__init__.py")):
        print("run.py: no src/pdffusion here; run from the root of a pdffusion checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    env = pinned_env(root)
    workdir = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(root, ".perfbench", "traces", f"{args.workload}-seed{args.seed}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    os.makedirs(workdir)
    try:
        # compile the package's bytecode once, as an installed package has it
        spawn([sys.executable, "-c", "import pdffusion.cli"], env, deadline - time.monotonic(), workdir)
        # set-up is an end-to-end metric only: a traced run skips the extra
        # samples; the others are taken half before and half after the
        # measured worker, so that they span the run
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [setup_sample(args, root, env, workdir, deadline, i) for i in range(extra // 2)]
        data = run_worker(args, root, env, workdir, deadline, "main", trace_dir=trace_dir)
        setups.append(data["setup_s"])
        setups += [setup_sample(args, root, env, workdir, deadline, i) for i in range(extra // 2, extra)]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = [tuple(r) for r in data["ops"]]
    if args.trace:
        layers = data["layers"]
        metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
        notes = {
            "trace.overhead_ms": "traced minus untraced time of the same ops, each run untraced just before and after",
            "import.pdffusion_ms": "per process",
            "import.interpreter_ms": "per process",
        }
        notes["trace.overhead_share"] = f"of {sum(r[1] for r in ops) * 1000.0 - layers['trace.overhead_ms']:.1f} ms"
    else:
        metrics, notes = end_to_end(args.workload, ops, setups, data["rss_mb"])
    report(args, ops, metrics, notes, data["env"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
