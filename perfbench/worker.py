"""Run one workload in one process and write what it measured as JSON.

Started by ``run.py``, never by hand: it expects ``src`` on PYTHONPATH,
PERFBENCH_SPAWN_T set to the parent's ``time.monotonic()`` at spawn and the
thread settings ``run.py`` pins.

    python worker.py --workload W --seed N --seconds S --trace 0|1
                     --workdir DIR --result FILE [--trace-dir DIR] [--setup-only]

Set-up (import, inputs) ends at ``t_ready``, a monotonic time the parent
compares with its spawn time. Untraced, the worker then runs whole rounds
of ops until the next round would pass ``--seconds``. Traced, it runs the
workload's fixed number of rounds, each op untraced, with the span recorder
and untraced again, so calls and counts repeat exactly and the difference
in wall time is the recorder's overhead.
"""
import time

T_ENTER = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from ops import run_op  # noqa: E402

WORKLOADS = {"cli-session": "cli_session", "grid-fusion": "grid_fusion"}


def measure(workload, seconds: float) -> list:
    """Whole rounds until the mean round time says the next would overrun.

    Returns (name, seconds, cause, round) per op.
    """
    records, round_times = [], []
    t0 = time.monotonic()
    while True:
        elapsed = time.monotonic() - t0
        if round_times and elapsed + sum(round_times) / len(round_times) > seconds:
            return records
        start = time.monotonic()
        r = len(round_times)
        records.extend((*run_op(op), r) for op in workload.round(r))
        round_times.append(time.monotonic() - start)


def bracketed(ops, tracing) -> tuple[list, float]:
    """Run each op untraced, traced and untraced again.

    ``tracing`` is a context manager that yields the recorder to pass to
    ``run_op`` (None when the tracing happens in a child process). Returns
    the traced records and the untraced time of the same ops, the mean of
    the two passes: bracketing each op cancels the machine's drift.
    """
    records, base = [], 0.0
    for op in ops:
        base += run_op(op)[1] / 2.0
        with tracing() as rec:
            records.append(run_op(op, rec))
        base += run_op(op)[1] / 2.0
    return records, base


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            if index.startswith("index"):
                with open(f"{base}/{index}/level") as lv, open(f"{base}/{index}/type") as ty, open(
                    f"{base}/{index}/size"
                ) as sz:
                    caches[f"L{lv.read().strip()}{ty.read().strip()[0].lower()}"] = sz.read().strip()
    except OSError:
        caches = {"unknown": "cache sizes not readable"}
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def layer_metrics(table: dict, counters: dict, imports: dict, n_ops: int) -> dict:
    import spans

    out = {}
    for name in spans.SPAN_NAMES:
        calls, _, self_s = table.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_ms"] = self_s * 1000.0
    for name in spans.COUNTERS:
        out[name] = counters.get(name, 0.0)
    out.update(imports)
    out["grid.constructions_per_op"] = out["grid.GridDensity.calls"] / max(1, n_ops)
    return out


def traced_cli(workload, ops, trace_dir):
    """Run the CLI ops under cli_traced.py; merge the per-call span files."""
    import numpy as np

    import spans

    @contextlib.contextmanager
    def tracing():
        workload.traced = True
        try:
            yield None
        finally:
            workload.traced = False

    workload.spans_dir = trace_dir
    records, base = bracketed(ops, tracing)
    table, counters, extras = {}, {}, {}
    for fname in sorted(os.listdir(trace_dir)):
        data = spans.load(os.path.join(trace_dir, fname))
        part, _ = spans.span_table(data["names"], data["name"], data["parent"], data["start"], data["end"])
        for name, (calls, total, self_s) in part.items():
            c0, t0, s0 = table.get(name, (0, 0.0, 0.0))
            table[name] = (c0 + calls, t0 + total, s0 + self_s)
        for key, value in data["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
        for key, value in data["extra"].items():
            extras.setdefault(key, []).append(value)
    # import costs are paid once per process: report the mean per call
    imports = {key: float(np.mean(values)) for key, values in extras.items()}
    return records, base, table, counters, imports


def traced_in_process(ops, trace_dir, imports):
    import spans

    rec = spans.Recorder()

    @contextlib.contextmanager
    def tracing():
        rec.install()
        try:
            yield rec
        finally:
            rec.uninstall()

    records, base = bracketed(ops, tracing)
    rec.save(os.path.join(trace_dir, "spans.npz"))
    table, _ = rec.table()
    return records, base, table, dict(rec.counters), imports


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace-dir")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    imports = {"import.interpreter_ms": (T_ENTER - float(os.environ["PERFBENCH_SPAWN_T"])) * 1000.0}
    module = __import__(WORKLOADS[args.workload])
    in_process = args.workload != "cli-session"
    if in_process:
        t0 = time.perf_counter()
        import pdffusion  # noqa: F401

        imports["import.pdffusion_ms"] = (time.perf_counter() - t0) * 1000.0
    workload = module.Workload(args.seed, args.workdir)
    result = {"t_ready": time.monotonic()}

    if not args.setup_only:
        if args.trace:
            ops = [op for r in range(workload.traced_rounds) for op in workload.round(r)]
            if in_process:
                records, base, table, counters, imports = traced_in_process(ops, args.trace_dir, imports)
            else:
                records, base, table, counters, imports = traced_cli(workload, ops, args.trace_dir)
            layers = layer_metrics(table, counters, imports, len(records))
            extra = sum(r[1] for r in records) - base
            layers["trace.overhead_ms"] = extra * 1000.0
            layers["trace.overhead_share"] = extra / base
            result["layers"] = layers
        else:
            records = measure(workload, args.seconds)
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        result["rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        result["ops"] = records
        result["env"] = environment()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
