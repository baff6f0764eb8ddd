"""Outside-in span recorder for the ``pdffusion`` package.

The recorder wraps the package's public functions from the outside: each
wrapper opens a span, calls the original and closes the span. It changes no
file of the package. A function bound under several names (``from .grid
import normalize`` binds it again in every importing module) is replaced in
every ``pdffusion`` namespace that holds it, so calls through any binding
are seen. Classes are traced by wrapping ``__init__``.

Spans live in flat in-memory arrays (name, parent, op, start, end) and are
written out once, by :meth:`Recorder.save`, when the run ends. Self time is
a span's duration minus the durations of its direct children, so the self
times of one op sum to the op's root span.
"""
from __future__ import annotations

import array
import os
import sys
import time
from collections import defaultdict

# module -> traced public names; capitalized names are classes
TRACED = {
    "fileio": ("read_density_csv", "write_density_csv", "read_gaussian_json"),
    "gaussian": ("to_grid", "ci_fuse", "Gaussian"),
    "grid": ("GridDensity", "normalize", "integrate", "moments", "event_probability", "OpinionProfile"),
    "pooling": (
        "linear_pool",
        "log_linear_pool",
        "holder_pool",
        "multiplicative_pool",
        "chi_transform_pool",
        "bayes_update",
        "pool",
    ),
    "divergence": ("kl", "alpha_div", "l2", "chi_distance", "pearson_chi2", "cross_entropy"),
    "weights": ("min_kld_weights", "discrepancy_weights", "ci_weights"),
    "axioms": ("check_axiom",),
    "supra": ("private_shared_model", "scalar_fusion", "vector_fusion", "local_statistics"),
}

# spans opened by the benchmark itself rather than by a wrapper
CLI_SPAN = "cli.main"
OP_SPAN = "bench.op"

SPAN_NAMES = tuple(f"{m}.{f}" for m, names in TRACED.items() for f in names) + (CLI_SPAN,)

COUNTERS = (
    "fileio.bytes_read",
    "fileio.bytes_written",
    "pooling.bytes_computed",
    "divergence.bytes_computed",
    "weights.iterations",
    "weights.ci_objective_evals",
    "axioms.trials",
)


def _array_bytes(args) -> int:
    """Bytes of the grid arrays among ``args``: K*N*8 for a K-agent profile."""
    total = 0
    for a in args:
        densities = getattr(a, "densities", None)
        if densities is not None:
            total += sum(q.values.nbytes for q in densities)
        elif hasattr(a, "values") and hasattr(a, "quad_weights"):
            total += a.values.nbytes
        elif hasattr(a, "nbytes") and getattr(a, "ndim", 0) > 0:
            total += a.nbytes
    return total


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Recorder:
    """Holds the spans and counters of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.op_names: list[str] = []
        self._stack: list[int] = []
        self._module_depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(len(self.op_names) - 1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, label: str) -> int:
        """Open the root span of one benchmark op."""
        self.op_names.append(label)
        return self.open(self.name_id(OP_SPAN))

    # --------------------------------------------------------- wrapping

    def _wrap(self, fn, span: str, hook=None, extra_counter: str | None = None):
        rec = self
        nid = self.name_id(span)
        module = span.split(".", 1)[0]
        counts_bytes = module in ("pooling", "divergence")

        def traced(*args, **kwargs):
            if extra_counter is not None:
                rec.counters[extra_counter] += 1
            if counts_bytes:
                # count each kernel once: at the outermost span of its module
                if rec._module_depth[module] == 0:
                    rec.counters[module + ".bytes_computed"] += _array_bytes(
                        list(args) + list(kwargs.values())
                    )
                rec._module_depth[module] += 1
            idx = rec.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
                if counts_bytes:
                    rec._module_depth[module] -= 1
            if hook is not None:
                hook(rec.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced name in every loaded ``pdffusion`` namespace."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        namespaces = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "pdffusion" or key.startswith("pdffusion."))
        ]
        for module, names in TRACED.items():
            home = sys.modules[f"pdffusion.{module}"]
            for fname in names:
                span = f"{module}.{fname}"
                original = getattr(home, fname)
                if isinstance(original, type):
                    self._set(original, "__init__", self._wrap(original.__init__, span))
                    continue
                hook = _HOOKS.get(span)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            extra = _NAMESPACE_COUNTERS.get((ns.__name__, attr))
                            self._set(ns, attr, self._wrap(original, span, hook, extra))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ output

    def save(self, path, **extra) -> None:
        """Write the spans and counters to ``path`` (NumPy .npz)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            op_names=np.array(self.op_names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            counters=np.array(sorted(self.counters.items()), dtype=object).reshape(-1, 2),
            extra=np.array(sorted(extra.items()), dtype=object).reshape(-1, 2),
        )

    def table(self):
        return span_table(
            self.names,
            self.name,
            self.parent,
            self.start,
            self.end,
        )


def load(path):
    """Read a file written by :meth:`Recorder.save` into plain dicts and arrays."""
    import numpy as np

    with np.load(path, allow_pickle=True) as z:
        data = {k: z[k] for k in z.files}
    data["names"] = [str(n) for n in data["names"]]
    data["counters"] = {str(k): float(v) for k, v in data["counters"]}
    data["extra"] = {str(k): float(v) for k, v in data["extra"]}
    return data


def span_table(names, name, parent, start, end):
    """Per span name: calls, inclusive total and self time, in seconds.

    Also returns the per-span self time array, for checks on nesting.
    """
    import numpy as np

    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    k = len(names)
    calls = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=dur, minlength=k)
    selfs = np.bincount(name, weights=self_time, minlength=k)
    table = {n: (int(calls[i]), float(total[i]), float(selfs[i])) for i, n in enumerate(names)}
    return table, self_time


# -------------------------------------------------------------- hooks


def _count_iterations(counters, args, kwargs, result):
    counters["weights.iterations"] += result.iterations


def _count_trials(counters, args, kwargs, result):
    counters["axioms.trials"] += result.trials


def _count_read(counters, args, kwargs, result):
    counters["fileio.bytes_read"] += _file_size(args[0] if args else kwargs.get("path"))


def _count_written(counters, args, kwargs, result):
    counters["fileio.bytes_written"] += _file_size(args[0] if args else kwargs.get("path"))


_HOOKS = {
    "weights.min_kld_weights": _count_iterations,
    "weights.ci_weights": _count_iterations,
    "axioms.check_axiom": _count_trials,
    "fileio.read_density_csv": _count_read,
    "fileio.read_gaussian_json": _count_read,
    "fileio.write_density_csv": _count_written,
}

# every objective evaluation of ci_weights fuses once through this binding
_NAMESPACE_COUNTERS = {("pdffusion.weights", "ci_fuse"): "weights.ci_objective_evals"}
