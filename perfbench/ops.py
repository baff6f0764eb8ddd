"""One benchmark op: a timed call into the program plus the check of its output."""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

# Ops that fail on the package as it stood when the benchmark was added, by
# op name, with the kind of failure they show (an exception type, or "wrong"
# for a wrong answer). They stay in the op stream and count as failed; a run
# is still `correct` when every failure is one of these, failing the
# recorded way. A failure of any other kind, or of any other op, makes the
# run incorrect.
KNOWN_DEFECTS = {
    # N(-2.5,1), N(2.5,1) as JSON: the grid is sized from the first input
    # alone, truncating the second; fused mean -0.0022 where exact is 0
    "cli.pool-linear-mirrored-json": "wrong",
    # 2-D Gaussian JSON to `pool`: the grid shape is hard-coded to 1-D
    "cli.pool-2d-json": "DimensionError",
    # N(0, 0.01) on [-10, 10] underflows to 0 at 1258 of 2048 nodes
    "fusion.log-linear-narrow-pair": "PositivityError",
    # kl(N(3,1), N(0,0.01)) has the closed form 497.2
    "fusion.kl-narrow-pair": "SupportError",
    # a 1-D three-agent profile on which the finite-difference optimizer
    # stops after 500 iterations at residual 8e-6 (12% of random ones do)
    "weights.min-kld-stall": "NonConvergenceError",
}


@dataclass(frozen=True)
class Op:
    """``run`` does the timed work; ``check`` gets its result and returns the
    cause of a wrong answer, or None."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def run_op(op: Op, recorder=None) -> tuple[str, float, str | None]:
    """Time one op, then check it; returns (name, seconds, cause or None)."""
    idx = recorder.begin_op(op.name) if recorder is not None else None
    t0 = time.perf_counter()
    try:
        outcome = op.run()
    except Exception as exc:  # an op's failure is a measured outcome, not a harness error
        outcome = exc
    elapsed = time.perf_counter() - t0
    if idx is not None:
        recorder.close(idx)
    return op.name, elapsed, judge(op, outcome)


def judge(op: Op, outcome) -> str | None:
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    return op.check(outcome)


def is_known(name: str, cause: str) -> bool:
    kind = KNOWN_DEFECTS.get(name)
    return kind is not None and cause.split(":", 1)[0] == kind
