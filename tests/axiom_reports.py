"""All 720 pinned axiom reports: every `_MATRIX_SPECS` spec x 12 axioms at
(seed 0, 100 trials), (seed 3, 20 trials) and the tier-1 slice (seed 3,
3 trials), all in tests/golden/axiom_reports.json.

Check the reports against the file (7 to 8 s on 2 vCPU):

    PYTHONPATH=src python tests/axiom_reports.py

and regenerate it after a deliberate change, then review its diff:

    PYTHONPATH=src python tests/axiom_reports.py --write

Each row is ``[passed, max_violation.hex(), [trial, seed, detail] or null]``,
or ``[error name, message]`` where the axiom does not apply, keyed
``seed/trials/kind/role/axiom``. Both commands print the sha256 of the JSON
list of the two full runs' rows. pytest does not collect this file;
test_axioms.py replays the slice through `reports`.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from test_acceptance import _MATRIX_SPECS

from pdffusion.axioms import Axiom, check_axiom
from pdffusion.errors import UnsupportedAxiomError

FULL_RUNS = ((0, 100), (3, 20))  # (seed, trials)
SLICE = (3, 3)
GOLDEN = Path(__file__).parent / "golden" / "axiom_reports.json"


def reports(runs) -> dict:
    """Row of every run x spec x axiom, keyed ``seed/trials/kind/role/axiom``, in run order."""
    out = {}
    for seed, trials in runs:
        for kind, specs in _MATRIX_SPECS.items():
            for role, spec in zip(("general", "equal"), specs):
                for axiom in Axiom:
                    try:
                        rep = check_axiom(spec, axiom, trials=trials, seed=seed)
                    except UnsupportedAxiomError as exc:
                        row = [type(exc).__name__, str(exc)]
                    else:
                        ce = rep.counterexample
                        found = None if ce is None else [ce.trial, ce.seed, ce.detail]
                        row = [rep.passed, rep.max_violation.hex(), found]
                    out[f"{seed}/{trials}/{kind.value}/{role}/{axiom.value}"] = row
    return out


def digest(rows: dict) -> str:
    return hashlib.sha256(json.dumps(list(rows.values())).encode()).hexdigest()


def main(argv) -> int:
    full = reports(FULL_RUNS)
    got = {**full, **reports((SLICE,))}
    print(f"{len(got)} reports; the {len(full)} of the full runs hash to sha256 {digest(full)}")
    if "--write" in argv:
        lines = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in got.items())
        GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        return 0
    want = json.loads(GOLDEN.read_text())
    changed = [k for k in want.keys() | got.keys() if want.get(k) != got.get(k)]
    for key in sorted(changed):
        print(f"{key}: expected {want.get(key)}, got {got.get(key)}")
    return 1 if changed or list(want) != list(got) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
