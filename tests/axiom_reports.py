"""All 480 pinned axiom reports: every `_MATRIX_SPECS` spec x 12 axioms at
(seed 0, 100 trials) and at (seed 3, 20 trials).

Check the reports against tests/golden/axiom_reports.json (about 22 s):

    PYTHONPATH=src python tests/axiom_reports.py

and regenerate the file after a deliberate change, then review its diff:

    PYTHONPATH=src python tests/axiom_reports.py --write

Each row is ``[passed, max_violation.hex(), [trial, seed, detail] or null]``,
or ``[error name, message]`` where the axiom does not apply. Both commands
print the sha256 of the JSON list of rows. pytest does not collect this
file; tier-1 replays the 3-trial seed-3 slice in test_axioms.py.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from test_acceptance import _MATRIX_SPECS

from pdffusion.axioms import Axiom, check_axiom
from pdffusion.errors import UnsupportedAxiomError

RUNS = ((0, 100), (3, 20))  # (seed, trials)
GOLDEN = Path(__file__).parent / "golden" / "axiom_reports.json"


def reports() -> dict:
    """Row of every run x spec x axiom, keyed ``seed/kind/role/axiom``, in run order."""
    out = {}
    for seed, trials in RUNS:
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
                    out[f"{seed}/{kind.value}/{role}/{axiom.value}"] = row
    return out


def digest(rows: dict) -> str:
    return hashlib.sha256(json.dumps(list(rows.values())).encode()).hexdigest()


def main(argv) -> int:
    got = reports()
    print(f"{len(got)} reports, sha256 {digest(got)}")
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
