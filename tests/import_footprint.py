"""Which pdffusion submodules execute their code while Python runs a program.

    python tests/import_footprint.py OUT -c CODE
    python tests/import_footprint.py OUT SCRIPT [ARG ...]

Runs CODE, or the file SCRIPT as ``__main__`` with ARGs as its arguments
(a console script such as ``$(command -v pdffusion)``), then writes to OUT
a sorted JSON list of the ``pdffusion`` submodules whose bodies ran, and
exits with the program's status. An audit hook on the ``exec`` event sees
each module body as it runs, whether an import runs it or the first
attribute access of a lazily loaded module does. The package is found the
way the program finds it: on PYTHONPATH or as an installed distribution.
While the program runs, ``os._exit(status)`` raises ``SystemExit(status)``,
so a program that ends its process that way (``pdffusion.cli.run``) still
leaves OUT written.
"""
from __future__ import annotations

import importlib.util
import json
import os
import runpy
import sys


def main() -> int:
    out, *program = sys.argv[1:]
    package_dir = os.path.dirname(importlib.util.find_spec("pdffusion").origin)
    ran = set()

    def hook(event, args):
        code = args[0] if event == "exec" else None
        filename = getattr(code, "co_filename", "")
        if os.path.dirname(filename) == package_dir:
            ran.add(os.path.splitext(os.path.basename(filename))[0])

    def exit_through_system_exit(status):
        raise SystemExit(status)

    sys.addaudithook(hook)
    status = 0
    os_exit, os._exit = os._exit, exit_through_system_exit
    try:
        if program[0] == "-c":
            exec(compile(program[1], "<string>", "exec"), {"__name__": "__main__"})
        else:
            sys.argv = program
            runpy.run_path(program[0], run_name="__main__")
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        os._exit = os_exit
    with open(out, "w") as fh:
        json.dump(sorted(ran - {"__init__"}), fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
