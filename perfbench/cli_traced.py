"""Run one ``pdffusion`` CLI call with the span recorder installed.

Usage: ``python cli_traced.py <cli arguments>``, with ``src`` on
PYTHONPATH. The caller sets PERFBENCH_SPAWN_T to its ``time.monotonic()``
at spawn, so interpreter start-up can be timed, and PERFBENCH_SPANS to the
file the spans go to. The call's stdout, stderr, files and exit code are
those of ``python -m pdffusion.cli``.
"""
import time

T_ENTER = time.monotonic()

import os  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    interpreter_ms = (T_ENTER - float(os.environ["PERFBENCH_SPAWN_T"])) * 1000.0
    t0 = time.perf_counter()
    import pdffusion.cli

    import_ms = (time.perf_counter() - t0) * 1000.0
    rec = spans.Recorder()
    rec.install()
    code = 0
    idx = rec.open(rec.name_id(spans.CLI_SPAN))
    try:
        pdffusion.cli.main(args=sys.argv[1:], prog_name="pdffusion")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        rec.close(idx)
        rec.uninstall()
    rec.save(os.environ["PERFBENCH_SPANS"], **{"import.pdffusion_ms": import_ms, "import.interpreter_ms": interpreter_ms})
    return code


if __name__ == "__main__":
    sys.exit(main())
