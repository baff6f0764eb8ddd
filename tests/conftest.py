from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdffusion


def _run_python(code, *args, env=None):
    """Run ``code`` in a fresh interpreter that imports this pdffusion.

    The child gets ``env`` (by default this process's environment) with this
    pdffusion's source directory first on PYTHONPATH.
    """
    env = dict(os.environ if env is None else env)
    src = str(Path(pdffusion.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture
def run_python():
    return _run_python
