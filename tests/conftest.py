from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdffusion


def _run(argv, env=None, **kwargs):
    """Run ``argv`` in a child whose Python imports this pdffusion, capturing its output.

    The child gets ``env`` (by default this process's environment) with this
    pdffusion's source directory first on PYTHONPATH; ``kwargs`` go to
    ``subprocess.run``.
    """
    env = dict(os.environ if env is None else env)
    src = str(Path(pdffusion.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(argv, env=env, capture_output=True, timeout=120, **kwargs)


def _run_python(code, *args, env=None):
    """Run ``code`` in a fresh interpreter that imports this pdffusion."""
    return _run([sys.executable, "-c", code, *args], env=env, text=True)


@pytest.fixture
def run_python():
    return _run_python


@pytest.fixture
def run_process():
    return _run
