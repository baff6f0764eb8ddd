from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(run_python):
    # the one python block of README's library quick start, run as written
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    divergence, weights, passed, supra = result.stdout.splitlines()
    assert float(divergence) == pytest.approx(2.4490574, abs=1e-6)
    assert weights == "[0.5 0.5]"
    assert passed == "True"
    np.testing.assert_allclose(
        np.array(supra.strip("[]").split(), dtype=float), [-1 / 7, 5 / 7, 5 / 7], atol=1e-8
    )
