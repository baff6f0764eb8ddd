"""What importing pdffusion and running a CLI call executes, and what the package exposes."""
from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import pdffusion

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "golden" / "cli" / "inputs"

# what every subcommand runs; divergence, weights, axioms and supra run only when used
SHARED = ["cli", "errors", "fileio", "gaussian", "grid", "pooling"]

# every module the package namespace exposes
MODULES = ["axioms", "divergence", "errors", "fileio", "gaussian", "grid", "pooling", "supra", "weights"]

# every public name of the package namespace after `import pdffusion` before
# names were resolved on first access, less the `annotations` that
# `from __future__ import annotations` binds there
PUBLIC = """
Axiom AxiomCheckReport AxiomCounterexample AxiomStatus BoundednessError CICriterion
ChiKind ChiTransform DegenerateError DimensionError DivergenceKind DivergenceSpec
DomainError FusionError Gaussian Grid GridDensity GridMismatchError LinearGaussianModel
NonConvergenceError NotNormalizedError OpinionProfile PoolingKind PoolingSpec
PositivityError RankError SimplexError SingularityError SupportError SupraFusionResult
UnsupportedAxiomError WeightResult alpha_div axioms bayes_update check_axiom
chi_distance chi_transform_pool ci_fuse ci_weights cross_entropy dictatorship_pool
discrepancy_weights divergence dogmatic_pool entropy errors evaluate event_probability
expected_matrix expfam_fuse_statistics f_divergence fileio from_samples gaussian
global_likelihood_params grid holder_pool integrate inverse_linear_pool kl l2
linear_pool local_statistics log_linear_pool min_kld_weights mixture_moments moments
multiplicative_pool multiplicative_posterior_fusion normalize pearson_chi2 pool pooling
private_shared_model private_shared_weights read_density_csv read_gaussian_json
read_model_json reverse_alpha_div reverse_kl scalar_fusion substituted_oracle supra
to_grid vector_fusion weights write_density_csv write_gaussian_json write_model_json
""".split()


def _footprint(tmp_path, *program):
    """The pdffusion submodules whose code ran in a fresh interpreter running ``program``."""
    out = tmp_path / "ran.json"
    path = os.pathsep.join(filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, str(HERE / "import_footprint.py"), str(out), *program],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(out.read_text())


def test_import_pdffusion_runs_no_submodule(tmp_path):
    assert _footprint(tmp_path, "-c", "import pdffusion") == []


@pytest.mark.parametrize("code", ["from pdffusion import grid", "import pdffusion; pdffusion.kl"])
def test_first_read_from_the_package_runs_every_module(tmp_path, code):
    # so code that reads every pdffusion.<module> from sys.modules finds it
    assert _footprint(tmp_path, "-c", code) == MODULES


@pytest.mark.parametrize(
    "module, imports",
    [
        ("gaussian", ["errors", "grid"]),
        ("pooling", ["errors", "grid"]),
        ("divergence", ["errors", "gaussian", "grid", "pooling"]),
        ("weights", ["divergence", "errors", "gaussian", "grid", "pooling"]),
        ("axioms", ["errors", "grid", "pooling"]),
    ],
)
def test_importing_a_module_runs_only_what_it_imports(tmp_path, module, imports):
    # a module that read a sibling through the package namespace would run them all
    assert _footprint(tmp_path, "-c", f"import pdffusion.{module}") == sorted([module, *imports])


def test_import_cli_runs_only_the_shared_modules(tmp_path):
    assert _footprint(tmp_path, "-c", "import pdffusion.cli") == SHARED


def test_pool_call_runs_no_deferred_module(tmp_path):
    args = ["pool", "--kind", "linear", "--weights", "0.5,0.5", str(INPUTS / "a.csv"), str(INPUTS / "b.csv")]
    code = f"from pdffusion.cli import main; main({args + ['-o', str(tmp_path / 'out.csv')]!r})"
    ran = _footprint(tmp_path, "-c", code)
    assert ran == SHARED
    assert (tmp_path / "out.csv").exists()


def test_console_script_that_calls_run_writes_its_footprint(tmp_path):
    # run() ends its process with os._exit; the tool turns that into SystemExit and still writes OUT.
    # The script imports and calls pyproject's target, as pip's wrapper does
    module, name = re.search(r'^pdffusion = "(.+):(.+)"$', (HERE.parent / "pyproject.toml").read_text(), re.M).groups()
    script = tmp_path / "pdffusion"
    script.write_text(f"import sys\nfrom {module} import {name}\nif __name__ == '__main__':\n    sys.exit({name}())\n")
    args = ["pool", "--kind", "linear", "--weights", "0.5,0.5", str(INPUTS / "a.json"), str(INPUTS / "b.json")]
    ran = _footprint(tmp_path, str(script), *args, "-o", str(tmp_path / "out.csv"))
    assert ran == SHARED
    assert (tmp_path / "out.csv").exists()


def test_deferred_subcommand_runs_its_module(tmp_path):
    # the counterpart of the pool check: the footprint does see a deferred module run
    args = ["divergence", "--kind", "kl", str(INPUTS / "a.csv"), str(INPUTS / "b.csv")]
    ran = _footprint(tmp_path, "-c", f"from pdffusion.cli import main; main({args!r})")
    assert set(ran) - set(SHARED) == {"divergence"}


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_resolves_to_its_home_object(name):
    value = getattr(pdffusion, name)
    if isinstance(value, types.ModuleType):
        assert value is sys.modules[f"pdffusion.{name}"]
    else:
        assert value.__module__.startswith("pdffusion.")
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_public_names_are_listed_and_exported():
    assert set(PUBLIC) <= set(dir(pdffusion))
    assert sorted(pdffusion.__all__) == sorted(PUBLIC)
    star = {}
    exec("from pdffusion import *", star)
    assert set(PUBLIC) <= set(star)
    assert pdffusion.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_rule'"):
        pdffusion.no_such_rule
    assert not hasattr(pdffusion, "cross_entropy_pool")
    with pytest.raises(ImportError):
        exec("from pdffusion import no_such_rule", {})
