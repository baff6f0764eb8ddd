"""Fusion of probability density functions.

Opinion pooling on grids, divergence-based optimality measures, pooling
weight selection, axiom property checks, and exact fusion rules for linear
Gaussian estimation models.

``import pdffusion`` runs none of the submodules. The first public name or
submodule read from the package (PEP 562) imports all of them and binds
every public name, so from then on the namespace and ``sys.modules`` hold
the whole library, as code that reads modules from there expects.
``import pdffusion.<module>`` runs only that module and what it imports:
the command line loads just the modules its subcommand runs that way.
"""
from __future__ import annotations

import importlib
import os

__version__ = "0.1.0"

# home module -> the public names it exports
_HOMES = {
    "errors": (
        "BoundednessError",
        "DegenerateError",
        "DimensionError",
        "DomainError",
        "FusionError",
        "GridMismatchError",
        "NonConvergenceError",
        "NotNormalizedError",
        "PositivityError",
        "RankError",
        "SimplexError",
        "SingularityError",
        "SupportError",
        "UnsupportedAxiomError",
    ),
    "grid": (
        "Grid",
        "GridDensity",
        "OpinionProfile",
        "event_probability",
        "from_samples",
        "integrate",
        "moments",
        "normalize",
    ),
    "gaussian": ("Gaussian", "ci_fuse", "mixture_moments", "to_grid"),
    "pooling": (
        "ChiKind",
        "ChiTransform",
        "PoolingKind",
        "PoolingSpec",
        "bayes_update",
        "chi_transform_pool",
        "dictatorship_pool",
        "dogmatic_pool",
        "holder_pool",
        "inverse_linear_pool",
        "linear_pool",
        "log_linear_pool",
        "multiplicative_pool",
        "pool",
    ),
    "divergence": (
        "DivergenceKind",
        "DivergenceSpec",
        "alpha_div",
        "chi_distance",
        "cross_entropy",
        "entropy",
        "evaluate",
        "f_divergence",
        "kl",
        "l2",
        "pearson_chi2",
        "reverse_alpha_div",
        "reverse_kl",
    ),
    "weights": ("CICriterion", "WeightResult", "ci_weights", "discrepancy_weights", "min_kld_weights"),
    "axioms": (
        "Axiom",
        "AxiomCheckReport",
        "AxiomCounterexample",
        "AxiomStatus",
        "check_axiom",
        "expected_matrix",
    ),
    "supra": (
        "LinearGaussianModel",
        "SupraFusionResult",
        "expfam_fuse_statistics",
        "global_likelihood_params",
        "local_statistics",
        "multiplicative_posterior_fusion",
        "private_shared_model",
        "private_shared_weights",
        "scalar_fusion",
        "substituted_oracle",
        "vector_fusion",
    ),
    "fileio": (
        "read_density_csv",
        "read_gaussian_json",
        "read_model_json",
        "write_density_csv",
        "write_gaussian_json",
        "write_model_json",
    ),
}

_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME_OF, *_HOMES]


def __getattr__(name: str):
    if name not in _HOME_OF and name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a submodule binds it on this package
    homes = {module: importlib.import_module(f"{__name__}.{module}") for module in _HOMES}
    globals().update({public: getattr(homes[module], public) for public, module in _HOME_OF.items()})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _one_blas_thread() -> None:
    """One thread per BLAS pool unless the user set a count; a process entry calls it before numpy
    loads. A CLI call multiplies by vectors and K-row matrices, which more threads do not speed up."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def _console_script() -> None:
    """The ``pdffusion`` console script: ``cli.run`` with one BLAS thread."""
    _one_blas_thread()
    from .cli import run

    run()
