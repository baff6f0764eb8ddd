"""Fusion of probability density functions.

Opinion pooling on grids, divergence-based optimality measures, pooling
weight selection, axiom property checks, and exact fusion rules for linear
Gaussian estimation models.
"""
from __future__ import annotations

from .errors import (
    BoundednessError,
    DegenerateError,
    DimensionError,
    DomainError,
    FusionError,
    GridMismatchError,
    NonConvergenceError,
    NotNormalizedError,
    PositivityError,
    RankError,
    SimplexError,
    SingularityError,
    SupportError,
    UnsupportedAxiomError,
)
from .grid import (
    Grid,
    GridDensity,
    OpinionProfile,
    event_probability,
    from_samples,
    integrate,
    moments,
    normalize,
)
from .gaussian import Gaussian, ci_fuse, mixture_moments, to_grid
from .pooling import (
    ChiKind,
    ChiTransform,
    PoolingKind,
    PoolingSpec,
    bayes_update,
    chi_transform_pool,
    dictatorship_pool,
    dogmatic_pool,
    holder_pool,
    inverse_linear_pool,
    linear_pool,
    log_linear_pool,
    multiplicative_pool,
    pool,
)
from .divergence import (
    DivergenceKind,
    DivergenceSpec,
    alpha_div,
    chi_distance,
    cross_entropy,
    entropy,
    evaluate,
    f_divergence,
    kl,
    l2,
    pearson_chi2,
    reverse_alpha_div,
    reverse_kl,
)
from .weights import (
    CICriterion,
    WeightResult,
    ci_weights,
    discrepancy_weights,
    min_kld_weights,
)
from .axioms import (
    Axiom,
    AxiomCheckReport,
    AxiomCounterexample,
    AxiomStatus,
    check_axiom,
    expected_matrix,
)
from .supra import (
    LinearGaussianModel,
    SupraFusionResult,
    expfam_fuse_statistics,
    global_likelihood_params,
    local_statistics,
    multiplicative_posterior_fusion,
    private_shared_model,
    private_shared_weights,
    scalar_fusion,
    substituted_oracle,
    vector_fusion,
)
from .fileio import (
    read_density_csv,
    read_gaussian_json,
    read_model_json,
    write_density_csv,
    write_gaussian_json,
    write_model_json,
)

__version__ = "0.1.0"
