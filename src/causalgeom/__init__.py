"""Effective information and causal geometry for continuous Gaussian chains."""

from .channels import (
    ConstantIsotropic,
    DiagonalStateDependent,
    DiscretePoints,
    Domain,
    FullConstant,
    GaussianChannel,
    UniformBox,
)
from .ei import (
    EIReport,
    MonteCarloSpec,
    QuadratureSpec,
    ei_exact_mc,
    ei_exact_quadrature,
    ei_geometric,
)
from .errors import (
    CausalGeomError,
    DegenerateDistributionError,
    DegenerateEmbeddingError,
    DegenerateModelError,
    IllPosedInterventionsError,
    InvalidConfigError,
    NumericalFailureError,
    RegimeError,
    UseMonteCarloError,
)
from .geometry import (
    EigenReport,
    MetricField,
    SmoothMap,
    causal_eigenvalues,
    constant_metric,
    effect_metric,
    mismatch_at,
    reparameterize,
)
from .manifold import (
    Crossing,
    CrossoverScan,
    Submanifold,
    SweepSpec,
    coarse_grained_ei,
    crossover_scan,
    pullback_field,
)
from .models import (
    ChainModel,
    DecayConfounderConfig,
    DecayConfounderMetrics,
    DimmerProfile,
    TwoSpeciesConfig,
    antidiagonal_submanifold,
    binary_switch_model,
    decay_confounder_metrics,
    diagonal_submanifold,
    dimmer_family,
    dimmer_model,
    family_profile,
    linear_profile,
    power_profile,
    two_species_model,
    weber_noise,
    weber_optimal_profile,
)

__version__ = "0.1.0"
