"""Directed preferential attachment and its heavy-tail analytics.

The package closes a loop: simulate the growing directed multigraph,
evaluate the limiting joint in/out-degree law exactly (generating
functions, masses, an exact sampler), evaluate the joint tail measures
in closed quadrature form, and verify the transform-side scaling limits
on concrete discrete measures.
"""

from .census import (
    JointCountTable,
    JointPMF,
    PMFComparison,
    TailFit,
    compare_pmf,
    default_hill_k,
    degree_counts,
    empirical_pmf,
    hill_estimate,
    loglog_slope,
)
from .errors import (
    DegenerateTail,
    DegenerateTailSample,
    DomainError,
    EmptyInput,
    HeavytailError,
    InsufficientData,
    InsufficientExceedances,
    InvalidK,
    InvalidParams,
    InvalidSeed,
    NonPositiveSample,
    QuadratureFailure,
    ResourceLimit,
)
from .limit_dist import LimitDistribution
from .params import (
    DerivedConstants,
    ModelParams,
    derive,
    load_params,
    save_params,
    split_probability,
    validate,
)
from .quadrature import DEFAULT_QUAD, QuadratureSpec
from .simulate import (
    DirectedMultigraph,
    GrowthCase,
    GrowthStepOutcome,
    SeedSpec,
    choose_by_in,
    choose_by_out,
    grow,
    seed_graph,
    simulate,
    step,
)
from .tail_measure import (
    AngularHistogram,
    StandardizedSample,
    TailMeasure,
    angular_histogram,
    standardize,
)
from .tauberian import (
    DerivativeMeasure,
    LatticeMeasure,
    ScalingFunctions,
    build_derivative_measure,
    derivative_limit_rect,
    derivative_marginal_normalizer,
    marginal_check,
    marginal_condition,
    measure_check,
    measure_scaling,
    transform_scaling,
    truncation_check,
    truncation_condition,
    uhat_check,
    uhat_limit_rhs,
)

__version__ = "0.1.0"

DEFAULT_SEED = 1618033
