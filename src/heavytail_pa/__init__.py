"""Directed preferential attachment and its heavy-tail analytics.

The package closes a loop: simulate the growing directed multigraph,
evaluate the limiting joint in/out-degree law exactly (generating
functions, masses, an exact sampler), evaluate the joint tail measures
in closed quadrature form, and verify the transform-side scaling limits
on concrete discrete measures.

Every module loads with the package, and none needs more than numpy to
load: scipy.special, most of the package's import time, loads only
inside the sections that evaluate an incomplete gamma or beta function,
and concurrent.futures only when the limit-law sampler runs.
"""

from .census import (
    AngularHistogram,
    JointCountTable,
    JointPMF,
    PMFComparison,
    StandardizedSample,
    TailFit,
    angular_histogram,
    compare_pmf,
    default_hill_k,
    degree_counts,
    empirical_pmf,
    hill_estimate,
    loglog_slope,
    standardize,
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
from .simulate import DirectedMultigraph, grow, simulate
from .tail_measure import TailMeasure
from .tauberian import (
    DerivativeMeasure,
    ScalingFunctions,
    build_derivative_measure,
    derivative_limit_rect,
    derivative_marginal_normalizer,
    marginal_check,
    measure_check,
    measure_scaling,
    transform_scaling,
    truncation_check,
    uhat_check,
    uhat_limit_rhs,
)

__version__ = "0.1.0"

DEFAULT_SEED = 1618033

__all__ = [
    "DEFAULT_SEED",
    # census
    "AngularHistogram", "JointCountTable", "JointPMF", "PMFComparison", "StandardizedSample",
    "TailFit", "angular_histogram", "compare_pmf", "default_hill_k", "degree_counts",
    "empirical_pmf", "hill_estimate", "loglog_slope", "standardize",
    # errors
    "DegenerateTail", "DegenerateTailSample", "DomainError", "EmptyInput", "HeavytailError",
    "InsufficientData", "InsufficientExceedances", "InvalidK", "InvalidParams", "InvalidSeed",
    "NonPositiveSample", "QuadratureFailure", "ResourceLimit",
    # params
    "DerivedConstants", "ModelParams", "derive", "load_params", "save_params",
    "split_probability", "validate",
    # simulate
    "DirectedMultigraph", "grow", "simulate",
    # limit_dist, tail_measure
    "LimitDistribution", "TailMeasure",
    # tauberian
    "DerivativeMeasure", "ScalingFunctions", "build_derivative_measure", "derivative_limit_rect",
    "derivative_marginal_normalizer", "marginal_check", "measure_check", "measure_scaling",
    "transform_scaling", "truncation_check", "uhat_check", "uhat_limit_rhs",
]
