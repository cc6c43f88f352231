"""Directed preferential attachment and its heavy-tail analytics.

The package closes a loop: simulate the growing directed multigraph,
evaluate the limiting joint in/out-degree law exactly (generating
functions, masses, an exact sampler), evaluate the joint tail measures
in closed quadrature form, and verify the transform-side scaling limits
on concrete discrete measures.

The names of limit_dist and tauberian load on first use (PEP 562
__getattr__): tauberian imports scipy.special, most of the package's
import time, and limit_dist the thread pool of concurrent.futures.  The
other modules, tail_measure among them, need only numpy and load with
the package: `simulate` names both a submodule and a function, and a
lazily loaded submodule would take over the name.
"""

import importlib

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
from .tail_measure import TailMeasure

__version__ = "0.1.0"

DEFAULT_SEED = 1618033

# Names loaded on first use, by module: tauberian imports scipy.special and
# limit_dist concurrent.futures.
_LAZY_MODULES = {
    "limit_dist": ("LimitDistribution",),
    "tauberian": (
        "DerivativeMeasure",
        "ScalingFunctions",
        "build_derivative_measure",
        "derivative_limit_rect",
        "derivative_marginal_normalizer",
        "marginal_check",
        "marginal_condition",
        "measure_check",
        "measure_scaling",
        "transform_scaling",
        "truncation_check",
        "truncation_condition",
        "uhat_check",
        "uhat_limit_rhs",
    ),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name):
    """Load the module behind a scipy.special name on its first use (PEP 562)."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


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
    # params, quadrature
    "DerivedConstants", "ModelParams", "derive", "load_params", "save_params",
    "split_probability", "validate", "DEFAULT_QUAD", "QuadratureSpec",
    # simulate
    "DirectedMultigraph", "GrowthCase", "GrowthStepOutcome", "SeedSpec", "choose_by_in",
    "choose_by_out", "grow", "seed_graph", "simulate", "step",
    # tail_measure
    "TailMeasure",
    *_LAZY,
]
