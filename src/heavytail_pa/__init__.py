"""Directed preferential attachment and its heavy-tail analytics.

The package closes a loop: simulate the growing directed multigraph,
evaluate the limiting joint in/out-degree law exactly (generating
functions, masses, an exact sampler), evaluate the joint tail measures
in closed quadrature form, and verify the transform-side scaling limits
on concrete discrete measures.

Importing the package loads none of its modules and no numpy: each
exported name loads its module the first time it is read (PEP 562), so
a process, such as one CLI command, loads only the modules it uses.
No module needs more than numpy to load: scipy.special, most of the
import time of the modules that use it, loads only inside the sections
that evaluate an incomplete gamma or beta function, and
concurrent.futures only when a graph grows or the limit-law sampler runs.
"""

from importlib import import_module

__version__ = "0.1.0"

DEFAULT_SEED = 1618033

# each module with the names it exports
_EXPORTS = {
    "census": (
        "AngularHistogram", "JointCountTable", "JointPMF", "PMFComparison", "StandardizedSample",
        "TailFit", "angular_histogram", "compare_pmf", "default_hill_k", "degree_counts",
        "empirical_pmf", "hill_estimate", "standardize",
    ),
    "errors": (
        "DegenerateTail", "DegenerateTailSample", "DomainError", "EmptyInput", "HeavytailError",
        "InsufficientData", "InsufficientExceedances", "InvalidK", "InvalidParams", "InvalidSeed",
        "NonPositiveSample", "QuadratureFailure", "ResourceLimit",
    ),
    "params": (
        "DerivedConstants", "ModelParams", "derive", "load_params", "save_params",
        "split_probability", "validate",
    ),
    "growth": ("DirectedMultigraph", "grow", "simulate"),
    "limit_dist": ("LimitDistribution",),
    "tail_measure": ("TailMeasure",),
    "tauberian": (
        "DerivativeMeasure", "ScalingFunctions", "build_derivative_measure",
        "derivative_limit_rect", "derivative_marginal_normalizer", "marginal_check",
        "measure_check", "measure_scaling", "transform_scaling", "truncation_check",
        "uhat_check", "uhat_limit_rhs",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["DEFAULT_SEED", *_HOME]


def __getattr__(name: str):
    """Load the module that exports `name`, and bind the name here for later reads."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
