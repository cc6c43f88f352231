"""Shared fixtures: canonical parameters and heavyweight shared artifacts."""

import tracemalloc

import numpy as np
import pytest

from heavytail_pa import (
    DEFAULT_SEED,
    LimitDistribution,
    ModelParams,
    build_derivative_measure,
    simulate,
)

CANONICAL = ModelParams(alpha=0.3, beta=0.5, gamma=0.2, delta_in=1.0, delta_out=1.0)
REPLICATE_SEEDS = (DEFAULT_SEED, DEFAULT_SEED + 1, DEFAULT_SEED + 2)


def traced_peak(fn, raises=None):
    """fn()'s result and the tracemalloc peak, in bytes, while it ran.

    With raises, an exception class or a tuple of them, fn must raise one,
    and the exception it raised takes the result's place.
    """
    tracemalloc.start()
    try:
        if raises is None:
            result = fn()
        else:
            with pytest.raises(raises) as err:
                fn()
            result = err.value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="session")
def params():
    return CANONICAL


@pytest.fixture(scope="session")
def dist(params):
    return LimitDistribution(params)


@pytest.fixture(scope="session")
def graphs_1m(params):
    """Three replicate graphs with a million edges each."""
    return [simulate(10**6, params, seed=s) for s in REPLICATE_SEEDS]


@pytest.fixture(scope="session")
def limit_draws_10m(dist):
    """Ten million draws from the limiting degree law."""
    rng = np.random.default_rng(DEFAULT_SEED)
    return dist.sample(10**7, rng)


@pytest.fixture(scope="session")
def component1_draws_10m(dist):
    """Ten million draws of the first mixture component."""
    rng = np.random.default_rng(DEFAULT_SEED + 10)
    return dist.sample_component(1, 10**7, rng)


@pytest.fixture(scope="session")
def deriv_measure(params):
    """The order-3 derivative measure, built once per session."""
    return build_derivative_measure(3, params)
