"""Invariants over the parameter domain, at hypothesis-drawn points.

Every evaluation either raises a typed HeavytailError or satisfies its
invariant; nothing may return a non-finite or non-positive value where
the quantity is positive.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail_pa import (
    HeavytailError,
    LimitDistribution,
    ModelParams,
    ScalingFunctions,
    TailMeasure,
    build_derivative_measure,
    derivative_limit_rect,
    derive,
    transform_scaling,
    uhat_limit_rhs,
)

W_MIN = 0.02


@st.composite
def points(draw):
    """(params, k): simplex weights >= W_MIN, float offsets, k > alpha_in - 1."""
    u = [draw(st.floats(0.0, 1.0)) for _ in range(3)]
    total = sum(u) or 1.0
    alpha, beta, gamma = (W_MIN + (1.0 - 3.0 * W_MIN) * v / total for v in u)
    if sum(u) == 0.0:
        alpha = beta = gamma = 1.0 / 3.0
    offsets = st.floats(0.05, 20.0)
    params = ModelParams(alpha, beta, gamma, draw(offsets), draw(offsets))
    k = math.floor(derive(params).alpha_in) + draw(st.integers(0, 2))
    return params, k


def _value(evaluate):
    """The value, or None where a typed error refuses the point."""
    try:
        return evaluate()
    except HeavytailError:
        return None


@settings(derandomize=True, max_examples=25, deadline=None)
@given(points())
def test_invariants_over_the_parameter_domain(point):
    params, k = point
    dist, tm = LimitDistribution(params), TailMeasure(params)

    pgf = _value(lambda: dist.pgf(1.0, 1.0))
    assert pgf is None or abs(pgf - 1.0) <= 1e-10
    table = _value(lambda: dist.pmf_table(10, 10))
    assert table is None or (np.all(table >= 0.0) and table.sum() <= 1.0)

    def transform():
        b = ScalingFunctions.for_derivative_measure(params, k)
        return transform_scaling(build_derivative_measure(k, params), b, 1e4, 1.0, 1.0)

    positive = {
        "density": lambda: tm.density("combined", 1.0, 1.0),
        "rect_mass": lambda: tm.rect_mass("combined", 1.0, 1.0),
        "uhat_limit_rhs": lambda: uhat_limit_rhs(k, params, 1.0, 1.0),
        "derivative_limit_rect": lambda: derivative_limit_rect(k, params, 1.0, 1.0),
        "transform_scaling": transform,
        "marginal_mass_in": lambda: build_derivative_measure(k, params).marginal_mass(1, 10.0),
    }
    d = derive(params)
    if d.alpha_in - 1.0 + d.a * params.delta_out > k:  # the out-marginal is finite
        positive["marginal_mass_out"] = (
            lambda: build_derivative_measure(k, params).marginal_mass(2, 10.0))
    for name, evaluate in positive.items():
        value = _value(evaluate)
        assert value is None or (math.isfinite(value) and value > 0), (name, value)

    for x in (0.5, 2.0):
        rect = _value(lambda: tm.rect_mass(1, x, 0.0))
        assert rect is None or abs(rect / tm.marginal_mass_closed_form(1, x) - 1.0) <= 1e-8
