import math

import numpy as np
import pytest

from heavytail_pa import (
    ModelParams,
    QuadratureFailure,
    QuadratureSpec,
    TailMeasure,
    derivative_limit_rect,
    uhat_limit_rhs,
)
from heavytail_pa.quadrature import (
    power_exponent,
    quad_checked,
    quad_semiinfinite,
    refine_table_integral,
)


def test_quad_checked_exponential():
    val = quad_checked(lambda x: math.exp(-x), 0.0, 50.0)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_quad_checked_rejects_blown_budget():
    spec = QuadratureSpec(subdivision_limit=1, tol_abs=1e-14, tol_rel=1e-14)
    with pytest.raises(QuadratureFailure):
        quad_checked(lambda x: math.sin(1.0 / (x + 1e-8)) / math.sqrt(x + 1e-8), 0.0, 1.0, spec)


# alpha_in = 28.5 here: the linear-space (0, inf) integrands overflow
HIGH_ALPHA_IN = ModelParams(0.1, 0.1, 0.8, 5.0, 1.0)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda p: TailMeasure(p).density(1, 1.0, 1.0),
        lambda p: TailMeasure(p).rect_mass(1, 1.0, 1.0),
        lambda p: uhat_limit_rhs(30, p, 1.0, 1.0),
        lambda p: derivative_limit_rect(30, p, 1.0, 1.0),
    ],
    ids=["density", "rect_mass", "uhat_limit_rhs", "derivative_limit_rect"],
)
def test_integrand_arithmetic_error_is_quadrature_failure(evaluate):
    with pytest.raises(QuadratureFailure):
        evaluate(HIGH_ALPHA_IN)


def test_quad_semiinfinite_gamma_integral():
    # int_0^inf z^2 e^-z dz = 2
    val = quad_semiinfinite(lambda z: z**2 * math.exp(-z), split=2.0)
    assert val == pytest.approx(2.0, rel=1e-10)


def test_power_exponent_removes_kink():
    for c1 in (0.1, 0.2, 0.53, 0.9, 1.0):
        m = power_exponent(c1)
        assert m >= 1.0
        ratio = m / c1
        assert ratio == pytest.approx(round(ratio), abs=1e-12)
        assert round(ratio) >= 2


def test_refine_table_integral_polynomials():
    powers = np.array([0.0, 1.0, 2.0, 5.0])

    def eval_on_grid(nodes, weights):
        return (weights[:, None] * nodes[:, None] ** powers[None, :]).sum(axis=0)

    got = refine_table_integral(eval_on_grid, 0.0, 1.0)
    np.testing.assert_allclose(got, 1.0 / (powers + 1.0), atol=1e-12)
