"""Limit tail measures of the standardized degree pair.

Both component measures are gamma mixtures: against the improper
density c1^-1 z^(-1-1/c1) dz on (0, inf), component 1 mixes independent
Gamma(delta_in + 1, scale z) and Gamma(delta_out, scale z**a) margins,
component 2 shifts the +1 to the out margin.  That structure gives a
one-dimensional reduction for rectangle masses through regularized
upper incomplete gamma factors, which is the default evaluation path
(validated against raw 2-d quadrature of the densities in the tests).
Densities and rectangle masses are integrated in s = log z as exp of a
log-space integrand: z-powers cannot overflow, an underflowed factor gives 0.

Homogeneity: scaling a rectangle corner by (c**c1, c**c2) divides the
mass by c.

Only rect_mass loads scipy.special (gammaincc), when it first runs; the
densities and the closed-form marginal need only log Gamma of scalars,
from math.lgamma.  The sample side, `standardize` and
`angular_histogram`, lives in census: it needs no special function.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .params import DerivedConstants, ModelParams, derive, split_probability, tail_ready
from .quadrature import DEFAULT_QUAD, QuadratureSpec, log_semiinfinite

COMPONENTS = (1, 2, "combined")


class TailMeasure:
    """Evaluator for the component and combined tail measures."""

    def __init__(self, params: ModelParams, quad: QuadratureSpec = DEFAULT_QUAD):
        self.params = tail_ready(params)
        self.derived: DerivedConstants = derive(self.params)
        self.split = split_probability(self.params)
        self.quad = quad

    def density(self, component, x: float, y: float) -> float:
        """Lebesgue density at (x, y), both > 0; prefactor and integrand are summed in logs."""
        if x <= 0 or y <= 0:
            raise DomainError("density is defined on the open quadrant x, y > 0")
        if component == "combined":
            pb = self.split
            return pb * self.density(1, x, y) + (1.0 - pb) * self.density(2, x, y)
        din, dout = self.params.delta_in, self.params.delta_out
        c1, a = self.derived.c1, self.derived.a
        lx, ly = math.log(x), math.log(y)
        if component == 1:
            zexp = 2.0 + 1.0 / c1 + din + a * dout
            log_pref = din * lx + (dout - 1.0) * ly - math.lgamma(din + 1.0) - math.lgamma(dout)
        elif component == 2:
            zexp = 1.0 + a + 1.0 / c1 + din + a * dout
            log_pref = (din - 1.0) * lx + dout * ly - math.lgamma(din) - math.lgamma(dout + 1.0)
        else:
            raise DomainError(f"component must be 1, 2 or 'combined', got {component!r}")

        def log_f(s):
            return log_pref + (1.0 - zexp) * s - x * np.exp(-s) - y * np.exp(-a * s)

        return log_semiinfinite(log_f, max(lx, ly / a, 0.0), self.quad) / c1

    def rect_mass(self, component, x_lo: float, y_lo: float) -> float:
        """Mass of [x_lo, inf) x [y_lo, inf); at least one bound positive.

        Computed by the 1-d reduction: the gamma survival functions
        Q(r, x_lo/z) and Q(r', y_lo/z**a) replace the inner integrals.
        The integrand is exp of -s/c1 + log Q + log Q' at s = log z.
        """
        if x_lo < 0 or y_lo < 0:
            raise DomainError("rectangle corners must be nonnegative")
        if x_lo == 0 and y_lo == 0:
            raise DomainError("the tail measure is infinite at the origin rectangle")
        if component == "combined":
            pb = self.split
            return pb * self.rect_mass(1, x_lo, y_lo) + (1.0 - pb) * self.rect_mass(2, x_lo, y_lo)
        if component == 1:
            rin, rout = self.params.delta_in + 1.0, self.params.delta_out
        elif component == 2:
            rin, rout = self.params.delta_in, self.params.delta_out + 1.0
        else:
            raise DomainError(f"component must be 1, 2 or 'combined', got {component!r}")
        c1, a = self.derived.c1, self.derived.a
        # imported here: the rest of the module needs no scipy.special, whose import is slow
        from scipy.special import gammaincc

        def log_f(s):
            val = -s / c1
            if x_lo > 0:
                val = val + np.log(gammaincc(rin, x_lo * np.exp(-s)))
            if y_lo > 0:
                val = val + np.log(gammaincc(rout, y_lo * np.exp(-a * s)))
            return val

        # max(log x_lo, log y_lo / a, 0), with log 0 = -inf
        log_split = max(math.log(max(x_lo, 1.0)), math.log(max(y_lo, 1.0)) / a)
        return log_semiinfinite(log_f, log_split, self.quad) / c1

    def marginal_mass_closed_form(self, component, x_lo: float) -> float:
        """Closed form of rect_mass(component, x_lo, 0).

        Follows from int_0^inf t^(s-1) Q(r, t) dt = Gamma(r+s)/(s*Gamma(r))
        with s = 1/c1.
        """
        if x_lo <= 0:
            raise DomainError("x_lo must be positive")
        rin = self.params.delta_in + (1.0 if component == 1 else 0.0)
        if component not in (1, 2):
            raise DomainError("closed form available for components 1 and 2")
        if rin <= 0:
            raise DomainError("component 2 needs delta_in > 0")
        c1 = self.derived.c1
        return math.exp(math.lgamma(rin + 1.0 / c1) - math.lgamma(rin) - math.log(x_lo) / c1)
