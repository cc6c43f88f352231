"""Limit tail measures of the standardized degree pair, and the one gamma-mixture kernel.

Against the improper weight c1^-1 Gamma(r_in+k)/Gamma(r_in) z^(k-1-1/c1) dz
on (0, inf), the order-k measure of a component with gamma shapes
(r_in, r_out) mixes independent Gamma(r_in + k, scale z) and
Gamma(r_out, scale z**a) margins.  Component 1 has the shapes
(delta_in + 1, delta_out), component 2 (delta_in, delta_out + 1), and at
order 0 they are the joint tail measure's components (Samorodnitsky,
Resnick, Towsley, Davis, Willis and Wan, J. Appl. Probab. 53, 2016).
Since u^k times the Gamma(r, scale z) density is
Gamma(r+k)/Gamma(r) z^k times the Gamma(r + k, scale z) density, the
order-k measure of component 1 is x^k times the order-0 one: the scaling
limit of tauberian's order-k derivative measure.

`_GammaMixture` holds that integral once.  A density, a tail rectangle
[x_lo, inf) x [y_lo, inf), a box [0, x] x [0, y] and a Laplace transform
are each one section kind on both margins (the gamma density, the
regularized upper and lower incomplete gamma functions Q and P, and
(1 + lambda z)^-r) mixed over z.  The mixture is integrated in s = log z
as exp of a log-space integrand: z-powers cannot overflow, and an
underflowed factor gives 0.  The in-marginal is closed form, from
int_0^inf t^(s-1) Q(r, t) dt = Gamma(r+s)/(s Gamma(r)) with s = 1/c1.

The combined measure pb mu_1 + (1 - pb) mu_2, pb = gamma/(alpha+gamma),
is one mixture integral too: both components share the weight's power
and the z-scan, so its integrand is
logaddexp(log pb + log f_1, log(1 - pb) + log f_2), integrated once, and
the quadrature tolerance applies to the combined value returned.

Homogeneity: scaling a rectangle corner by (c**c1, c**c2) divides the
order-0 mass by c.

Only the Q and P sections load scipy.special, when they run; the
densities, the transforms and the closed-form marginal need only log
Gamma of scalars, from math.lgamma.  The sample side, `standardize` and
`angular_histogram`, lives in census: it needs no special function.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .params import DerivedConstants, ModelParams, derive, split_probability, tail_ready
from .quadrature import DEFAULT_QUAD, QuadratureSpec, log_semiinfinite

_TINY = np.finfo(np.float64).tiny  # the least normal float


def _log_mix_const(r: float, k: float, c1: float) -> float:
    """log(Gamma(r+k) / (Gamma(r) c1)): the weight constant of the order-k measure."""
    return (math.lgamma(r + k) - math.lgamma(r) if k else 0.0) - math.log(c1)


# Section kinds: kind(r, log_sigma) returns the log of a Gamma(r, scale theta)
# section as a function of log u, u = sigma/theta, at the nodes.


def _log_density(r: float, log_sigma: float):
    """The density at sigma: u^r e^-u / (Gamma(r) sigma)."""
    shift = math.lgamma(r) + log_sigma
    return lambda log_u: r * log_u - np.exp(log_u) - shift


def _log_upper(r: float, log_sigma: float):
    """The mass of [sigma, inf): Q(r, u), 1 at sigma = 0."""
    from scipy.special import gammaincc  # slow to import, so loaded only where it runs

    return lambda log_u: np.log(gammaincc(r, np.exp(log_u)))


def _log_lower(r: float, log_sigma: float):
    """The mass of [0, sigma]: P(r, u).

    Where P underflows, log P comes from the series
    P(r, u) = u^r e^-u M(1, r+1, u) / Gamma(r+1), which stays finite
    while u itself underflows; each branch is evaluated only where it is used.
    """
    from scipy.special import gammainc, hyp1f1

    log_norm = math.lgamma(r + 1.0)

    def log_p(log_u):
        p = gammainc(r, np.exp(log_u))
        under = p < _TINY
        if not under.any():
            return np.log(p)
        out = np.log(p, out=np.empty_like(p), where=~under)
        lu = log_u[under]
        u = np.exp(lu)
        out[under] = r * lu - u - log_norm + np.log(hyp1f1(1.0, r + 1.0, u))
        return out

    return log_p


def _log_laplace(r: float, log_sigma: float):
    """The transform at lambda = 1/sigma: (1 + 1/u)^-r, as a logaddexp that cannot overflow."""
    return lambda log_u: -r * np.logaddexp(0.0, -log_u)


class _GammaMixture:
    """The order-k measure of a component with gamma shapes (r_in, r_out), as one integral over z.

    `integral` mixes one section kind on both margins, at sigma_in = e^log_in
    and sigma_out = e^log_out; the unit-step scan of `log_semiinfinite`
    starts at max(log sigma_in, log sigma_out / a, 0), where the sections
    turn.  `log_marginal_const` is the closed-form in-marginal.
    """

    def __init__(self, derived: DerivedConstants, r_in: float, r_out: float, k: float,
                 quad: QuadratureSpec):
        self.c1, self.a, self.k, self.quad = derived.c1, derived.a, k, quad
        self.r = r_in  # the order-0 in-shape
        self.shapes = (r_in + k, r_out)
        self.power = k - 1.0 / self.c1
        self.log_const = _log_mix_const(r_in, k, self.c1)

    def log_integrand(self, kind, log_in: float, log_out: float):
        """log of the integrand of one section kind, as a function of s = log z."""
        sec_in, sec_out = kind(self.shapes[0], log_in), kind(self.shapes[1], log_out)
        log_const, power, a = self.log_const, self.power, self.a

        def log_f(s):
            return log_const + power * s + sec_in(log_in - s) + sec_out(log_out - a * s)

        return log_f

    def integrate(self, log_f, log_in: float, log_out: float) -> float:
        """The integral over z of exp(log_f), log_f an integrand at the corner (log_in, log_out)."""
        return log_semiinfinite(log_f, max(log_in, log_out / self.a, 0.0), self.quad)

    def integral(self, kind, log_in: float, log_out: float) -> float:
        return self.integrate(self.log_integrand(kind, log_in, log_out), log_in, log_out)

    def log_marginal_const(self) -> float:
        """log C, with the in-marginal C x^(k - 1/c1): the mass of [x, inf) at k = 0,
        of [0, x] at k > 1/c1."""
        inv = 1.0 / self.c1
        return _log_mix_const(self.r, inv, self.c1) - math.log(abs(self.k - inv))


class TailMeasure:
    """Evaluator for the component and combined tail measures."""

    def __init__(self, params: ModelParams, quad: QuadratureSpec = DEFAULT_QUAD):
        self.params = tail_ready(params)
        self.derived: DerivedConstants = derive(self.params)
        self.split = split_probability(self.params)
        self.quad = quad
        with np.errstate(divide="ignore"):  # pb is 0 at gamma = 0 and 1 at alpha = 0
            self._log_split = tuple(np.log([self.split, 1.0 - self.split]).tolist())
        din, dout = self.params.delta_in, self.params.delta_out
        self._kernels = {1: _GammaMixture(self.derived, din + 1.0, dout, 0, quad),
                         2: _GammaMixture(self.derived, din, dout + 1.0, 0, quad)}

    def density(self, component, x: float, y: float) -> float:
        """Lebesgue density at (x, y), both > 0: gamma density sections under the mixture."""
        if x <= 0 or y <= 0:
            raise DomainError("density is defined on the open quadrant x, y > 0")
        return self._integral(component, _log_density, math.log(x), math.log(y))

    def rect_mass(self, component, x_lo: float, y_lo: float) -> float:
        """Mass of [x_lo, inf) x [y_lo, inf); at least one bound positive.

        Computed by the 1-d reduction: the gamma survival functions
        Q(r, x_lo/z) and Q(r', y_lo/z**a) replace the inner integrals.
        """
        if x_lo < 0 or y_lo < 0:
            raise DomainError("rectangle corners must be nonnegative")
        if x_lo == 0 and y_lo == 0:
            raise DomainError("the tail measure is infinite at the origin rectangle")
        log_in, log_out = (math.log(v) if v > 0 else -math.inf for v in (x_lo, y_lo))
        return self._integral(component, _log_upper, log_in, log_out)

    def marginal_mass_closed_form(self, component, x_lo: float) -> float:
        """Closed form of rect_mass(component, x_lo, 0)."""
        if x_lo <= 0:
            raise DomainError("x_lo must be positive")
        if component not in self._kernels:
            raise DomainError("closed form available for components 1 and 2")
        kernel = self._kernels[component]
        return math.exp(kernel.log_marginal_const() - math.log(x_lo) / self.derived.c1)

    def _integral(self, component, kind, log_in: float, log_out: float) -> float:
        """One mixture integral of a section kind.  The combined measure mixes the
        two components' integrands, pb f1 + (1 - pb) f2 as a logaddexp, under one rule."""
        if component != "combined":
            return self._kernel(component).integral(kind, log_in, log_out)
        (w1, w2), k1, k2 = self._log_split, self._kernels[1], self._kernels[2]
        f1, f2 = k1.log_integrand(kind, log_in, log_out), k2.log_integrand(kind, log_in, log_out)
        return k1.integrate(lambda s: np.logaddexp(w1 + f1(s), w2 + f2(s)), log_in, log_out)

    def _kernel(self, component) -> _GammaMixture:
        try:
            return self._kernels[component]
        except KeyError:
            raise DomainError(f"component must be 1, 2 or 'combined', got {component!r}") from None
