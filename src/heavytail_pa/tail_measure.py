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
are each one section kind on both margins (the density of the log of a
gamma variable, the regularized upper and lower incomplete gamma
functions Q and P, and (1 + lambda z)^-r) mixed over z; the density of
the log pair divided by x y is the density.  The mixture is integrated
in s = log z as exp of a log-space integrand: z-powers cannot overflow,
and an underflowed factor gives 0.  The in-marginal is closed form, from
int_0^inf t^(s-1) Q(r, t) dt = Gamma(r+s)/(s Gamma(r)) with s = 1/c1.

Each section kind carries closed-form bounds that end the window, as
limit_dist's NB-mixture kernel ends its own.  Their constants depend only
on the kind and on which corners are finite, so a mixture builds them once
per such pair, in a `_Plan`, and each call forms its window from them.

The combined measure pb mu_1 + (1 - pb) mu_2, pb = gamma/(alpha+gamma),
is one mixture integral too: both components share the weight's power,
so its integrand is logaddexp(log pb + log f_1, log(1 - pb) + log f_2),
integrated once over the union of both components' windows, and the
rule's relative tolerance applies to the combined value returned.  The part
of a section's log that no shape changes (the density's -u) is the same
in f_1 and f_2, so it is added once, outside the logaddexp.  The rest of
the density's log, r log u on each margin plus the weight's power, is
linear in s, so the logaddexp runs over one line c_j - d_j s per
component, not over its sections.

Homogeneity: scaling a rectangle corner by (c**c1, c**c2) divides the
order-0 mass by c.

Only the Q and P sections load scipy.special, when they run; the
densities, the transforms and the closed-form marginal need only log
Gamma of scalars, from math.lgamma.  The sample side, `standardize` and
`angular_histogram`, lives in census: it needs no special function.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, QuadratureFailure
from .params import (DerivedConstants, ModelParams, check_component, derive, split_probability,
                     tail_ready)
from .quadrature import WINDOW, trapezoid

_TINY = np.finfo(np.float64).tiny  # the least normal float
_LOG_MAX = math.log(np.finfo(np.float64).max)  # the log of the largest float


def _log_mix_const(r: float, k: float, c1: float) -> float:
    """log(Gamma(r+k) / (Gamma(r) c1)): the weight constant of the order-k measure."""
    return (math.lgamma(r + k) - math.lgamma(r) if k else 0.0) - math.log(c1)


class _Section(NamedTuple):
    """One section kind at one gamma shape r, as a function of x = log u at the nodes.

    A Gamma(r, scale theta) section S depends on the corner sigma and on
    theta only through u = sigma/theta.  log S = offset + shaped(x) + free(x),
    where `free` is the part no shape changes, the same on every component
    (None where there is none), and `shaped` is None where it is r x: with
    x = log sigma - rate s on each margin that part is affine in s, and the
    mixture folds it into one line per component.  log S <= const,
    log S <= line + r x and log S <= decay - u/2, with None for a bound that
    does not hold.  A section kind, kind(r), builds one.
    """

    r: float
    shaped: Callable[[np.ndarray], np.ndarray] | None
    const: float
    line: float | None
    decay: float | None
    offset: float = 0.0
    free: Callable[[np.ndarray], np.ndarray] | None = None


class _Plan(NamedTuple):
    """A section kind's constants at one pattern of finite corners, built once per mixture.

    Per component, `parts` holds its log weight constant plus its sections'
    offsets, and its (in-section, out-section).  Where the kind's shaped part
    is r x, `lines` holds per component the terms of that constant, r_in,
    r_out, and the slope r_in + a r_out - (k - 1/c1) as a float and its
    rounding error; else it is None.  `probe` lists each live margin's
    (margin, log r, rate): its turning point u = r lies at
    s = (log sigma - log r)/rate.  `bounds` holds per component the sum
    `top` of its constant bounds and, per live margin, (margin, rate, r,
    rest, line bound, decay bound): the terms of `_GammaMixture.windows`
    that depend on neither the corner nor the floor.
    """

    free: Callable[[np.ndarray], np.ndarray] | None
    parts: list
    lines: list | None
    probe: list
    bounds: list


def _slope(r_in: float, a: float, r_out: float, power: float) -> tuple:
    """r_in + a r_out - power as the rounded float and its rounding error."""
    from fractions import Fraction  # exact, and loaded only where a line is planned

    d = r_in + a * r_out - power
    return d, float(Fraction(r_in) + Fraction(a) * Fraction(r_out) - Fraction(power)
                    - Fraction(d))


def _log_density(r: float) -> _Section:
    """The density of log X at log sigma, X ~ Gamma(r, scale theta): u^r e^-u / Gamma(r).

    That is sigma times the density of X at sigma.  Its -u is shape-free.
    Its shaped part is r log u.  u^r e^-u is at most its value at u = r,
    at most u^r, and at most (2r/e)^r e^(-u/2).
    """
    log_norm = math.lgamma(r)
    top = r * math.log(r) - r - log_norm
    return _Section(r, None, top, -log_norm, top + r * math.log(2.0), -log_norm,
                    lambda log_u: -np.exp(log_u))


def _log_upper(r: float) -> _Section:
    """The mass of [sigma, inf): Q(r, u), 1 at sigma = 0, at most 2^r e^(-u/2) (Chernoff)."""
    from scipy.special import gammaincc  # slow to import, so loaded only where it runs

    return _Section(r, lambda log_u: np.log(gammaincc(r, np.exp(log_u))), 0.0, None,
                    r * math.log(2.0))


def _log_lower(r: float) -> _Section:
    """The mass of [0, sigma]: P(r, u), at most u^r / Gamma(r+1).

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

    return _Section(r, log_p, 0.0, -log_norm, None)


def _log_laplace(r: float) -> _Section:
    """The transform at lambda = 1/sigma: (1 + 1/u)^-r = (u/(1+u))^r, at most 1 and
    at most u^r, as a logaddexp that cannot overflow."""
    return _Section(r, lambda log_u: -r * np.logaddexp(0.0, -log_u), 0.0, 0.0, None)


class _GammaMixture:
    """The order-k measure of a mixture of components, as one integral over z.

    Component j, of weight e^(w_j) and gamma shapes (r_in, r_out), mixes one
    section kind on both margins under the weight e^(log_const + (k - 1/c1) s)
    in s = log z, and the components' log integrands add as a logaddexp, out
    of which the kind's shape-free part is taken.  Each kind's `_Plan` is
    built once per mixture and pattern of finite corners, when it first
    runs.  `in_marginal` is the closed-form in-marginal.
    """

    def __init__(self, derived: DerivedConstants, components, k: float):
        self.c1, self.a, self.k = derived.c1, derived.a, k
        self.power = k - 1.0 / self.c1
        self.components = components  # (w_j, r_in, r_out), r_in the order-0 in-shape
        self._plans = {}  # (section kind, finite in-corner, finite out-corner) -> `plan`

    def plan(self, kind, live) -> _Plan:
        """The kind's `_Plan` where live[m] says whether margin m's corner is finite."""
        key = (kind, *live)
        if key in self._plans:
            return self._plans[key]
        a, power = self.a, self.power
        parts, lines, probe, bounds = [], [], [], []
        for w, r_in, r_out in self.components:
            log_const = w + _log_mix_const(r_in, self.k, self.c1)
            sec_in, sec_out = kind(r_in + self.k), kind(r_out)
            parts.append((log_const + sec_in.offset + sec_out.offset, (sec_in, sec_out)))
            if sec_in.shaped is None:  # r x on both margins
                lines.append(((log_const, sec_in.offset, sec_out.offset), sec_in.r, sec_out.r,
                              *_slope(sec_in.r, a, sec_out.r, power)))
            margins = ((0, 1.0, sec_in), (1, a, sec_out))  # (margin, rate, section)
            cuts = [(m, rate, sec) for m, rate, sec in margins if live[m]]
            top = log_const + sum(sec.const for *_, sec in cuts)
            terms = []
            for m, rate, sec in cuts:
                rest, r = top - sec.const, sec.r
                probe.append((m, math.log(r), rate))
                line = (sec.line, power - r * rate) if (
                    sec.line is not None and power < r * rate) else None
                decay = rest + sec.decay if sec.decay is not None and power < 0.0 else None
                terms.append((m, rate, r, rest, line, decay))
            bounds.append((top, terms))
        # every section of one kind has the same form and the same free part
        plan = _Plan(parts[0][1][0].free, parts, lines or None, probe, bounds)
        self._plans[key] = plan
        return plan

    def integral(self, kind, log_in: float, log_out: float) -> float:
        """The integral over z of one section kind at the corner (e^log_in, e^log_out).

        The window is the union of the components' `windows` against a floor
        WINDOW below the largest value of log f at the sections' turning
        points u = r.  Where k > 1/c1 the integrand tends to
        e^(log_const + (k - 1/c1) s) at the left, too long a tail for s at
        small k - 1/c1, so the rule runs in w, s = s_c + w - e^-w, where it
        decays double-exponentially.  The rule stops on relative change
        (quadrature.TOL_REL), so a far-tail value is relatively accurate.
        Where the rule fails and the largest log f at the turning points,
        floor + WINDOW, passes log(float max), the failure is a DomainError
        that names the overflow.
        """
        a, power, logs = self.a, self.power, (log_in, log_out)
        plan = self.plan(kind, (log_in > -math.inf, log_out > -math.inf))
        free = plan.free
        if plan.lines is None:
            parts = plan.parts

            def log_f(s):
                x_in, x_out = log_in - s, log_out - a * s
                mixed = power * s + functools.reduce(np.logaddexp, [
                    offset + sec_in.shaped(x_in) + sec_out.shaped(x_out)
                    for offset, (sec_in, sec_out) in parts])
                return mixed if free is None else mixed + (free(x_in) + free(x_out))
        else:
            # offset + r_in x_in + r_out x_out + power s is the line c - (d + e) s: c a
            # math.fsum, d + e the slope and its rounding error, which s would magnify
            lines = [(math.fsum((*terms, r_in * log_in, r_out * log_out)), d, e)
                     for terms, r_in, r_out, d, e in plan.lines]

            def log_f(s):
                mixed = functools.reduce(np.logaddexp, [c - d * s - e * s for c, d, e in lines])
                return mixed if free is None else mixed + (free(log_in - s) + free(log_out - a * s))

        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            probe = np.array([(logs[m] - log_r) / rate for m, log_r, rate in plan.probe])
            # finite at the rightmost turn, where u <= r on both margins
            floor = float(log_f(probe).max()) - WINDOW
            lo, hi = zip(*self.windows(plan, logs, floor))
            if power < 0.0:
                def f(s):
                    return np.exp(log_f(s))

                ends = min(lo), max(hi)
            else:
                s_c = float(probe.min()) - 4.0  # a few units left of the turning points

                def f(w):
                    e = np.exp(-w)
                    return np.exp(log_f(s_c + w - e) + np.log1p(e))

                # s(w) <= min(lo) at the left end, and s(w) >= max(hi) at the right one
                ends = -math.log1p(max(s_c - min(lo), 0.0)), max(hi) - s_c + 1.0
            try:
                return float(trapezoid(f, *ends))
            except QuadratureFailure as exc:
                if floor + WINDOW <= _LOG_MAX:
                    raise
                # the integrand's peak itself lies past the float range
                raise DomainError(f"the integrand e^{floor + WINDOW:.6g} overflows the float range "
                                  f"({exc})") from None

    def windows(self, plan: _Plan, logs, floor: float) -> list:
        """Per component, (lo, hi) in s beyond which its bounds hold its log f below floor.

        `logs` is the corner's (log sigma_in, log sigma_out).  With one
        section's bound at a time and the other's constant one, the weight
        ends one side, a power bound the right one, and where the weight
        grows (k < 1/c1) a decay bound the left one, at the largest root x
        of e^x/2 = c - q x.  A zero corner's Q(r, 0) is 1: it bounds nothing.
        """
        power, out = self.power, []
        for top, terms in plan.bounds:
            end = (floor - top) / power
            lo, hi = (end, math.inf) if power > 0.0 else (-math.inf, end)
            for m, rate, r, rest, line, decay in terms:
                log_sigma = logs[m]
                if line is not None:
                    hi = min(hi, (floor - rest - line[0] - r * log_sigma) / line[1])
                if decay is not None:
                    # x <- log(2(c - q x)) from e^x/2 = 2y^2 >= c - q x, y = |c| + 2|q| + 2,
                    # decreases to the largest root without passing it
                    c, q = decay + power * log_sigma / rate - floor, power / rate
                    x = 2.0 * math.log(2.0 * (abs(c) + 2.0 * abs(q) + 2.0))
                    for _ in range(3):
                        if c - q * x <= 0.0:  # no root: e^x/2 is the larger everywhere
                            break
                        x = math.log(2.0 * (c - q * x))
                    lo = max(lo, (log_sigma - x) / rate)
            out.append((lo, hi))
        return out

    def in_marginal(self, x: float) -> float:
        """C x^(k - 1/c1), the in-marginal of a one-component measure: the mass of
        [x, inf) at k = 0, of [0, x] at k > 1/c1.  Computed as
        exp(log C + k log x - log x / c1); past the float range a DomainError."""
        [(w, r_in, _)] = self.components
        inv = 1.0 / self.c1
        log_c = w + _log_mix_const(r_in, inv, self.c1) - math.log(abs(self.k - inv))
        log_x = math.log(x)
        # at k = 0 the term is dropped, so that x = inf gives e^-inf = 0
        log_value = log_c + (self.k * log_x if self.k else 0.0) - log_x / self.c1
        try:
            return math.exp(log_value)
        except OverflowError:
            raise DomainError(f"the closed-form in-marginal e^{log_value:.6g} at x = {x:g}, "
                              f"k = {self.k:g} overflows the float range") from None


class TailMeasure:
    """Evaluator for the component and combined tail measures."""

    def __init__(self, params: ModelParams):
        self.params = tail_ready(params)
        self.derived: DerivedConstants = derive(self.params)
        self.split = split_probability(self.params)
        din, dout = self.params.delta_in, self.params.delta_out
        parts = {1: (self.split, din + 1.0, dout), 2: (1.0 - self.split, din, dout + 1.0)}
        self._kernels = {j: _GammaMixture(self.derived, [(0.0, r_in, r_out)], 0)
                         for j, (_, r_in, r_out) in parts.items()}
        # pb is 0 at gamma = 0 and 1 at alpha = 0
        self._kernels["combined"] = _GammaMixture(self.derived, [
            (math.log(pb), r_in, r_out) for pb, r_in, r_out in parts.values() if pb > 0.0], 0)

    def density(self, component, x: float, y: float) -> float:
        """Lebesgue density at (x, y), both > 0.

        The mixture of log-gamma density sections is the density of the
        log pair at (log x, log y); dividing by x y changes the variables back.
        """
        if x <= 0 or y <= 0:
            raise DomainError("density is defined on the open quadrant x, y > 0")
        value = self._kernel(component).integral(_log_density, math.log(x), math.log(y)) / x / y
        if value == math.inf:
            raise DomainError(f"the density at ({x}, {y}) overflows the float range")
        return value

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
        return self._kernel(component).integral(_log_upper, log_in, log_out)

    def marginal_mass_closed_form(self, component, x_lo: float) -> float:
        """Closed form of rect_mass(component, x_lo, 0)."""
        if x_lo <= 0:
            raise DomainError("x_lo must be positive")
        return self._kernels[check_component(component)].in_marginal(x_lo)

    def _kernel(self, component) -> _GammaMixture:
        return self._kernels[check_component(component, combined=True)]
