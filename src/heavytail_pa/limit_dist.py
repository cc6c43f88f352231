"""The limiting joint in/out-degree law.

The two generating-function components are mixtures: conditionally on a
latent Z with density c1^-1 z^(-1-1/c1) on (1, inf), the coordinates
are independent negative binomials,

    X_j ~ NB(r_in(j),  1/Z),      Y_j ~ NB(r_out(j), 1/Z**a),

with shapes r_in(1) = delta_in + 1, r_out(1) = delta_out and
r_in(2) = delta_in, r_out(2) = delta_out + 1.  This rests on the NB pgf
identity sum_m nb(m; r, 1/z) x^m = (x + (1-x) z)^(-r), which turns the
printed integral generating functions into exact samplers and stable
pmf quadratures.  The full degree pair mixes the two components with a
Bernoulli(gamma/(alpha+gamma)) switch and a +1 on the switched margin.

Every pgf and pmf is an expectation over Z, taken by the one trapezoid
rule of `quadrature` in s = log(Z - 1), with the mixing weight written
as a log.  The NB factors are at most 1, so the weight bounds every
integrand, and the window ends where that bound is e^-WINDOW below its
peak.  Z samples by inverse cdf (Z = U^(-c1)); negative binomials sample
by the gamma-Poisson composition, exact for non-integer shapes.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .errors import DomainError
from .params import DerivedConstants, ModelParams, derive, split_probability, validate
from .quadrature import DEFAULT_QUAD, WINDOW, QuadratureSpec, trapezoid

_COMPONENT_SHAPES = {
    1: lambda p: (p.delta_in + 1.0, p.delta_out),
    2: lambda p: (p.delta_in, p.delta_out + 1.0),
}


def nb_logpmf(m, r: float, p) -> np.ndarray:
    """log NB(m; r, p) on the support {0, 1, ...}; r = 0 degenerates at 0."""
    m = np.asarray(m, np.float64)
    p = np.asarray(p, np.float64)
    if r == 0.0:
        return np.where(m == 0, 0.0, -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        base = gammaln(r + m) - gammaln(r) - gammaln(m + 1.0) + r * np.log(p)
        tail = np.where(m > 0, m * np.log1p(-p), 0.0)
    return base + tail


def nb_pmf(m, r: float, p) -> np.ndarray:
    return np.exp(nb_logpmf(m, r, p))


class LimitDistribution:
    """Evaluator and sampler for the limiting joint degree law."""

    def __init__(self, params: ModelParams, quad: QuadratureSpec = DEFAULT_QUAD):
        self.params = validate(params)
        self.derived: DerivedConstants = derive(self.params)
        self.split = split_probability(self.params)
        self.quad = quad

    # -- generating functions -------------------------------------------

    def pgf_component(self, component: int, x: float, y: float) -> float:
        """E[x^X_j y^Y_j] for component j, 0 <= x, y <= 1.

        Given Z = z the NB pgf identity gives (x + (1-x) z)^-r_in
        (y + (1-y) z^a)^-r_out, which `_mix` integrates against the
        mixing weight by the trapezoid rule in s = log(z - 1), on the
        window where the weight is within e^-WINDOW of its peak.
        """
        self._check_unit(x, "x")
        self._check_unit(y, "y")
        rin, rout = self._shapes(component)
        a = self.derived.a

        def weighted_sum(z, w):
            return float(w @ ((x + (1.0 - x) * z) ** -rin * (y + (1.0 - y) * z**a) ** -rout))

        return self._mix(weighted_sum)

    def pgf(self, x: float, y: float) -> float:
        """E[x^I y^O]: the Bernoulli-weighted combination of the components."""
        pb = self.split
        return pb * x * self.pgf_component(1, x, y) + (1.0 - pb) * y * self.pgf_component(2, x, y)

    def mean_in_degree(self) -> float:
        """E[I], the slope of the joint pgf in x at (1, 1), in closed form.

        Given Z an NB(r, 1/Z) count has mean r (Z - 1), and
        E[Z - 1] = c1/(1 - c1), so E[I] = pb + (delta_in + pb) c1/(1 - c1)
        with pb = gamma/(alpha+gamma); this equals 1/(alpha+gamma).
        """
        pb, c1 = self.split, self.derived.c1
        return pb + (self.params.delta_in + pb) * c1 / (1.0 - c1)

    # -- probability masses ----------------------------------------------

    def pmf_component(self, component: int, i: int, j: int) -> float:
        """Joint mass P[X = i, Y = j] of one component, by mixing NB pmfs over Z."""
        if i < 0 or j < 0:
            raise DomainError("pmf indices must be nonnegative")
        rin, rout = self._shapes(component)
        a = self.derived.a

        def weighted_sum(z, w):
            return float(w @ np.exp(nb_logpmf(i, rin, 1.0 / z) + nb_logpmf(j, rout, z**-a)))

        return self._mix(weighted_sum)

    def pmf(self, i: int, j: int) -> float:
        """P[I = i, O = j] for the full degree pair."""
        if i < 0 or j < 0:
            raise DomainError("pmf indices must be nonnegative")
        pb = self.split
        val = 0.0
        if i >= 1:
            val += pb * self.pmf_component(1, i - 1, j)
        if j >= 1:
            val += (1.0 - pb) * self.pmf_component(2, i, j - 1)
        return val

    def pmf_component_table(self, component: int, i_max: int, j_max: int) -> np.ndarray:
        """Dense table of P[X_j = i, Y_j = m] for i <= i_max, m <= j_max.

        One set of mixing nodes serves every cell; the step is halved
        until the whole table is stable.
        """
        rin, rout = self._shapes(component)
        a = self.derived.a
        iarr = np.arange(i_max + 1, dtype=np.float64)
        jarr = np.arange(j_max + 1, dtype=np.float64)

        def weighted_sum(z, w):
            A = nb_pmf(iarr[None, :], rin, (1.0 / z)[:, None])
            B = nb_pmf(jarr[None, :], rout, (z**-a)[:, None])
            return np.einsum("q,qi,qj->ij", w, A, B, optimize=True)

        return np.clip(self._mix(weighted_sum), 0.0, None)

    def pmf_table(self, i_max: int, j_max: int) -> np.ndarray:
        """Dense table of P[I = i, O = j] on [0, i_max] x [0, j_max]."""
        pb = self.split
        t1 = self.pmf_component_table(1, max(i_max - 1, 0), j_max)
        t2 = self.pmf_component_table(2, i_max, max(j_max - 1, 0))
        out = np.zeros((i_max + 1, j_max + 1))
        if i_max >= 1:
            out[1:, :] += pb * t1
        if j_max >= 1:
            out[:, 1:] += (1.0 - pb) * t2
        return out

    # -- sampling ----------------------------------------------------------

    def sample_mixing(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw the latent Z by inverse cdf: Z = U**(-c1) on (1, inf)."""
        u = 1.0 - rng.random(n)
        return u ** (-self.derived.c1)

    def sample_component(self, component: int, n: int, rng: np.random.Generator):
        """n iid draws of (X_j, Y_j) via gamma-Poisson negative binomials."""
        rin, rout = self._shapes(component)
        z = self.sample_mixing(n, rng)
        x = self._nb_given_scale(rin, z - 1.0, rng)
        y = self._nb_given_scale(rout, z ** self.derived.a - 1.0, rng)
        return x, y

    def sample(self, n: int, rng: np.random.Generator):
        """n iid draws of the degree pair (I, O).

        Requires delta_in > 0 and delta_out > 0 so both components are
        nondegenerate.
        """
        if self.params.delta_in <= 0 or self.params.delta_out <= 0:
            raise DomainError("sampling the limit law needs delta_in > 0 and delta_out > 0")
        pick1 = rng.random(n) < self.split
        i_out = np.empty(n, np.int64)
        o_out = np.empty(n, np.int64)
        n1 = int(pick1.sum())
        x1, y1 = self.sample_component(1, n1, rng)
        i_out[pick1] = 1 + x1
        o_out[pick1] = y1
        x2, y2 = self.sample_component(2, n - n1, rng)
        i_out[~pick1] = x2
        o_out[~pick1] = 1 + y2
        return i_out, o_out

    @staticmethod
    def _nb_given_scale(r: float, scale, rng: np.random.Generator) -> np.ndarray:
        if r == 0.0:
            return np.zeros(np.shape(scale), np.int64)
        lam = rng.gamma(r, np.maximum(scale, 0.0))
        return rng.poisson(lam).astype(np.int64)

    # -- helpers -------------------------------------------------------------

    def _mix(self, weighted_sum):
        """E[f(Z)] for an f <= 1; ``weighted_sum(z, w)`` returns sum_q w_q f(z_q).

        The weight w(s) = exp(s - (1+1/c1) log1p(e^s))/c1 is at most e^s/c1
        and e^(-s/c1)/c1, which fall e^-WINDOW below 1/c1 at the window's ends.
        """
        c1 = self.derived.c1

        def sum_f(s):
            es = np.exp(s)
            return weighted_sum(1.0 + es, np.exp(s - (1.0 + 1.0 / c1) * np.log1p(es)) / c1)

        return trapezoid(sum_f, -WINDOW, WINDOW * c1, self.quad)

    def _shapes(self, component: int):
        try:
            return _COMPONENT_SHAPES[component](self.params)
        except KeyError:
            raise DomainError(f"component must be 1 or 2, got {component!r}") from None

    @staticmethod
    def _check_unit(v: float, name: str) -> None:
        if not (0.0 <= v <= 1.0):
            raise DomainError(f"{name} must lie in [0, 1], got {v}")
