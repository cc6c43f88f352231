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
peak.  An NB pmf needs only log Gamma of its shape shifted by integers;
math.lgamma gives it, once per table, so the module needs no
scipy.special.

The sampler draws in blocks of SAMPLE_BLOCK pairs into preallocated
int32 outputs, each block from its own child stream spawned once from
the caller's generator, on a thread per usable core (numpy's generators
release the GIL).  A block draws the switch, Z by inverse cdf
(Z = U^(-c1)), and the negative binomials by the gamma-Poisson
composition, exact for non-integer shapes.  The seed -> sample mapping
depends only on the seed and SAMPLE_BLOCK, so a sample is identical on
any number of cores; it differs from that of earlier builds, which drew
each component's pairs in one unblocked pass.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError, ResourceLimit
from .params import DerivedConstants, ModelParams, derive, split_probability, validate
from .quadrature import DEFAULT_QUAD, WINDOW, QuadratureSpec, trapezoid

# draws per sampler block; with the seed it fixes every sample
SAMPLE_BLOCK = 1 << 16
# bytes one block allocates at most while it runs (tracemalloc: 42 per draw)
BLOCK_BYTES = 64 * SAMPLE_BLOCK
COUNT_LIMIT = 2**31  # sampled degrees are int32
# Poisson means are clipped here: a draw at this mean always exceeds
# COUNT_LIMIT, and numpy refuses means near 2**63
_MEAN_CAP = 2.0**40

_COMPONENT_SHAPES = {
    1: lambda p: (p.delta_in + 1.0, p.delta_out),
    2: lambda p: (p.delta_in, p.delta_out + 1.0),
}


def _nb_log_coef(m, r: float) -> np.ndarray:
    """log Gamma(r+m) - log Gamma(r) - log Gamma(m+1), the p-free term of nb_logpmf.

    numpy has no log-gamma ufunc, so math.lgamma runs elementwise.  -inf
    where m < 0 (mass 0); r = 0 degenerates at 0.
    """
    m = np.asarray(m, np.float64)
    if r == 0.0:
        return np.where(m == 0, 0.0, -np.inf)
    lg_r = math.lgamma(r)
    terms = [math.lgamma(r + v) - lg_r - math.lgamma(v + 1.0) if v >= 0 else -math.inf
             for v in m.ravel().tolist()]
    return np.reshape(terms, m.shape)


def nb_logpmf(m, r: float, p) -> np.ndarray:
    """log NB(m; r, p) on the support {0, 1, ...}; r = 0 degenerates at 0."""
    m = np.asarray(m, np.float64)
    return _nb_logpmf(_nb_log_coef(m, r), m, r, p)


def _nb_logpmf(coef, m: np.ndarray, r: float, p) -> np.ndarray:
    """nb_logpmf given coef = _nb_log_coef(m, r), for callers that reuse one m at many p."""
    p = np.asarray(p, np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.where(m > 0, m * np.log1p(-p), 0.0)
        return coef + (r * np.log(p) if r else 0.0) + tail


def nb_pmf(m, r: float, p) -> np.ndarray:
    return np.exp(nb_logpmf(m, r, p))


def usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def draw_block(rng, pb: float, delta_in: float, delta_out: float, c1: float, a: float,
               i_out: np.ndarray, o_out: np.ndarray) -> None:
    """Fill the int32 slices i_out and o_out with draws of (I, O).

    With the switch B ~ Bernoulli(pb) and Z = U^-c1, I = B + X and
    O = 1 - B + Y, where X and Y are gamma-Poisson negative binomials of
    shapes delta_in + B and delta_out + 1 - B and scales Z - 1 and
    Z^a - 1.  A count at or above COUNT_LIMIT raises ResourceLimit.
    """
    m = i_out.size
    pick = rng.random(m) < pb
    z = (1.0 - rng.random(m)) ** -c1
    lam_in = rng.gamma(delta_in + pick, z - 1.0)
    lam_out = rng.gamma(delta_out + ~pick, z**a - 1.0)
    for out, lam, plus in ((i_out, lam_in, pick), (o_out, lam_out, ~pick)):
        count = rng.poisson(np.minimum(lam, _MEAN_CAP, out=lam))
        count += plus
        top = int(count.max(initial=0))
        if top >= COUNT_LIMIT:
            raise ResourceLimit(f"a sampled count of {top} exceeds the int32 range")
        out[:] = count


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
        icoef, jcoef = _nb_log_coef(iarr, rin), _nb_log_coef(jarr, rout)

        def weighted_sum(z, w):
            A = np.exp(_nb_logpmf(icoef, iarr, rin, (1.0 / z)[:, None]))
            B = np.exp(_nb_logpmf(jcoef, jarr, rout, (z**-a)[:, None]))
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

    def sample_component(self, component: int, n: int, rng: np.random.Generator):
        """n iid draws of (X_j, Y_j), as int32 arrays.

        The sampler of `sample` with the switch fixed at component j,
        less the +1 the switch adds, so the two share one rule.
        """
        self._shapes(component)  # raises DomainError unless component is 1 or 2
        i_out, o_out = self._sample_blocks(n, rng, 1.0 if component == 1 else 0.0)
        shifted = i_out if component == 1 else o_out
        shifted -= 1
        return i_out, o_out

    def sample(self, n: int, rng: np.random.Generator):
        """n iid draws of the degree pair (I, O), as int32 arrays.

        Requires delta_in > 0 and delta_out > 0 so both components are
        nondegenerate.  The draws are made in blocks of SAMPLE_BLOCK, each
        from its own child stream of `rng`, on every usable core; the
        result depends only on `rng` and SAMPLE_BLOCK.  Peak memory is the
        8 n bytes returned plus at most BLOCK_BYTES per worker thread, with
        at most one thread per usable core.
        """
        if self.params.delta_in <= 0 or self.params.delta_out <= 0:
            raise DomainError("sampling the limit law needs delta_in > 0 and delta_out > 0")
        return self._sample_blocks(n, rng, self.split)

    def _sample_blocks(self, n: int, rng: np.random.Generator, pb: float):
        """Run `draw_block` with switch probability pb over n draws in blocks."""
        if n < 0:
            raise DomainError(f"the sample size must be nonnegative, got {n}")
        i_out = np.empty(n, np.int32)
        o_out = np.empty(n, np.int32)
        starts = range(0, n, SAMPLE_BLOCK)
        seeds = np.random.SeedSequence(rng.integers(2**63, size=2)).spawn(len(starts))
        p, d = self.params, self.derived

        def block(start, seed):
            stop = start + SAMPLE_BLOCK
            draw_block(np.random.default_rng(seed), pb, p.delta_in, p.delta_out, d.c1, d.a,
                       i_out[start:stop], o_out[start:stop])

        with ThreadPoolExecutor(max(1, min(usable_cores(), len(starts)))) as pool:
            # reading every result raises the first error a block met
            for _ in pool.map(block, starts, seeds):
                pass
        return i_out, o_out

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
