"""The limiting joint in/out-degree law, and the one NB-mixture kernel.

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

Every pgf and pmf here, and every mass of tauberian's derivative
measure, is one integral over Z, held by the kernel `_NBMixture`: its
order-0 measure of a component is the component's law, and the
derivative measure is its order-k measure of component 1.  An NB pmf
needs only log Gamma of its shape shifted by integers, which math.lgamma
gives; only a cdf section loads scipy.special, when it runs, so the pgf,
the pmf and the sampler need none.

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
_TINY = np.finfo(np.float64).tiny  # the least normal float


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
    m, p = np.asarray(m, np.float64), np.asarray(p, np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _nb_logpmf(_nb_log_coef(m, r), m, r, np.log(p), np.log1p(-p))


def _nb_logpmf(coef, m: np.ndarray, r: float, log_p, log_1mp) -> np.ndarray:
    """nb_logpmf from coef = _nb_log_coef(m, r), log p and log(1 - p)."""
    return coef + r * log_p + np.where(m > 0, m * log_1mp, 0.0)


def _log_mix_const(r: float, k: int, c1: float) -> float:
    """log(Gamma(r+k) / (Gamma(r) c1)): the weight constant of the order-k measure."""
    return (math.lgamma(r + k) - math.lgamma(r) if k else 0.0) - math.log(c1)


def _section(r: float, log_p, log_odds, tilt: float):
    """m -> log sum_{i <= m} nb(i; r, p) e^(-tilt i), elementwise over the nodes.

    Tilting maps the section to another NB law:
    nb(i; r, p) e^(-tilt i) = (p/p~)^r nb(i; r, p~) with 1 - p~ = (1-p) e^-tilt,
    so the whole section (m = inf) is
    (p/p~)^r = (1 + (1-p)/p (1 - e^-tilt))^-r, from the log odds
    log((1-p)/p), and a cut one adds the log of the NB cdf I_p~(r, m+1).
    m < 0 gives the empty section; m stays a float because scaled cut
    indices can exceed the int64 range.  The tilt is applied once, for
    every cut the returned function takes.
    """
    log_scale, log_pt = 0.0, log_p
    if tilt != 0.0 and r != 0.0:
        log_scale = -r * np.logaddexp(0.0, log_odds + math.log(-math.expm1(-tilt)))
        log_pt = log_p - log_scale / r

    def log_section(m: float):
        if m < 0:
            return -math.inf
        if math.isinf(m) or r == 0.0:
            return log_scale
        return log_scale + _log_betainc(r, m + 1.0, log_pt)

    return log_section


def _log_betainc(r: float, b: float, log_x: np.ndarray) -> np.ndarray:
    """log I_x(r, b), I the regularized incomplete beta function.

    Where x or I is not a normal float, log I comes from the series
    I_x(r, b) = x^r (1-x)^b 2F1(r+b, 1; r+1; x) / (r B(r, b)), which stays
    exact in log x while x itself underflows (a subnormal x has lost its
    precision before betainc sees it).  scipy.special loads here, when a
    cut section first runs.
    """
    from scipy.special import betainc, betaln, hyp2f1

    x = np.exp(log_x)
    val = betainc(r, b, x)
    under = np.minimum(x, val) < _TINY
    if not under.any():
        return np.log(val)
    out = np.log(val, out=np.empty_like(val), where=~under)
    lx = log_x[under]
    x = np.exp(lx)  # here x is small, or I underflows at a moderate x: log1p(-x) is exact
    out[under] = (r * lx + b * np.log1p(-x) - math.log(r) - betaln(r, b)
                  + np.log(hyp2f1(r + b, 1.0, r + 1.0, x)))
    return out


def _log_tail(r: float, tilt: float, m: float) -> float:
    """A log C with section(r, p, tilt, m) <= C p^r, or inf where none is finite.

    The cut section is at most C(r+m, m) p^r <= (1+m)^r p^r, the whole
    tilted one (p/p~)^r <= (1 - e^-tilt)^-r p^r.
    """
    if r == 0.0:
        return 0.0
    cut = r * math.log1p(max(m, 0.0)) if math.isfinite(m) else math.inf
    return min(cut, -r * math.log(-math.expm1(-tilt))) if tilt > 0 else cut


class _NBMixture:
    """The order-k measure of a mixture component, as one integral over Z.

    It evaluates three kinds of NB section: a pmf table over index arrays
    (`table`), and cut and whole tilted sections (`mass`), the NB cdf and
    pgf.  For the component with NB shapes (r_in, r_out) its atoms are
    (i+1)...(i+k) P[X = i+k, Y = j].  Given Z = z the factorials shift
    the in-shape, so in s = log(z - 1) the atoms are the product of
    NB(r_in + k, 1/z) and NB(r_out, z^-a) masses under the weight
    exp(log_const + (k+1)s - (1+1/c1) log1p(e^s)); at k = 0 they are
    the component's pmf.  Every factor enters as a log, with
    log(1/z) = -logaddexp(0, s) and log z^-a = a times it, and the
    integrand is exp(log w + sum of log sections): nothing overflows at
    the far scale, and a factor that underflows contributes 0.

    Window: the weight is at most e^(log_const + (k+1)s) and
    e^(log_const + (k - 1/c1)s); a section is at most 1, and at most
    e^log_tail p^r with p^r <= e^(-r s) in and e^(-a r s) out.  A mass,
    or a table holding the cell (0, 0), is at least
    g = weight (1 + e^s)^-(r_in + a r_out), its value at i = j = 0, so the
    window ends where the tightest bound falls e^-WINDOW below the least
    possible peak of g.  At k = 0 the weight alone decays, so sections
    that decay nowhere (the pgf at x = y = 1) still have a finite window.
    """

    def __init__(self, derived: DerivedConstants, r_in: float, r_out: float, k: int,
                 quad: QuadratureSpec):
        self.c1, self.a, self.k, self.quad = derived.c1, derived.a, k, quad
        self.r_in, self.r_out = r_in + k, r_out
        self.log_const = _log_mix_const(r_in, k, self.c1)
        # the peak of g relative to e^log_const is (k+1) log q - n log1p(q) at e^s = q
        n = 1.0 + 1.0 / self.c1 + self.r_in + self.a * r_out
        q = (k + 1.0) / (n - k - 1.0)
        self.log_floor = (k + 1.0) * math.log(q) - n * math.log1p(q) - WINDOW

    def table(self, i_idx, j_idx) -> np.ndarray:
        """The atoms at every (i, j) of the index arrays, as a table."""
        i_idx, j_idx = np.asarray(i_idx, np.float64), np.asarray(j_idx, np.float64)
        ci, cj = _nb_log_coef(i_idx, self.r_in), _nb_log_coef(j_idx, self.r_out)

        def sum_f(s):
            s = s[:, None]
            log_w, (lp, _), (lq, oq) = self._logs(s)
            w_in = np.exp(log_w + _nb_logpmf(ci, i_idx, self.r_in, lp, -np.logaddexp(0.0, -s)))
            return w_in.T @ np.exp(_nb_logpmf(cj, j_idx, self.r_out, lq, lq + oq))

        return self._integrate(sum_f, 0.0, i_idx.max(), 0.0, j_idx.max())

    def mass(self, cuts, tilt_in: float = 0.0, tilt_out: float = 0.0) -> np.ndarray:
        """sum_{i <= m_in, j <= m_out} of the atoms times e^(-tilt_in i - tilt_out j).

        One value per cut (m_in, m_out) of `cuts`, on one set of nodes; a
        cut may be inf (the whole section) or negative (empty).
        """
        def sum_f(s):
            log_w, in_logs, out_logs = self._logs(s, tilt_out != 0.0)
            sec_in = _section(self.r_in, *in_logs, tilt_in)
            sec_out = _section(self.r_out, *out_logs, tilt_out)
            return np.array([np.exp(log_w + sec_in(mi) + sec_out(mj)).sum() for mi, mj in cuts])

        return self._integrate(sum_f, tilt_in, max(mi for mi, _ in cuts),
                               tilt_out, max(mj for _, mj in cuts))

    def _logs(self, s, out_odds: bool = True):
        """log w, and (log p, log((1-p)/p)) and (log q, log((1-q)/q)) at the nodes s.

        The in odds (1-p)/p = z - 1 are e^s; the out odds z^a - 1 are formed
        only if asked for.
        """
        log_z = np.logaddexp(0.0, s)
        log_w = self.log_const + (self.k + 1.0) * s - (1.0 + 1.0 / self.c1) * log_z
        log_q = -self.a * log_z
        return log_w, (-log_z, s), (log_q, np.log(-np.expm1(log_q)) - log_q if out_odds else None)

    def _integrate(self, sum_f, tilt_in: float, m_in: float, tilt_out: float, m_out: float):
        """The trapezoid rule over the window of sections with these tilts and largest cuts."""
        decay = 1.0 / self.c1 - self.k
        bounds = ((0.0, 0.0), (_log_tail(self.r_in, tilt_in, m_in), self.r_in),
                  (_log_tail(self.r_out, tilt_out, m_out), self.a * self.r_out))
        hi = min((log_tail - self.log_floor) / (rate + decay)
                 for log_tail, rate in bounds if rate + decay > 0)
        if math.isinf(hi):
            raise DomainError(f"the mass is infinite: at k = {self.k} the weight grows like "
                              f"e^({-decay:.6g} s) and no section decays faster")
        # a sum beyond the float range overflows to inf, which trapezoid reports
        with np.errstate(over="ignore"):
            return trapezoid(sum_f, self.log_floor / (self.k + 1.0), hi, self.quad)


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
        p = self.params
        self._kernels = {
            1: _NBMixture(self.derived, p.delta_in + 1.0, p.delta_out, 0, quad),
            2: _NBMixture(self.derived, p.delta_in, p.delta_out + 1.0, 0, quad),
        }

    # -- generating functions -------------------------------------------

    def pgf_component(self, component: int, x: float, y: float) -> float:
        """E[x^X_j y^Y_j] for component j, 0 <= x, y <= 1.

        Given Z = z the NB pgf identity gives (x + (1-x) z)^-r_in
        (y + (1-y) z^a)^-r_out: the whole NB sections tilted by -log x
        and -log y, which the kernel mixes over Z.
        """
        self._check_unit(x, "x")
        self._check_unit(y, "y")
        tilts = (-math.log(v) if v > 0 else math.inf for v in (x, y))
        return float(self._kernel(component).mass([(math.inf, math.inf)], *tilts)[0])

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
        return float(self._kernel(component).table([i], [j])[0, 0])

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
        return self._kernel(component).table(np.arange(i_max + 1), np.arange(j_max + 1))

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
        self._kernel(component)  # raises DomainError unless component is 1 or 2
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

    def _kernel(self, component: int) -> _NBMixture:
        try:
            return self._kernels[component]
        except KeyError:
            raise DomainError(f"component must be 1 or 2, got {component!r}") from None

    @staticmethod
    def _check_unit(v: float, name: str) -> None:
        if not (0.0 <= v <= 1.0):
            raise DomainError(f"{name} must lie in [0, 1], got {v}")
