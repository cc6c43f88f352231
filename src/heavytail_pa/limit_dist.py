"""The limiting joint in/out-degree law, and the one NB-mixture kernel.

The two generating-function components are mixtures: conditionally on a
latent Z with density c1^-1 z^(-1-1/c1) on (1, inf), the coordinates
are independent negative binomials,

    X_j ~ NB(r_in(j),  1/Z),      Y_j ~ NB(r_out(j), 1/Z**a),

with shapes r_in(1) = delta_in + 1, r_out(1) = delta_out and
r_in(2) = delta_in, r_out(2) = delta_out + 1.  This rests on the NB pgf
identity sum_m nb(m; r, 1/z) x^m = (x + (1-x) z)^(-r), which turns the
printed integral generating functions into exact samplers and stable
pgf quadratures.  The full degree pair mixes the two components with a
Bernoulli(gamma/(alpha+gamma)) switch and a +1 on the switched margin.

Every pgf here, and every mass of tauberian's derivative measure, is one
integral over Z, held by the kernel `_NBMixture`: its order-0 measure of
a component is the component's law, and the derivative measure is its
order-k measure of component 1.  The pmf needs no integral: it is exact
from the model's balance equations, swept by `_balance_table`.  Only a
cdf section loads scipy.special, when it runs, so the pgf, the pmf and
the sampler need none.

The sampler draws in blocks of SAMPLE_BLOCK pairs into preallocated
int32 outputs, each block from its own child stream spawned once from
the caller's generator, on a thread per usable core (numpy's generators
release the GIL).  A block draws the switch and the negative binomials
by the gamma-Poisson composition, exact for non-integer shapes, on three
identities in law.  The switched margin's extra unit of gamma shape is
one Exp(1) shared by the pair, Gamma(delta + 1) = Gamma(delta) + E, so
each margin is a scalar-shape gamma draw.  Z is e^(c1 W) with W ~ Exp(1)
(equal in law to U^(-c1)), so the scales Z - 1 and Z^a - 1 are
expm1(c1 W) and expm1(a c1 W).  A Poisson(lam) count is read off the
first two arrivals E1, E1 + E2 of a unit-rate Poisson process on
[0, lam]: by memorylessness it is 0 if E1 > lam, 1 if E1 <= lam < E1 + E2
and otherwise 2 + Poisson(lam - E1 - E2), so numpy's Poisson draws only
the counts above 1.  The seed -> sample mapping depends only on the seed
and SAMPLE_BLOCK, so a sample is identical on any number of cores; it
differs from that of earlier builds.
"""

from __future__ import annotations

import math
import numbers
import os

import numpy as np

from .errors import MAX_TABLE_CELLS, PAIR_BUDGET, DomainError, ResourceLimit
from .params import (DerivedConstants, ModelParams, check_component, derive, split_probability,
                     validate)
from .quadrature import WINDOW, trapezoid
from .tail_measure import _TINY, _log_lower, _log_mix_const

# draws per sampler block; with the seed it fixes every sample
SAMPLE_BLOCK = 1 << 16
# bytes one block allocates at most while it runs (tracemalloc: 35 per draw
# where the gamma draws set the peak, as at the canonical point; 50 where
# nearly every count reaches numpy's Poisson, with its int64 indices and draws)
BLOCK_BYTES = 64 * SAMPLE_BLOCK
COUNT_LIMIT = 2**31  # sampled degrees are int32
# Poisson means are clipped here: a draw at this mean always exceeds
# COUNT_LIMIT, and numpy refuses means near 2**63
_MEAN_CAP = 2.0**40


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
    precision before betainc sees it).  For a huge b both return NaN
    where b x is moderate; there log I is its gamma limit log P(r, b x),
    exact to O(1/b).  scipy.special loads here, when a cut section first
    runs.
    """
    from scipy.special import betainc, betaln, hyp2f1

    x = np.exp(log_x)
    val = betainc(r, b, x)
    normal = np.minimum(x, val) >= _TINY  # False where betainc gave NaN
    if normal.all():
        return np.log(val)
    under = ~normal
    out = np.log(val, out=np.empty_like(val), where=normal)
    lx = log_x[under]
    x = np.exp(lx)  # here x is small, or I underflows at a moderate x: log1p(-x) is exact
    out[under] = (r * lx + b * np.log1p(-x) - math.log(r) - betaln(r, b)
                  + np.log(hyp2f1(r + b, 1.0, r + 1.0, x)))
    lost = np.isnan(out)
    if lost.any():
        out[lost] = _log_lower(r).shaped(math.log(b) + log_x[lost])
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

    It evaluates cut and whole tilted NB sections (`mass`): the NB cdf,
    the pgf and the derivative measure.  For the component with NB
    shapes (r_in, r_out) its atoms are (i+1)...(i+k) P[X = i+k, Y = j].
    Given Z = z the factorials shift the in-shape, so in s = log(z - 1)
    the atoms are the product of NB(r_in + k, 1/z) and NB(r_out, z^-a)
    masses under the weight exp(log_const + (k+1)s - (1+1/c1) log1p(e^s));
    at k = 0 they are the component's pmf.  Every factor enters as a log, with
    log(1/z) = -logaddexp(0, s) and log z^-a = a times it, and the
    integrand is exp(log w + sum of log sections): nothing overflows at
    the far scale, and a factor that underflows contributes 0.

    Window: the weight is at most e^(log_const + (k+1)s) and
    e^(log_const + (k - 1/c1)s); a section is at most 1, and at most
    e^log_tail p^r with p^r <= e^(-r s) in and e^(-a r s) out.  A mass
    is at least its value g at i = j = 0, weight (1 + e^s)^-(r_in + a r_out)
    less the factor of a whole untilted section, which is 1; the window
    ends where the tightest bound falls e^-WINDOW below the least possible
    peak of g.  At k = 0 the weight alone decays, so sections that decay
    nowhere (the pgf at x = y = 1) still have a finite window.
    """

    def __init__(self, derived: DerivedConstants, r_in: float, r_out: float, k: int):
        self.c1, self.a, self.k = derived.c1, derived.a, k
        self.r_in, self.r_out = r_in + k, r_out
        self.log_const = _log_mix_const(r_in, k, self.c1)

    def mass(self, cuts, tilt_in: float = 0.0, tilt_out: float = 0.0) -> np.ndarray:
        """sum_{i <= m_in, j <= m_out} of the atoms times e^(-tilt_in i - tilt_out j).

        One value per cut (m_in, m_out) of `cuts`, on one set of nodes; a
        cut may be inf (the whole section) or negative (empty).
        """
        def f(s):
            log_w, in_logs, out_logs = self._logs(s, tilt_out != 0.0)
            sec_in = _section(self.r_in, *in_logs, tilt_in)
            sec_out = _section(self.r_out, *out_logs, tilt_out)
            return np.stack([np.exp(log_w + sec_in(mi) + sec_out(mj)) for mi, mj in cuts], axis=0)

        m_in, m_out = (max(cut) for cut in zip(*cuts))
        return trapezoid(f, *self._window(tilt_in, m_in, tilt_out, m_out))

    def _logs(self, s, out_odds: bool = True):
        """log w, and (log p, log((1-p)/p)) and (log q, log((1-q)/q)) at the nodes s.

        The in odds (1-p)/p = z - 1 are e^s; the out odds z^a - 1 are formed
        only if asked for.
        """
        log_z = np.logaddexp(0.0, s)
        log_w = self.log_const + (self.k + 1.0) * s - (1.0 + 1.0 / self.c1) * log_z
        log_q = -self.a * log_z
        return log_w, (-log_z, s), (log_q, np.log(-np.expm1(log_q)) - log_q if out_odds else None)

    def _window(self, tilt_in: float, m_in: float, tilt_out: float, m_out: float):
        """(lo, hi) in s for sections with these tilts and largest cuts."""
        decay, k1 = 1.0 / self.c1 - self.k, self.k + 1.0
        # a whole untilted section is 1: its log_tail is inf, and its p^r leaves g
        bounds = [(log_tail, rate) for log_tail, rate in
                  ((0.0, 0.0), (_log_tail(self.r_in, tilt_in, m_in), self.r_in),
                   (_log_tail(self.r_out, tilt_out, m_out), self.a * self.r_out))
                  if log_tail < math.inf]
        if all(rate + decay <= 0 for _, rate in bounds):
            raise DomainError(f"the mass is infinite: at k = {self.k} the weight grows like "
                              f"e^({-decay:.6g} s) and no section decays faster")
        # the peak of g relative to e^log_const is k1 log q - n log1p(q) at e^s = q
        n = k1 + decay + sum(rate for _, rate in bounds)
        log_floor = k1 * math.log(k1 / (n - k1)) - n * math.log1p(k1 / (n - k1)) - WINDOW
        hi = min((log_tail - log_floor) / (rate + decay)
                 for log_tail, rate in bounds if rate + decay > 0)
        return log_floor / k1, hi


def _balance_table(derived: DerivedConstants, delta_in: float, delta_out: float,
                   sources: tuple[float, float], i_max: int, j_max: int) -> np.ndarray:
    """n_ij on [0, i_max] x [0, j_max] from the model's balance equations.

    n_ij (1 + c1(i + delta_in) + c2(j + delta_out)) = c1(i-1 + delta_in) n_{i-1,j}
    + c2(j-1 + delta_out) n_{i,j-1} + the sources, whose weights at (1, 0)
    and (0, 1) are `sources` (Bollobas, Borgs, Chayes and Riordan, "Directed
    scale-free graphs", SODA 2003).  No term is negative, so the sweep over
    the anti-diagonals i + j = s is exact.  With a zero row and column
    padded on, a diagonal and its neighbours (i-1, j) and (i, j-1) are
    views of the flat table with one stride, a row and a cell apart.  A box
    past MAX_TABLE_CELLS raises ResourceLimit before anything is allocated.
    The padded float64 table, 8 (i_max + 2)(j_max + 2) bytes, sets the
    peak: at the cap, 1 GiB plus 8 (i_max + j_max + 3) bytes of padding.
    """
    if (i_max + 1) * (j_max + 1) > MAX_TABLE_CELLS:
        raise ResourceLimit(f"a {i_max + 1} x {j_max + 1} pmf box exceeds {MAX_TABLE_CELLS} cells")
    c1, c2, w = derived.c1, derived.c2, j_max + 2
    padded = np.zeros((i_max + 2, w))
    padded[2:3, 1:2], padded[1:2, 2:3] = sources  # a source outside the box meets an empty slice
    flat, step = padded.reshape(-1), w - 1
    up = c1 * (np.arange(i_max + 1.0) - 1.0 + delta_in)
    left = c2 * (np.arange(j_max, -1.0, -1.0) - 1.0 + delta_out)  # by descending j
    for s in range(i_max + j_max + 1):
        lo, hi = max(0, s - j_max), min(s, i_max)
        start = (lo + 1) * w + s - lo + 1
        stop = start + (hi - lo) * step + 1
        up_s, left_s = up[lo:hi + 1], left[j_max - s + lo:j_max - s + hi + 1]
        cells = flat[start:stop:step]
        cells += up_s * flat[start - w:stop - w:step]
        cells += left_s * flat[start - 1:stop - 1:step]
        cells /= (1.0 + c1 + c2) + up_s + left_s  # 1 + c1(i + delta_in) + c2(j + delta_out)
    return padded[1:, 1:]


def _index(value) -> int:
    """A pmf index: a nonnegative integer, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise DomainError(f"pmf indices must be nonnegative integers, got {value!r}")
    return int(value)


def usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def poisson_counts(rng, lam: np.ndarray, plus: np.ndarray, spare: np.ndarray,
                   out: np.ndarray) -> None:
    """Write plus + N into the int32 array out, N ~ Poisson(lam) elementwise.

    N is counted from the first two arrivals of a unit-rate Poisson
    process on [0, lam]: one Exp(1) per mean decides N = 0 (E1 > lam)
    against N >= 1, a second, drawn only for the means left, decides
    N = 1 (E1 + E2 > lam) against N >= 2, and by memorylessness the rest
    are 2 + Poisson(lam - E1 - E2).  The float64 arrays lam and spare,
    of out's size, hold the arrivals and residual means, so both are
    overwritten; the other buffers are int64 indices of the means left
    and the Poisson draws.  Means are clipped at _MEAN_CAP.  A count at
    or above COUNT_LIMIT raises ResourceLimit before out is written.
    """
    np.minimum(lam, _MEAN_CAP, out=lam)
    lam -= rng.standard_exponential(out=spare)  # lam - E1
    hit = np.flatnonzero(lam >= 0)  # N >= 1
    # take writes straight into `out` in mode "clip" (it buffers in "raise");
    # every index here is in range
    rest = np.take(lam, hit, out=spare[:hit.size], mode="clip")  # spare's E1 is spent
    rest -= rng.standard_exponential(out=lam[:hit.size])  # lam - E1 - E2
    deep = np.flatnonzero(rest >= 0)  # N >= 2, as positions in hit
    tail = rng.poisson(np.take(rest, deep, out=lam[:deep.size], mode="clip"))
    # rest is spent: its buffer takes the indices of the means with N >= 2
    deep = np.take(hit, deep, out=spare.view(np.int64)[:deep.size], mode="clip")
    tail += 2
    tail += plus[deep]  # the whole count where N >= 2
    top = int(tail.max(initial=0))
    if top >= COUNT_LIMIT:
        raise ResourceLimit(f"a sampled count of {top} exceeds the int32 range")
    out[:] = plus
    out[hit] += 1
    out[deep] = tail


def draw_block(rng, pb: float, delta_in: float, delta_out: float, c1: float, a: float,
               i_out: np.ndarray, o_out: np.ndarray) -> None:
    """Fill the int32 slices i_out and o_out with draws of (I, O).

    With the switch B ~ Bernoulli(pb), I = B + X and O = 1 - B + Y, where
    X and Y are gamma-Poisson negative binomials of shapes delta_in + B
    and delta_out + 1 - B and scales Z - 1 and Z^a - 1.  Three identities
    in law make the draw:

    - Gamma(delta + 1) = Gamma(delta) + E with E ~ Exp(1), so the margin
      B picks gets one shared E, and each margin is one scalar-shape
      standard_gamma draw; the margins stay independent given (Z, B);
    - Z = U^-c1 = e^(c1 W) with W ~ Exp(1), so Z - 1 = expm1(c1 W) and
      Z^a - 1 = expm1(a c1 W), exact where Z is near 1;
    - a Poisson count from its first two arrivals (`poisson_counts`).

    E's buffer is freed before the counts, and W's spent buffer holds
    their arrivals.  The in-margin is counted first, so a count at or
    above COUNT_LIMIT raises ResourceLimit before that margin's output
    is written.
    """
    m = i_out.size
    pick = rng.random(m) < pb
    other = ~pick
    log_z = rng.standard_exponential(m)
    log_z *= c1
    lam_in = rng.standard_gamma(delta_in, m)
    extra = rng.standard_exponential(m)
    share = extra * pick
    lam_in += share
    extra -= share  # E where the switch is off, exactly
    del share
    lam_out = rng.standard_gamma(delta_out, m)
    lam_out += extra
    scale = np.multiply(log_z, a, out=extra)  # E is spent: its buffer takes a c1 W
    lam_out *= np.expm1(scale, out=scale)
    del extra, scale
    lam_in *= np.expm1(log_z, out=log_z)  # W is spent: its buffer takes the arrivals
    poisson_counts(rng, lam_in, pick, log_z, i_out)
    del lam_in, pick
    poisson_counts(rng, lam_out, other, log_z, o_out)


class LimitDistribution:
    """Evaluator and sampler for the limiting joint degree law."""

    def __init__(self, params: ModelParams):
        self.params = validate(params)
        self.derived: DerivedConstants = derive(self.params)
        self.split = split_probability(self.params)
        p = self.params
        self._kernels = {
            1: _NBMixture(self.derived, p.delta_in + 1.0, p.delta_out, 0),
            2: _NBMixture(self.derived, p.delta_in, p.delta_out + 1.0, 0),
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
        """Joint mass P[X = i, Y = j] of one component: the last cell of its table."""
        return float(self.pmf_component_table(component, i, j)[i, j])

    def pmf(self, i: int, j: int) -> float:
        """P[I = i, O = j] for the full degree pair: the last cell of its table."""
        return float(self.pmf_table(i, j)[i, j])

    def pmf_component_table(self, component: int, i_max: int, j_max: int) -> np.ndarray:
        """Dense table of P[X_j = i, Y_j = m] for i <= i_max, m <= j_max.

        Component 1 is the balance equations' table for a unit source at
        (1, 0) less its row 0, component 2 that for (0, 1) less column 0.
        """
        di, dj = (1, 0) if check_component(component) == 1 else (0, 1)
        table = _balance_table(self.derived, self.params.delta_in, self.params.delta_out,
                               (di, dj), _index(i_max) + di, _index(j_max) + dj)
        return table[di:, dj:]

    def pmf_table(self, i_max: int, j_max: int) -> np.ndarray:
        """Dense table of P[I = i, O = j] on [0, i_max] x [0, j_max].

        The balance equations with both births, so p_ij = n_ij/(alpha+gamma):
        gamma/(alpha+gamma) at (1, 0) and alpha/(alpha+gamma) at (0, 1).
        """
        pb, p = self.split, self.params
        return _balance_table(self.derived, p.delta_in, p.delta_out, (pb, 1.0 - pb),
                              _index(i_max), _index(j_max))

    # -- sampling ----------------------------------------------------------

    def sample_component(self, component: int, n: int, rng: np.random.Generator):
        """n iid draws of (X_j, Y_j), as int32 arrays.

        The sampler of `sample` with the switch fixed at component j,
        less the +1 the switch adds, so the two share one rule.
        """
        component = check_component(component)
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
        at most one thread per usable core; an n above PAIR_BUDGET raises
        ResourceLimit before anything is allocated.
        """
        if self.params.delta_in <= 0 or self.params.delta_out <= 0:
            raise DomainError("sampling the limit law needs delta_in > 0 and delta_out > 0")
        return self._sample_blocks(n, rng, self.split)

    def _sample_blocks(self, n: int, rng: np.random.Generator, pb: float):
        """Run `draw_block` with switch probability pb over n draws in blocks."""
        from concurrent.futures import ThreadPoolExecutor  # loaded only where a sample is drawn

        if n < 0:
            raise DomainError(f"the sample size must be nonnegative, got {n}")
        if n > PAIR_BUDGET:
            raise ResourceLimit(f"a sample of {n} draws exceeds the draw budget {PAIR_BUDGET}")
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
        return self._kernels[check_component(component)]

    @staticmethod
    def _check_unit(v: float, name: str) -> None:
        if not (0.0 <= v <= 1.0):
            raise DomainError(f"{name} must lie in [0, 1], got {v}")
