"""Reference implementations the tests compare the package against.

Each oracle evaluates a quantity by its definition, through a path the
package's own evaluators do not take.
"""

import math

import numpy as np

from heavytail_pa import DomainError, InsufficientExceedances, LimitDistribution, QuadratureFailure
from heavytail_pa.census import MIN_EXCEEDANCES, AngularHistogram
from heavytail_pa.quadrature import MAX_NODES


def two_call_trapezoid(sum_f, lo: float, hi: float, tol_abs: float = 1e-12,
                       tol_rel: float = 1e-10):
    """The nested trapezoid rule with one integrand call per level.

    ``sum_f(nodes)`` returns the sum of f over the nodes, a float or a
    table.  Level 0 (n - 1 nodes) and its midpoints (n nodes) are two
    calls, and the rule stops when the max-norm change is within
    max(tol_abs, tol_rel * max|value|); otherwise the rule and its
    failures are those of quadrature.trapezoid, which must match it bit
    for bit.  The default tolerances are those the NB-mixture integrals
    once ran at; the gamma-mixture ones ran at tol_abs = 0.
    """
    n = max(2, math.ceil(4.0 * (hi - lo)))
    h = (hi - lo) / n
    used, change = 0, math.inf

    def checked_sum(offset: float, count: int):
        """The sum of f over lo + h (offset + arange(count)), after the node budget allows it."""
        nonlocal used
        if used + count > MAX_NODES:
            raise QuadratureFailure(f"trapezoid rule not converged at {used} nodes (last change "
                                    f"{change:.2e}): {count} more would pass {MAX_NODES}")
        used += count
        part = sum_f(lo + h * (offset + np.arange(count)))
        if not np.all(np.isfinite(part)):
            raise QuadratureFailure(f"non-finite integrand value at {used} nodes")
        return part

    total = checked_sum(1.0, n - 1)
    value = h * total
    while True:
        total = total + checked_sum(0.5, n)
        n, h = 2 * n, 0.5 * h
        prev, value = value, h * total
        change = float(np.max(np.abs(value - prev)))
        if change <= max(tol_abs, tol_rel * float(np.max(np.abs(value)))):
            if change == math.inf:  # the total overflowed, and inf <= tol_rel * inf
                raise QuadratureFailure(f"the running sum overflows the float range at {used} nodes")
            return value


def ends(power: float, log_const: float, margins, floor: float):
    """(lo, hi) in s beyond which one gamma-mixture component's bounds hold its log f below floor.

    The window bounds of tail_measure._GammaMixture, rebuilt from the
    sections on every call: `power` is the weight's k - 1/c1, `log_const`
    the component's log weight constant, and `margins` pairs each margin's
    (log sigma, rate) with its section.  With one section's bound at a time
    and the other's constant one, the weight ends one side, a power bound
    the right one, and where the weight grows (k < 1/c1) a decay bound the
    left one, at the largest root x of e^x/2 = c - q x.  A zero corner's
    Q(r, 0) is 1: it bounds nothing.
    """
    live = [(log_sigma, rate, sec) for (log_sigma, rate), sec in margins
            if log_sigma > -math.inf]
    top = log_const + sum(sec.const for *_, sec in live)
    end = (floor - top) / power
    lo, hi = (end, math.inf) if power > 0.0 else (-math.inf, end)
    for log_sigma, rate, sec in live:
        rest, r = top - sec.const, sec.r
        if sec.line is not None and power < r * rate:
            hi = min(hi, (floor - rest - sec.line - r * log_sigma) / (power - r * rate))
        if sec.decay is not None and power < 0.0:
            # x <- log(2(c - q x)) from e^x/2 = 2y^2 >= c - q x, y = |c| + 2|q| + 2,
            # decreases to the largest root without passing it
            c, q = rest + sec.decay + power * log_sigma / rate - floor, power / rate
            x = 2.0 * math.log(2.0 * (abs(c) + 2.0 * abs(q) + 2.0))
            for _ in range(3):
                if c - q * x <= 0.0:  # no root: e^x/2 is the larger everywhere
                    break
                x = math.log(2.0 * (c - q * x))
            lo = max(lo, (log_sigma - x) / rate)
    return lo, hi


def _nb_log_coef(m, r: float) -> np.ndarray:
    """log Gamma(r+m) - log Gamma(r) - log Gamma(m+1), the p-free term of _nb_logpmf.

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


def _nb_logpmf(coef, m: np.ndarray, r: float, log_p, log_1mp) -> np.ndarray:
    """log NB(m; r, p) from coef = _nb_log_coef(m, r), log p and log(1 - p)."""
    return coef + r * log_p + np.where(m > 0, m * log_1mp, 0.0)


def nb_logpmf(m, r: float, p) -> np.ndarray:
    """log NB(m; r, p) on the support {0, 1, ...}; r = 0 degenerates at 0."""
    m, p = np.asarray(m, np.float64), np.asarray(p, np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _nb_logpmf(_nb_log_coef(m, r), m, r, np.log(p), np.log1p(-p))


def nb_pmf(m, r: float, p) -> np.ndarray:
    """NB(m; r, p) on the support {0, 1, ...}; r = 0 degenerates at 0."""
    return np.exp(nb_logpmf(m, r, p))


def mixture_pmf_table(kernel, i_idx, j_idx) -> np.ndarray:
    """The atoms of an NB-mixture kernel at every (i, j) of the index arrays, by quadrature.

    The NB pmfs mixed over Z on the kernel's own window, by the two-call
    rule: its integrand sums each table over the nodes as one matrix
    product, which a per-node table would hold in memory whole.  At order
    0 this is the component's pmf.  The window holds wherever the index
    arrays hold 0.
    """
    i_idx, j_idx = np.asarray(i_idx, np.float64), np.asarray(j_idx, np.float64)
    ci, cj = _nb_log_coef(i_idx, kernel.r_in), _nb_log_coef(j_idx, kernel.r_out)

    def sum_f(s):
        s = s[:, None]
        log_w, (lp, _), (lq, oq) = kernel._logs(s)
        w_in = np.exp(log_w + _nb_logpmf(ci, i_idx, kernel.r_in, lp, -np.logaddexp(0.0, -s)))
        return w_in.T @ np.exp(_nb_logpmf(cj, j_idx, kernel.r_out, lq, lq + oq))

    with np.errstate(over="ignore"):
        return two_call_trapezoid(sum_f, *kernel._window(0.0, i_idx.max(), 0.0, j_idx.max()))


def mixture_joint_pmf_table(dist, i_max: int, j_max: int) -> np.ndarray:
    """P[I = i, O = j] on [0, i_max] x [0, j_max] from the two components' quadratures."""
    pb, i_idx, j_idx = dist.split, np.arange(i_max + 1), np.arange(j_max + 1)
    out = np.zeros((i_max + 1, j_max + 1))
    if i_max >= 1:
        out[1:, :] += pb * mixture_pmf_table(dist._kernel(1), i_idx[:-1], j_idx)
    if j_max >= 1:
        out[:, 1:] += (1.0 - pb) * mixture_pmf_table(dist._kernel(2), i_idx, j_idx[:-1])
    return out


def _rising(i: int, k: int) -> float:
    return float(np.prod(np.arange(i + 1, i + k + 1, dtype=np.float64)))


def atom(measure, i: int, j: int) -> float:
    """An atom of a DerivativeMeasure by the definition:
    prod_{d=1..k}(i+d) * P[X1 = i+k, Y1 = j]."""
    if i < 0 or j < 0:
        raise DomainError("atom indices must be nonnegative")
    pmf = LimitDistribution(measure.params).pmf_component(1, i + measure.k, j)
    return _rising(i, measure.k) * pmf


def dense_atoms(measure, i_max: int, j_max: int) -> np.ndarray:
    """The atoms of a DerivativeMeasure on [0, i_max] x [0, j_max], from the pmf table."""
    k = measure.k
    table = LimitDistribution(measure.params).pmf_component_table(1, i_max + k, j_max)
    rising = np.array([_rising(i, k) for i in range(i_max + 1)])
    return rising[:, None] * table[k:]


class LatticeMeasure:
    """A measure given by a finite dense table of atoms at (i, j)."""

    def __init__(self, atoms: np.ndarray):
        atoms = np.asarray(atoms, np.float64)
        if atoms.ndim != 2:
            raise ValueError("atoms must be a 2-d table")
        if np.any(atoms < 0):
            raise ValueError("atom weights must be nonnegative")
        self.atoms = atoms

    @classmethod
    def from_dict(cls, weights: dict) -> "LatticeMeasure":
        imax = max(i for i, _ in weights)
        jmax = max(j for _, j in weights)
        table = np.zeros((imax + 1, jmax + 1))
        for (i, j), w in weights.items():
            table[i, j] += w
        return cls(table)

    def rect_mass_below(self, x: float, y: float) -> float:
        if x < 0 or y < 0:
            return 0.0
        # a side past the table, inf included, takes the whole axis
        rows, cols = (n if v >= n else math.floor(v) + 1 for v, n in zip((x, y), self.atoms.shape))
        return float(self.atoms[:rows, :cols].sum())

    def laplace(self, s1: float, s2: float, boxes=()) -> tuple:
        """Full transform plus open-box parts; returns (full, [boxes])."""
        full = self._weighted_sum(s1, s2)
        si, sj = self.atoms.shape
        vals = []
        for i_below, j_below in boxes:
            bi, bj = int(min(max(i_below, 0), si)), int(min(max(j_below, 0), sj))  # float cuts
            vals.append(self._weighted_sum(s1, s2, block=(bi, bj)) if bi > 0 and bj > 0 else 0.0)
        return full, vals

    def marginal_mass(self, margin: int, x: float) -> float:
        if margin not in (1, 2):
            raise DomainError("margin must be 1 or 2")
        if x < 0:
            return 0.0
        marg = self.atoms.sum(axis=1 if margin == 1 else 0)
        return float(marg[: int(math.floor(x)) + 1].sum())

    def _weighted_sum(self, s1: float, s2: float, block=None) -> float:
        si, sj = self.atoms.shape if block is None else block
        wi = np.exp(-s1 * np.arange(si))
        wj = np.exp(-s2 * np.arange(sj))
        return float(wi @ self.atoms[:si, :sj] @ wj)


def choose(coin: float, index: float, endpoint: list, n: int, N: int, delta: float) -> int:
    """One preferential draw via the edge/node mixture, from two uniforms.

    endpoint lists the heads for in-degree choices, the tails for
    out-degree choices.
    """
    if coin * (n + delta * N) < n:
        return endpoint[min(int(index * n), n - 1)]
    return min(int(index * N), N - 1)


def step(tails: list, heads: list, node_count: int, params, rng) -> int:
    """Append one growth step's edge to the lists; return the new node count.

    Draws one row of five uniforms (case, out-coin, out-index, in-coin,
    in-index) whatever the case, as grow() does, so the two agree draw
    for draw.
    The new node of an alpha or gamma step is id node_count.
    """
    n, N = len(tails), node_count
    r, out_coin, out_index, in_coin, in_index = rng.random(5).tolist()
    alpha, gamma = r < params.alpha, r >= params.alpha + params.beta
    tails.append(N if alpha else choose(out_coin, out_index, tails, n, N, params.delta_out))
    heads.append(N if gamma else choose(in_coin, in_index, heads, n, N, params.delta_in))
    return N + (alpha or gamma)


def one_pass_angular_histogram(sample, radius_threshold: float, bins: int) -> AngularHistogram:
    """The angular histogram in one pass: the radius and the mask span the whole sample."""
    radius = sample.u + sample.v
    keep = radius > radius_threshold
    count = int(keep.sum())
    if count < MIN_EXCEEDANCES:
        raise InsufficientExceedances(f"only {count} exceedances above {radius_threshold}")
    hist, edges = np.histogram(sample.v[keep] / radius[keep], bins=bins, range=(0.0, 1.0))
    return AngularHistogram(
        bin_edges=edges, masses=hist / count, exceedances=count, threshold=radius_threshold
    )
