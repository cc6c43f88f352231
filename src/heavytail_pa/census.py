"""Sample statistics: empirical degree distributions, tail-index
estimators, and the angular histogram of standardized degree pairs.

A joint count table and an empirical pmf are held as cells: sorted,
unique (i, j, value) arrays of the nonzero entries.  In- and out-degree
are regularly varying with different indices, so the largest of each
grows like a different power of the edge count and a dense table over
both outgrows memory, while the cells stay a few thousand.  Counting,
reading and writing CSV, normalizing and taking marginals work on the
cells.  Only the dense views are refused beyond MAX_TABLE_CELLS
entries: the 2-d `JointCountTable.counts` and `JointPMF.box`, and the
1-d marginals, which span every degree up to the largest.

Nothing here evaluates a special function, so the module loads without
scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvfile import read_csv, write_csv
from .errors import (
    DegenerateTailSample,
    DomainError,
    EmptyInput,
    HeavytailError,
    InsufficientData,
    InsufficientExceedances,
    NonPositiveSample,
    ResourceLimit,
)
from .params import DerivedConstants
from .simulate import DirectedMultigraph

# cells of one dense table: at the cap 512 MiB as int32 counts (`JointCountTable.counts`),
# 1 GiB as float64 (`JointPMF.box`, and limit_dist's `_balance_table` plus its padding)
MAX_TABLE_CELLS = 1 << 27
COUNT_MAX = np.iinfo(np.int32).max
MIN_EXCEEDANCES = 50  # the fewest exceedances an angular histogram is drawn from
ANGULAR_SLICE = 1 << 16  # pairs per slice of an angular histogram
GATHER_SLICE = 1 << 14  # pairs per power-table gather of `standardize`: a 128 KiB intp index


class _Cells:
    """The nonzero cells (i, j, value) of a table over [0, shape[0]) x [0, shape[1]).

    `i`, `j` and `values` are equal-length arrays, unique in (i, j) and in
    row-major order: sorted by the pair key i * shape[1] + j, the order
    np.nonzero gives the dense table.
    """

    def __init__(self, table: np.ndarray):
        self.shape = table.shape
        self.i, self.j = np.nonzero(table)
        self.values = table[self.i, self.j]

    @classmethod
    def _of(cls, shape, i, j, values):
        """A table from cells already in row-major order."""
        table = cls.__new__(cls)
        table.shape, table.i, table.j, table.values = (int(shape[0]), int(shape[1])), i, j, values
        return table

    def get(self, i: int, j: int):
        return self.values[(self.i == i) & (self.j == j)].sum().item()

    def marginal(self, which: str) -> np.ndarray:
        """The sums over j ("in") or over i ("out"), indexed by degree, in the values' dtype.

        np.add.at adds the cells in order, as a weighted np.bincount does,
        so float sums match it bit for bit and integer sums are exact; the
        marginal is the only array the call makes.
        """
        if which not in ("in", "out"):
            raise ValueError("which must be 'in' or 'out'")
        idx, size = (self.i, self.shape[0]) if which == "in" else (self.j, self.shape[1])
        if size > MAX_TABLE_CELLS:
            raise ResourceLimit(f"a marginal over {size} degrees exceeds {MAX_TABLE_CELLS} cells")
        sums = np.zeros(size, self.values.dtype)
        np.add.at(sums, idx, self.values)
        return sums

    def _dense(self, i_max: int, j_max: int, dtype) -> np.ndarray:
        """The cells on [0, i_max] x [0, j_max] as a dense table, zero elsewhere."""
        shape = (int(i_max) + 1, int(j_max) + 1)
        if shape[0] * shape[1] > MAX_TABLE_CELLS:
            raise ResourceLimit(f"a dense {shape[0]} x {shape[1]} view exceeds {MAX_TABLE_CELLS} cells")
        out = np.zeros(shape, dtype)
        keep = (self.i <= i_max) & (self.j <= j_max)
        out[self.i[keep], self.j[keep]] = self.values[keep]
        return out


class JointCountTable(_Cells):
    """Node counts by (in-degree, out-degree), held as their nonzero cells.

    The shape spans the largest in- and out-degree, but only the cells
    that hold a node are stored, so the table costs O(cells), not
    O(shape): in- and out-degree grow like different powers of the edge
    count, and their product outgrows any dense table.  `counts` is the
    dense int32 view, built when read.
    """

    def __init__(self, counts: np.ndarray):
        counts = np.asarray(counts)
        if counts.ndim != 2:
            raise ValueError("counts must be a 2-d table")
        if counts.size and (counts.min() < 0 or counts.max() > COUNT_MAX):
            raise ValueError(f"counts must lie in [0, {COUNT_MAX}]")
        super().__init__(counts.astype(np.int64, copy=False))

    @classmethod
    def _from_pairs(cls, i: np.ndarray, j: np.ndarray, weights=None) -> "JointCountTable":
        """The table of the pairs (i, j), each counting 1 or its weight: repeats add up, zeros drop.

        The shape spans the largest i and j given, weighted 0 or not.
        """
        shape = (int(i.max()) + 1, int(j.max()) + 1) if i.size else (1, 1)
        key = i.astype(np.int64) * shape[1] + j  # below 2**62: both indices fit in int32
        if weights is None:
            key, n = np.unique(key, return_counts=True)
        else:
            key, inverse = np.unique(key, return_inverse=True)
            n = np.bincount(inverse, weights=weights).astype(np.int64)  # exact: sums stay below 2**31
            key, n = key[n > 0], n[n > 0]
        return cls._of(shape, *np.divmod(key, shape[1]), n)

    @property
    def counts(self) -> np.ndarray:
        """The dense int32 table over the whole shape."""
        return self._dense(self.shape[0] - 1, self.shape[1] - 1, np.int32)

    @property
    def total_nodes(self) -> int:
        return int(self.values.sum())

    def to_csv(self, path, metadata: dict | None = None) -> None:
        """Write the rows i, j, N_ij of the nonzero cells (see csvfile)."""
        write_csv(path, ("i", "j", "N_ij"), (self.i, self.j, self.values), metadata)

    @classmethod
    def from_csv(cls, path) -> "JointCountTable":
        """Read rows i, j, N_ij; repeated cells add up."""
        rows = read_csv(path, 3, np.int64)
        if np.any(rows < 0):
            raise HeavytailError(f"{path}: negative index or count")
        ii, jj, cc = rows.T
        if max(ii.max(), jj.max()) > COUNT_MAX:
            raise HeavytailError(f"{path}: a degree above {COUNT_MAX}")
        if cc.max() > COUNT_MAX or cc.sum() > COUNT_MAX:
            raise HeavytailError(f"{path}: counts add up to more than {COUNT_MAX} nodes")
        return cls._from_pairs(ii, jj, cc)


def degree_counts(graph: DirectedMultigraph) -> JointCountTable:
    """Count nodes by joint (in-degree, out-degree).

    One np.unique over the int64 pair keys of the nodes.  Its peak stays
    under 20 bytes per node, whatever the largest degrees: tracemalloc
    measures 18 at 1e6 edges, the keys and np.unique's sorted copy of them.
    """
    return JointCountTable._from_pairs(graph.in_degree, graph.out_degree)


class JointPMF(_Cells):
    """Nonnegative masses over (i, j), held as their nonzero cells; absent cells carry 0.

    Its 2-d dense view is `box`.
    """

    def __init__(self, masses: np.ndarray):
        masses = np.asarray(masses, np.float64)
        if masses.ndim != 2:
            raise ValueError("masses must be a 2-d table")
        if np.any(masses < 0):
            raise ValueError("masses must be nonnegative")
        if masses.sum() > 1.0 + 1e-9:
            raise ValueError(f"total mass {masses.sum()} exceeds 1")
        super().__init__(masses)

    @property
    def total(self) -> float:
        return float(self.values.sum())

    def box(self, i_max: int, j_max: int) -> np.ndarray:
        """Masses on [0, i_max] x [0, j_max], zero-padded as needed."""
        return self._dense(i_max, j_max, np.float64)


def empirical_pmf(counts: JointCountTable) -> JointPMF:
    """Normalize a count table by the number of nodes."""
    total = counts.total_nodes
    if total == 0:
        raise EmptyInput("count table is empty")
    return JointPMF._of(counts.shape, counts.i, counts.j, counts.values / total)


@dataclass(frozen=True)
class TailFit:
    """A tail-index estimate with the sample size it used."""

    index_estimate: float
    k_used: int
    stderr: float


def hill_estimate(samples, k: int) -> TailFit:
    """Hill estimator from the top k order statistics.

    With X_(1) >= X_(2) >= ... the descending order statistics, the
    estimate is the reciprocal of the mean of log(X_(m)/X_(k+1)) over
    m = 1..k, and stderr = estimate/sqrt(k).  Samples must be strictly
    positive; integer ties are used as-is (no jitter).
    """
    x = np.asarray(samples, np.float64)
    if k < 2:
        raise InsufficientData("need k >= 2 order statistics")
    if x.size < k + 1:
        raise InsufficientData(f"need at least k+1 = {k + 1} samples, got {x.size}")
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise NonPositiveSample("hill_estimate requires strictly positive finite samples")
    top = np.partition(x, x.size - (k + 1))[x.size - (k + 1):]
    top = np.sort(top)[::-1]
    mean_log = float(np.mean(np.log(top[:k] / top[k])))
    if mean_log <= 0:
        raise DegenerateTailSample("all top-order-statistic ratios are 1")
    est = 1.0 / mean_log
    return TailFit(index_estimate=est, k_used=k, stderr=est / np.sqrt(k))


def top_order_statistics(counts, m: int) -> np.ndarray:
    """The m largest positive values, descending, of the sample that holds
    counts[v] copies of each value v (all of them when there are fewer).

    A cumulative sum from the largest value down finds them, so the
    sample is never expanded: its size may far exceed memory.
    """
    desc = np.asarray(counts, np.int64)[:0:-1]
    take = np.clip(m - (np.cumsum(desc) - desc), 0, desc)  # the copies still wanted, capped
    return np.repeat(np.arange(desc.size, 0, -1), take).astype(np.float64)


def default_hill_k(n_samples: int) -> int:
    """The CLI default k = floor(sqrt(n_samples))."""
    return max(2, int(np.sqrt(n_samples)))


def loglog_slope(marginal, i_min: int) -> TailFit:
    """Least-squares slope of log p_i against log i over i >= i_min.

    ``marginal`` is a 1-d array of masses indexed by i.  Returns the
    negated slope, so an exact power table p_i = C i^-alpha recovers
    alpha.  i_min must be at least 1, where log i is defined.
    """
    if i_min < 1:
        raise DomainError(f"i_min must be at least 1, where log i is defined, got {i_min}")
    mass = np.asarray(marginal, np.float64)
    idx = np.arange(mass.size, dtype=np.float64)
    keep = (idx >= i_min) & (mass > 0)
    if keep.sum() < 5:
        raise InsufficientData("need at least 5 positive support points with i >= i_min")
    lx = np.log(idx[keep])
    ly = np.log(mass[keep])
    design = np.column_stack([lx, np.ones_like(lx)])
    coef, res, *_ = np.linalg.lstsq(design, ly, rcond=None)
    slope = coef[0]
    dof = max(keep.sum() - 2, 1)
    resid = ly - design @ coef
    var = float(resid @ resid) / dof
    sxx = float(((lx - lx.mean()) ** 2).sum())
    stderr = np.sqrt(var / sxx) if sxx > 0 else np.inf
    return TailFit(index_estimate=float(-slope), k_used=int(keep.sum()), stderr=float(stderr))


@dataclass(frozen=True)
class PMFComparison:
    """Distance report between two mass tables on a rectangle."""

    tv_distance: float
    max_abs_diff: float
    diff: np.ndarray


def compare_pmf(p: JointPMF, q: JointPMF, i_max: int, j_max: int) -> PMFComparison:
    """Compare two pmfs on [0, i_max] x [0, j_max], missing cells read as 0.

    The total-variation distance is half the L1 distance on the region.
    """
    dp = p.box(i_max, j_max)
    dq = q.box(i_max, j_max)
    diff = dp - dq
    return PMFComparison(
        tv_distance=0.5 * float(np.abs(diff).sum()),
        max_abs_diff=float(np.abs(diff).max()),
        diff=diff,
    )


@dataclass(frozen=True)
class StandardizedSample:
    """Pairs mapped to common scaling by the power method: (x, y) -> (x**c, y).

    u is float64.  v is the second coordinate as given, not a copy: the
    map is the identity on it, and u + v and v / (u + v) promote integer
    counts to float64 exactly.
    """

    u: np.ndarray
    v: np.ndarray
    c: float


def standardize(pairs, derived: DerivedConstants) -> StandardizedSample:
    """Raise the first coordinate to c = gamma_in/gamma_out.

    After the map both coordinates share the scaling t**(1/gamma_out),
    so the transformed sample has a standard regularly varying tail.

    Integer counts whose largest value m is below the sample size are
    raised through a power table: u = (arange(m + 1) ** c)[x], the same
    np.power on the same float64 values as x.astype(float64) ** c, so u
    is bit-identical to it, with m + 1 powers in place of one per pair
    and no float64 copy of x.  The table is gathered into u GATHER_SLICE
    pairs at a time, so the index numpy converts to intp is 128 KiB; the
    call then holds 8 B per pair for u plus at most 8 B per pair for the
    table.  Other input is converted to float64 and raised elementwise.
    """
    x, y = pairs
    x, y = np.asarray(x), np.asarray(y)
    if any(a.size and a.min() < 0 for a in (x, y)):
        raise DomainError("standardize expects nonnegative pairs")
    c = derived.gamma_in / derived.gamma_out
    top = int(x.max()) if x.size and x.dtype.kind in "iu" else x.size
    if top < x.size:
        table = np.arange(top + 1, dtype=np.float64) ** c
        u = np.empty(x.shape, np.float64)
        flat_x, flat_u = x.reshape(-1), u.reshape(-1)
        for start in range(0, x.size, GATHER_SLICE):
            part = slice(start, start + GATHER_SLICE)
            # every index lies in [0, top]: "clip" moves none, and unlike "raise" writes u directly
            np.take(table, flat_x[part], out=flat_u[part], mode="clip")
    else:
        u = np.asarray(x, np.float64) ** c
    return StandardizedSample(u=u, v=y, c=c)


@dataclass(frozen=True)
class AngularHistogram:
    """Normalized histogram of L1 angles among threshold exceedances."""

    bin_edges: np.ndarray
    masses: np.ndarray
    exceedances: int
    threshold: float


def angular_histogram(sample: StandardizedSample, radius_threshold: float, bins: int) -> AngularHistogram:
    """Histogram of v/(u+v) over pairs with u + v above the threshold.

    Needs at least MIN_EXCEEDANCES such pairs.  The sample is read in
    slices of ANGULAR_SLICE pairs: a slice's radius is formed, only its
    exceedances are divided, and their angles are binned at once by
    np.histogram's own rule, edges[b] <= a < edges[b + 1] with the last
    bin closed at 1.  Every angle lies in [0, 1], so each pair's radius,
    angle and bin are those of one np.histogram pass over the whole
    sample.  An exceedance whose angle is not in [0, 1], which only a
    sample built by hand with a negative coordinate can hold, is a
    DomainError: the search runs on the edges with 0 first and the float
    after 1 last, so such angles fall in two outer bins that are counted
    but never reported.  No temporary spans the sample, and a slice's
    radius is freed before its v is gathered: at any threshold the call
    peaks near 2.13 slices of float64 for 32-bit v and near 2.25 for
    64-bit v, when every pair exceeds: a slice's mask and angles are held
    beside its gathered v or its bins.
    """
    if bins < 2:
        raise DomainError("need at least 2 bins")
    if radius_threshold <= 0:
        raise DomainError("radius threshold must be positive")
    u, v = sample.u, sample.v
    edges = np.histogram_bin_edges((), bins=bins, range=(0.0, 1.0))
    # the bounds at or below an angle in [0, 1] are 1 + the bins before its own;
    # below 0 none are, and above 1 (or NaN) all bins + 1
    bounds = np.append(edges[:-1], np.nextafter(1.0, 2.0))
    hist = np.zeros(bins + 2, np.int64)
    count = 0
    for start in range(0, u.size, ANGULAR_SLICE):
        up, vp = u[start:start + ANGULAR_SLICE], v[start:start + ANGULAR_SLICE]
        radius = up + vp
        keep = radius > radius_threshold
        angles = radius[keep]
        del radius  # not held beside vp[keep]
        np.divide(vp[keep], angles, out=angles)
        count += angles.size
        at = np.searchsorted(bounds, angles, side="right")
        hist += np.bincount(at, minlength=bins + 2)
        del keep, angles, at  # not held beside the next slice's radius
    if hist[0] or hist[-1]:
        raise DomainError(f"{hist[0] + hist[-1]} of {count} exceedances have an angle outside [0, 1]")
    if count < MIN_EXCEEDANCES:
        raise InsufficientExceedances(f"only {count} exceedances above {radius_threshold}")
    return AngularHistogram(
        bin_edges=edges, masses=hist[1:-1] / count, exceedances=count, threshold=radius_threshold
    )
