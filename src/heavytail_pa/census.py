"""Sample statistics: empirical degree distributions, tail-index
estimators, and the angular histogram of standardized degree pairs.

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

MAX_TABLE_CELLS = 1 << 27  # 512 MiB of int32 counts
COUNT_MAX = np.iinfo(np.int32).max


def _table_shape(i_max: int, j_max: int) -> tuple:
    """The shape of a dense table over [0, i_max] x [0, j_max], within MAX_TABLE_CELLS."""
    shape = (int(i_max) + 1, int(j_max) + 1)
    if shape[0] * shape[1] > MAX_TABLE_CELLS:
        raise ResourceLimit(f"a {shape[0]} x {shape[1]} count table exceeds {MAX_TABLE_CELLS} cells")
    return shape


class JointCountTable:
    """Dense int32 table of node counts by (in-degree, out-degree)."""

    def __init__(self, counts: np.ndarray):
        counts = np.asarray(counts)
        if counts.ndim != 2:
            raise ValueError("counts must be a 2-d table")
        if counts.size and (counts.min() < 0 or counts.max() > COUNT_MAX):
            raise ValueError(f"counts must lie in [0, {COUNT_MAX}]")
        self.counts = counts.astype(np.int32, copy=False)

    @property
    def total_nodes(self) -> int:
        return int(self.counts.sum())

    @property
    def shape(self):
        return self.counts.shape

    def get(self, i: int, j: int) -> int:
        if 0 <= i < self.counts.shape[0] and 0 <= j < self.counts.shape[1]:
            return int(self.counts[i, j])
        return 0

    def marginal(self, which: str) -> np.ndarray:
        if which == "in":
            return self.counts.sum(axis=1)
        if which == "out":
            return self.counts.sum(axis=0)
        raise ValueError("which must be 'in' or 'out'")

    def to_csv(self, path, metadata: dict | None = None) -> None:
        """Write the sparse rows i, j, N_ij of the nonzero cells (see csvfile)."""
        ii, jj = np.nonzero(self.counts)
        write_csv(path, ("i", "j", "N_ij"), (ii, jj, self.counts[ii, jj]), metadata)

    @classmethod
    def from_csv(cls, path) -> "JointCountTable":
        """Read rows i, j, N_ij; repeated cells add up."""
        rows = read_csv(path, 3, np.int64)
        if np.any(rows < 0):
            raise HeavytailError(f"{path}: negative index or count")
        ii, jj, cc = rows.T
        if cc.max() > COUNT_MAX or cc.sum() > COUNT_MAX:
            raise HeavytailError(f"{path}: counts add up to more than {COUNT_MAX} nodes")
        counts = np.zeros(_table_shape(ii.max(), jj.max()), np.int32)
        np.add.at(counts, (ii, jj), cc.astype(np.int32))
        return cls(counts)


def degree_counts(graph: DirectedMultigraph) -> JointCountTable:
    """Count nodes by joint (in-degree, out-degree)."""
    indeg = graph.in_degree
    outdeg = graph.out_degree
    shape = _table_shape(indeg.max() if indeg.size else 0, outdeg.max() if outdeg.size else 0)
    # below MAX_TABLE_CELLS the int32 flat index cannot overflow
    flat = indeg * shape[1] + outdeg
    counts = np.bincount(flat, minlength=shape[0] * shape[1])
    return JointCountTable(counts.reshape(shape))


class JointPMF:
    """Dense nonnegative mass table over (i, j); absent cells carry 0."""

    def __init__(self, masses: np.ndarray):
        masses = np.asarray(masses, np.float64)
        if masses.ndim != 2:
            raise ValueError("masses must be a 2-d table")
        if np.any(masses < 0):
            raise ValueError("masses must be nonnegative")
        if masses.sum() > 1.0 + 1e-9:
            raise ValueError(f"total mass {masses.sum()} exceeds 1")
        self.masses = masses

    @property
    def total(self) -> float:
        return float(self.masses.sum())

    def get(self, i: int, j: int) -> float:
        if 0 <= i < self.masses.shape[0] and 0 <= j < self.masses.shape[1]:
            return float(self.masses[i, j])
        return 0.0

    def box(self, i_max: int, j_max: int) -> np.ndarray:
        """Masses on [0, i_max] x [0, j_max], zero-padded as needed."""
        out = np.zeros((i_max + 1, j_max + 1))
        si = min(i_max + 1, self.masses.shape[0])
        sj = min(j_max + 1, self.masses.shape[1])
        out[:si, :sj] = self.masses[:si, :sj]
        return out

    def marginal(self, which: str) -> np.ndarray:
        axis = 1 if which == "in" else 0
        if which not in ("in", "out"):
            raise ValueError("which must be 'in' or 'out'")
        return self.masses.sum(axis=axis)


def empirical_pmf(counts: JointCountTable) -> JointPMF:
    """Normalize a count table by the number of nodes."""
    total = counts.total_nodes
    if total == 0:
        raise EmptyInput("count table is empty")
    return JointPMF(counts.counts / total)


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


def default_hill_k(n_samples: int) -> int:
    """The CLI default k = floor(sqrt(n_samples))."""
    return max(2, int(np.sqrt(n_samples)))


def loglog_slope(marginal, i_min: int) -> TailFit:
    """Least-squares slope of log p_i against log i over i >= i_min.

    ``marginal`` is a mass-per-integer map: a dict {i: mass} or a 1-d
    array indexed by i.  Returns the negated slope, so an exact power
    table p_i = C i^-alpha recovers alpha.
    """
    if isinstance(marginal, dict):
        idx = np.array(sorted(marginal), np.float64)
        mass = np.array([marginal[int(i)] for i in idx], np.float64)
    else:
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
    """Pairs mapped to common scaling by the power method: (x, y) -> (x**c, y)."""

    u: np.ndarray
    v: np.ndarray
    c: float


def standardize(pairs, derived: DerivedConstants) -> StandardizedSample:
    """Raise the first coordinate to c = gamma_in/gamma_out.

    After the map both coordinates share the scaling t**(1/gamma_out),
    so the transformed sample has a standard regularly varying tail.
    """
    x, y = pairs
    x = np.asarray(x, np.float64)
    y = np.asarray(y, np.float64)
    if np.any(x < 0) or np.any(y < 0):
        raise DomainError("standardize expects nonnegative pairs")
    c = derived.gamma_in / derived.gamma_out
    return StandardizedSample(u=x**c, v=y, c=c)


@dataclass(frozen=True)
class AngularHistogram:
    """Normalized histogram of L1 angles among threshold exceedances."""

    bin_edges: np.ndarray
    masses: np.ndarray
    exceedances: int
    threshold: float
    norm: str


def angular_histogram(
    sample: StandardizedSample,
    radius_threshold: float,
    bins: int,
    norm: str = "l1",
    min_exceedances: int = 50,
) -> AngularHistogram:
    """Histogram of v/(u+v) over pairs with ||(u, v)|| above the threshold."""
    if bins < 2:
        raise DomainError("need at least 2 bins")
    if radius_threshold <= 0:
        raise DomainError("radius threshold must be positive")
    if norm != "l1":
        raise DomainError(f"unsupported norm {norm!r}; only 'l1' is implemented")
    u, v = sample.u, sample.v
    radius = u + v
    keep = radius > radius_threshold
    count = int(keep.sum())
    if count < min_exceedances:
        raise InsufficientExceedances(f"only {count} exceedances above {radius_threshold}")
    angle = v[keep] / radius[keep]
    hist, edges = np.histogram(angle, bins=bins, range=(0.0, 1.0))
    return AngularHistogram(
        bin_edges=edges,
        masses=hist / count,
        exceedances=count,
        threshold=radius_threshold,
        norm=norm,
    )
