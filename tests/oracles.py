"""Reference implementations the tests compare the package against.

Each oracle evaluates a quantity by its definition, through a path the
package's own evaluators do not take.
"""

import math

import numpy as np

from heavytail_pa import DomainError, LimitDistribution
from heavytail_pa.limit_dist import nb_logpmf
from heavytail_pa.tauberian import TransformReport


def nb_pmf(m, r: float, p) -> np.ndarray:
    """NB(m; r, p) on the support {0, 1, ...}; r = 0 degenerates at 0."""
    return np.exp(nb_logpmf(m, r, p))


def _rising(i: int, k: int) -> float:
    return float(np.prod(np.arange(i + 1, i + k + 1, dtype=np.float64)))


def atom(measure, i: int, j: int) -> float:
    """An atom of a DerivativeMeasure by the definition:
    prod_{d=1..k}(i+d) * P[X1 = i+k, Y1 = j]."""
    if i < 0 or j < 0:
        raise DomainError("atom indices must be nonnegative")
    pmf = LimitDistribution(measure.params, measure.quad).pmf_component(1, i + measure.k, j)
    return _rising(i, measure.k) * pmf


def dense_atoms(measure, i_max: int, j_max: int) -> np.ndarray:
    """The atoms of a DerivativeMeasure on [0, i_max] x [0, j_max], from the pmf table."""
    k = measure.k
    table = LimitDistribution(measure.params, measure.quad).pmf_component_table(1, i_max + k, j_max)
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
        si, sj = self.atoms.shape
        ix, jy = int(math.floor(x)), int(math.floor(y))
        return float(self.atoms[: min(ix + 1, si), : min(jy + 1, sj)].sum())

    def laplace(self, s1: float, s2: float) -> TransformReport:
        return TransformReport(value=self._weighted_sum(s1, s2), remainder=0.0, s1=s1, s2=s2)

    def laplace_with_boxes(self, s1: float, s2: float, boxes) -> tuple:
        """Full transform plus open-box parts; returns (full, [boxes])."""
        full = self._weighted_sum(s1, s2)
        si, sj = self.atoms.shape
        vals = []
        for i_below, j_below in boxes:
            bi, bj = min(max(i_below, 0), si), min(max(j_below, 0), sj)
            vals.append(self._weighted_sum(s1, s2, block=(bi, bj)) if bi > 0 and bj > 0 else 0.0)
        return full, vals

    def marginal_mass(self, component: int, x: float) -> float:
        if component not in (1, 2):
            raise DomainError("component must be 1 or 2")
        if x < 0:
            return 0.0
        marg = self.atoms.sum(axis=1 if component == 1 else 0)
        return float(marg[: int(math.floor(x)) + 1].sum())

    def _weighted_sum(self, s1: float, s2: float, block=None) -> float:
        si, sj = self.atoms.shape if block is None else block
        wi = np.exp(-s1 * np.arange(si))
        wj = np.exp(-s2 * np.arange(sj))
        return float(wi @ self.atoms[:si, :sj] @ wj)
