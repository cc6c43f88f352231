"""One quadrature rule for the mixture integrals.

Every integral in the package is an expectation over the Pareto mixing
variable Z.  Written in s = log z or s = log(z - 1), each integrand is
analytic in a strip around the real axis and decays exponentially at
both ends, so the trapezoid rule converges exponentially on it and its
levels nest: halving the step reuses every earlier node (Trefethen and
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review
56(3), 2014).  `trapezoid` is that rule, scalar and table-valued
integrands alike.

Each caller bounds its window with a closed-form decay rate where one
exists: the window ends where the bound has fallen by e^-WINDOW.  Where
none exists, `log_semiinfinite` scans log f on a unit grid and widens the
window until both ends lie WINDOW below the largest value seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure

# e-folds below the peak at which an integration window ends
WINDOW = 40.0
# nodes one integral may evaluate before it is declared unresolved
MAX_NODES = 1 << 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Absolute and relative tolerances for integrals."""

    tol_abs: float = 1e-12
    tol_rel: float = 1e-10


DEFAULT_QUAD = QuadratureSpec()


def trapezoid(sum_f, lo: float, hi: float, spec: QuadratureSpec = DEFAULT_QUAD):
    """Nested trapezoid rule for the integral of f over [lo, hi].

    ``sum_f(nodes)`` returns the sum of f over the nodes, a float or a
    table.  The rule starts at a step of at most 0.25 and halves it,
    evaluating only the new midpoints, until the max-norm change is
    within max(tol_abs, tol_rel * max|value|).  The ends are never
    evaluated: every window ends where f is negligible.  A non-finite
    sum raises QuadratureFailure, and so does a level that would take
    the nodes past MAX_NODES, before its nodes are built.
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
        if change <= max(spec.tol_abs, spec.tol_rel * float(np.max(np.abs(value)))):
            return value


def log_semiinfinite(log_f, log_split: float, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Integrate f over (0, inf) given log_f(s) = log(z f(z)) at s = log z.

    `log_split` is the s where the caller expects the peak; the peak may
    lie far from it.  A unit-step scan from log_split doubles its span on
    each side whose end is not yet WINDOW below the largest value seen,
    then the window is trimmed to the nodes above that level, plus one on
    each side.  A factor that underflows makes log_f -inf, which
    contributes 0.  The integrand exp(log_f) is positive, so the rule
    stops on spec.tol_rel alone: an absolute floor would accept a far-tail
    value, itself below the floor, long before it is relatively accurate.
    """
    lo = hi = log_split
    grow_lo = grow_hi = WINDOW
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        while grow_lo or grow_hi:
            lo, hi = lo - grow_lo, hi + grow_hi
            s = np.arange(lo, hi + 0.5)
            if s.size > MAX_NODES:
                raise QuadratureFailure(f"no peak of log f within [{lo:.4g}, {hi:.4g}]")
            v = log_f(s)
            if not np.all(v < np.inf):
                raise QuadratureFailure(f"non-finite log-integrand in [{lo:.4g}, {hi:.4g}]")
            floor = np.max(v) - WINDOW
            if floor == -np.inf:
                raise QuadratureFailure(f"the integrand vanishes on [{lo:.4g}, {hi:.4g}]")
            # >= keeps the top even when the floor rounds to it at huge |log f|
            grow_lo = (hi - lo) if v[0] >= floor else 0.0
            grow_hi = (hi - lo) if v[-1] >= floor else 0.0
        keep = np.flatnonzero(v >= floor)
        lo, hi = s[keep[0] - 1], s[keep[-1] + 1]
        relative = QuadratureSpec(tol_abs=0.0, tol_rel=spec.tol_rel)
        return float(trapezoid(lambda nodes: np.exp(log_f(nodes)).sum(), lo, hi, relative))
