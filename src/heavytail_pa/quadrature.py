"""One quadrature rule for the mixture integrals.

Every integral in the package is an expectation over the Pareto mixing
variable Z.  Written in s = log z or s = log(z - 1), each integrand is
analytic in a strip around the real axis and decays exponentially at
both ends, so the trapezoid rule converges exponentially on it and its
levels nest: halving the step reuses every earlier node (Trefethen and
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review
56(3), 2014).  `trapezoid` is that rule, scalar and table-valued
integrands alike.

Each caller bounds its window in closed form, from the decay of the
mixing weight and of its sections: the window ends where that bound lies
e^-WINDOW below a lower bound of the integrand's peak.
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
    sum or running total raises QuadratureFailure, and so does a level
    that would take the nodes past MAX_NODES, before its nodes are built.
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
            if change == math.inf:  # the total overflowed, and inf <= tol_rel * inf
                raise QuadratureFailure(f"the running sum overflows the float range at {used} nodes")
            return value
