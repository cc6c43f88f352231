"""One quadrature rule for the mixture integrals.

Every integral in the package is an expectation over the Pareto mixing
variable Z.  Written in s = log z or s = log(z - 1), each integrand is
analytic in a strip around the real axis and decays exponentially at
both ends, so the trapezoid rule converges exponentially on it and its
levels nest: halving the step reuses every earlier node (Trefethen and
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review
56(3), 2014).  `trapezoid` is that rule, scalar and table-valued
integrands alike.  An integrand returns its value at each node, with
the nodes on the last axis; the rule sums each level along that axis.

The rule stops on relative change alone, at TOL_REL.  Every integrand
here is positive, and its integral can lie far below any fixed absolute
floor (far-tail densities reach 1e-14 and less), where such a floor
would accept a value before it is relatively accurate.

Each caller bounds its window in closed form, from the decay of the
mixing weight and of its sections: the window ends where that bound lies
e^-WINDOW below a lower bound of the integrand's peak.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureFailure

# e-folds below the peak at which an integration window ends
WINDOW = 40.0
# nodes one integral may evaluate before it is declared unresolved
MAX_NODES = 1 << 16
# the max-norm change, relative to the largest |value|, at which the rule
# stops; read when the rule runs
TOL_REL = 1e-10


def trapezoid(f, lo: float, hi: float):
    """Nested trapezoid rule for the integral of f over [lo, hi].

    ``f(nodes)`` returns f at each node, the nodes on the last axis of
    its result; a table-valued f returns its table on the leading axes.
    The rule starts at a step h of at most 0.25 and halves it, evaluating
    only the new midpoints, until the max-norm change is at most
    TOL_REL * max|value|.  Its first two levels are one call, on the
    nodes lo + (h/2) arange(1, 2n): level 0 at the odd
    positions, its midpoints at the even ones.  The ends are never
    evaluated: every window ends where f is negligible.  A non-finite
    level sum or running total raises QuadratureFailure, and so does a
    call that would take the nodes past MAX_NODES, before its nodes are
    built.
    """
    n = max(2, math.ceil(4.0 * (hi - lo)))
    h = (hi - lo) / n
    used = 2 * n - 1
    if used > MAX_NODES:
        raise _unconverged(0, math.inf, used)
    # an overflow, in f or in a sum, is an inf that the checks below report
    with np.errstate(over="ignore"):
        first = f(lo + 0.5 * h * np.arange(1.0, used + 1.0))
        total = np.add.reduce(first[..., 1::2], axis=-1)
        mids = np.add.reduce(first[..., 0::2], axis=-1)
        value = h * total
        while True:
            # total is finite past level 0: an inf one fails as an overflowing sum below
            if not (_finite(total) and _finite(mids)):
                raise QuadratureFailure(f"non-finite integrand value at {used} nodes")
            total = total + mids
            n, h = 2 * n, 0.5 * h
            prev, value = value, h * total
            change = _max_abs(value - prev)
            if change <= TOL_REL * _max_abs(value):
                if change == math.inf:  # the total overflowed, and inf <= TOL_REL * inf
                    raise QuadratureFailure("the running sum overflows the float range at "
                                            f"{used} nodes")
                return value
            if used + n > MAX_NODES:
                raise _unconverged(used, change, n)
            used += n
            mids = np.add.reduce(f(lo + h * np.arange(0.5, n)), axis=-1)


def _finite(v) -> bool:
    """Whether a level sum, a float or a table, is finite throughout."""
    return math.isfinite(v) if isinstance(v, float) else bool(np.isfinite(v).all())


def _max_abs(v) -> float:
    """The largest |entry| of a float or a table."""
    return abs(v) if isinstance(v, float) else float(abs(v).max())


def _unconverged(used: int, change: float, count: int) -> QuadratureFailure:
    """The failure of a rule that `count` more nodes would take past MAX_NODES."""
    return QuadratureFailure(f"trapezoid rule not converged at {used} nodes (last change "
                             f"{change:.2e}): {count} more would pass {MAX_NODES}")
