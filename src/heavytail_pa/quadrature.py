"""Quadrature helpers for the mixture integrals.

Two recurring shapes:

* integrals over z in (1, inf) against the density c1^-1 z^(-1-1/c1);
  the substitution u = 1/z maps them to (0, 1), and a further power
  substitution u = w**m with m = c1*ceil(2/c1) makes the integrand C^1
  at the origin (m/c1 is then an integer >= 2, so the Jacobian factor
  w**(m/c1 - 1) is a plain polynomial);
* integrals over z in (0, inf) with exponential or power localisation;
  these are integrated in s = log z around the localisation scale, with
  the integrand given as a log (log_semiinfinite), so a factor that
  overflows or underflows on its own never reaches linear space.

Every integral runs on one engine: the vectorised composite
Gauss-Legendre rule of refine_table_integral, scalar and table-valued
integrands alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure


@dataclass(frozen=True)
class QuadratureSpec:
    """Absolute and relative tolerances for integrals."""

    tol_abs: float = 1e-12
    tol_rel: float = 1e-10


DEFAULT_QUAD = QuadratureSpec()


def power_exponent(c1: float) -> float:
    """Exponent m of the substitution u = w**m removing the u = 0 kink."""
    return c1 * math.ceil(2.0 / c1)


@functools.lru_cache(maxsize=None)
def _legendre_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    xs, ws = np.polynomial.legendre.leggauss(order)
    xs.setflags(write=False)
    ws.setflags(write=False)
    return xs, ws


def gauss_legendre_panels(lo: float, hi: float, n_panels: int, order: int = 24):
    """Nodes and weights of a composite Gauss-Legendre rule on [lo, hi]."""
    xs, ws = _legendre_rule(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    halfw = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + halfw[:, None] * xs[None, :]).ravel()
    weights = (halfw[:, None] * ws[None, :]).ravel()
    return nodes, weights


def refine_table_integral(eval_on_grid, lo, hi, spec: QuadratureSpec = DEFAULT_QUAD,
                          start_panels: int = 8, max_panels: int = 512):
    """Composite-rule integration of a scalar- or array-valued integrand.

    ``eval_on_grid(nodes, weights)`` must return the weighted integral
    contribution as a float or an ndarray.  Panels are doubled until the
    max-norm change is within max(tol_abs, tol_rel * max|result|).  A
    non-finite evaluation fails at once.
    """

    def evaluate(n):
        nodes, weights = gauss_legendre_panels(lo, hi, n)
        val = eval_on_grid(nodes, weights)
        if not np.all(np.isfinite(val)):
            raise QuadratureFailure(f"non-finite integrand value at {n} panels")
        return val

    n = start_panels
    delta = math.inf
    prev = evaluate(n)
    while n <= max_panels:
        n *= 2
        cur = evaluate(n)
        delta = float(np.max(np.abs(cur - prev)))
        if delta <= max(spec.tol_abs, spec.tol_rel * float(np.max(np.abs(cur)))):
            return cur
        prev = cur
    raise QuadratureFailure(
        f"table integral not converged at {max_panels} panels (last change {delta:.2e})"
    )


def log_semiinfinite(log_f, split: float, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Integrate f over (0, inf) given log_f(s) = log(z f(z)) at s = log z.

    The range is s in [log split - 60, log split + 90]; the caller puts
    `split` at the localisation scale and guarantees decay on both sides.
    A factor that underflows makes log_f -inf, which contributes 0.
    """
    s0 = math.log(max(split, 1e-300))

    def eval_on_grid(nodes, weights):
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            return float(weights @ np.exp(log_f(nodes)))

    return refine_table_integral(eval_on_grid, s0 - 60.0, s0 + 90.0, spec)
