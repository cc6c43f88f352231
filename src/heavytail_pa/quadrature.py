"""Quadrature helpers for the mixture integrals.

Two recurring shapes:

* integrals over z in (1, inf) against the density c1^-1 z^(-1-1/c1);
  the substitution u = 1/z maps them to (0, 1), and a further power
  substitution u = w**m with m = c1*ceil(2/c1) makes the integrand C^1
  at the origin (m/c1 is then an integer >= 2, so the Jacobian factor
  w**(m/c1 - 1) is a plain polynomial);
* integrals over z in (0, inf) with exponential or power localisation;
  these are integrated in s = log z, split at the localisation scale.

Adaptive work is delegated to scipy's QUADPACK wrapper; the vectorised
composite Gauss-Legendre rule below serves table-valued integrands.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import QuadratureFailure


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for integrals."""

    tol_abs: float = 1e-12
    tol_rel: float = 1e-10
    subdivision_limit: int = 10_000

    def scipy_kwargs(self) -> dict:
        return {
            "epsabs": self.tol_abs,
            "epsrel": self.tol_rel,
            "limit": self.subdivision_limit,
        }


DEFAULT_QUAD = QuadratureSpec()


def power_exponent(c1: float) -> float:
    """Exponent m of the substitution u = w**m removing the u = 0 kink."""
    return c1 * math.ceil(2.0 / c1)


def quad_checked(f, a, b, spec: QuadratureSpec = DEFAULT_QUAD, points=None) -> float:
    """scipy.integrate.quad with failures promoted to QuadratureFailure.

    Failures include an ArithmeticError (overflow, division by zero)
    raised by the integrand itself.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, err = integrate.quad(f, a, b, points=points, **spec.scipy_kwargs())
        except (integrate.IntegrationWarning, ArithmeticError) as exc:
            raise QuadratureFailure(f"{type(exc).__name__}: {exc}") from exc
    if not math.isfinite(val):
        raise QuadratureFailure(f"non-finite quadrature value {val}")
    if err > 10.0 * max(spec.tol_abs, spec.tol_rel * abs(val), 1e-300):
        raise QuadratureFailure(f"error estimate {err:.2e} above tolerance for value {val:.6e}")
    return val


def quad_semiinfinite(f, split: float, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Integrate f over (0, inf) in log coordinates, split near `split`.

    Both pieces must decay; the caller guarantees integrability.
    """
    s0 = math.log(max(split, 1e-300))

    def g(s):
        z = math.exp(s)
        return f(z) * z

    lo = quad_checked(g, s0 - 60.0, s0, spec)
    hi = quad_checked(g, s0, s0 + 90.0, spec)
    return lo + hi


def gauss_legendre_panels(lo: float, hi: float, n_panels: int, order: int = 24):
    """Nodes and weights of a composite Gauss-Legendre rule on [lo, hi]."""
    xs, ws = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    halfw = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + halfw[:, None] * xs[None, :]).ravel()
    weights = (halfw[:, None] * ws[None, :]).ravel()
    return nodes, weights


def refine_table_integral(eval_on_grid, lo, hi, spec: QuadratureSpec = DEFAULT_QUAD,
                          start_panels: int = 8, max_panels: int = 512):
    """Composite-rule integration of an array-valued integrand.

    ``eval_on_grid(nodes, weights)`` must return the weighted integral
    contribution as an ndarray.  Panels are doubled until the result is
    stable to the requested tolerance (max-norm over the table).
    """
    n = start_panels
    delta = math.inf
    nodes, weights = gauss_legendre_panels(lo, hi, n)
    prev = eval_on_grid(nodes, weights)
    while n <= max_panels:
        n *= 2
        nodes, weights = gauss_legendre_panels(lo, hi, n)
        cur = eval_on_grid(nodes, weights)
        delta = float(np.max(np.abs(cur - prev)))
        scale = max(1.0, float(np.max(np.abs(cur))))
        if delta <= max(spec.tol_abs, spec.tol_rel * scale):
            return cur
        prev = cur
    raise QuadratureFailure(
        f"table integral not converged at {max_panels} panels (last change {delta:.2e})"
    )
