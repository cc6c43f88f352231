"""Scaling limits of discrete measures and their Laplace transforms.

The central object is the order-k derivative measure of the first
mixture component: atoms

    m_ij = (i+1)(i+2)...(i+k) * P[X_1 = i+k, Y_1 = j],

an infinite Radon measure once k exceeds alpha_in - 1.  Under the
scaling b1(t) = t**(1/gamma1), b2(t) = t**(1/gamma2) with
gamma1 = k - alpha_in + 1 and gamma2 = gamma1*(alpha_out-1)/(alpha_in-1),
the rescaled measures U_t converge, and their Laplace transforms
converge to an explicit one-dimensional integral.  The routines here
evaluate both sides by independent paths so the convergence can be
observed numerically.

Both sides rest on one kernel each.  The discrete side: the factorial
weights shift the NB shape, so given the latent z the derivative measure
is an i-section NB(delta_in + k + 1, 1/z) times a j-section
NB(delta_out, z**-a) under the mixing weight, the order-k measure of
limit_dist's NB-mixture kernel.  Rectangle masses, a marginal being one
with an infinite side, and transforms are products of exponentially
tilted NB sections per node, each in closed form through the regularized
incomplete beta function, so nothing is summed termwise and no index
range is truncated.  The limit side: the limit of U_t is x^k times
component 1 of the joint tail measure, the order-k measure of
tail_measure's gamma-mixture kernel.
Its transform, rectangle masses and marginal normalizer are that
kernel's Laplace and lower incomplete gamma sections and its closed-form
in-marginal; the transform needs no scipy.special.  The normalizer, and
so the marginal check, is of the in-margin alone: the k-th derivative in
the in-direction is what makes U infinite.  With b1 taken at t/K, U_1
converges to x**gamma1, so the marginal check compares with a limit the
way the transform and rectangle checks do, on the same trend rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InvalidK, QuadratureFailure
from .limit_dist import _NBMixture
from .params import ModelParams, derive, tail_ready
from .tail_measure import _GammaMixture, _log_laplace, _log_lower


@dataclass(frozen=True)
class ScalingFunctions:
    """Power scaling functions b1(t) = t**(1/gamma1), b2(t) = t**(1/gamma2).

    The marginal check takes b1 at t/K, with K the marginal normalizer, so
    that the in-marginal's scaling limit is x**gamma1 with constant one.
    """

    gamma1: float
    gamma2: float

    def __post_init__(self):
        if self.gamma1 <= 0 or self.gamma2 <= 0:
            raise DomainError("scaling indices must be positive")

    def b1(self, t: float) -> float:
        return _scaling_power(t, self.gamma1)

    def b2(self, t: float) -> float:
        return _scaling_power(t, self.gamma2)

    @staticmethod
    def for_derivative_measure(params: ModelParams, k: int) -> "ScalingFunctions":
        d = derive(params)
        g1 = k - d.alpha_in + 1.0
        g2 = g1 * (d.alpha_out - 1.0) / (d.alpha_in - 1.0)
        return ScalingFunctions(gamma1=g1, gamma2=g2)


def _scaling_power(t: float, gamma: float) -> float:
    if not t > 0:
        raise DomainError(f"t must be positive, got {t:g}")
    with np.errstate(over="ignore", invalid="ignore"):
        b = float(np.float64(t) ** (1.0 / gamma))
    if not math.isfinite(b):
        raise DomainError(f"the scaling t**(1/gamma) overflows at t = {t:g}, gamma = {gamma:g}")
    return b


def derivative_marginal_normalizer(params: ModelParams, k: int) -> float:
    """The constant K with U_1(x) ~ K x**gamma1 for the derivative measure.

    The in-marginal of the limit measure is K x**gamma1 with
    K = Gamma(delta_in + 1 + 1/c1)/(c1 Gamma(delta_in + 1) gamma1), the
    gamma mixture's closed form at x = 1; a K beyond the float range is a
    DomainError.
    """
    return _limit_kernel(k, params).in_marginal(1.0)


def _check_order(k, derived) -> None:
    if k <= derived.alpha_in - 1.0:
        raise InvalidK(f"k = {k} must exceed alpha_in - 1 = {derived.alpha_in - 1.0:.6g}")


def _limit_kernel(k, params: ModelParams) -> _GammaMixture:
    """The limit of U_t: the order-k gamma mixture of component 1, for real k > alpha_in - 1."""
    params = tail_ready(params)
    derived = derive(params)
    _check_order(k, derived)
    return _GammaMixture(derived, [(0.0, params.delta_in + 1.0, params.delta_out)], k)


@dataclass(frozen=True)
class TransformReport:
    """A scaled transform and its neglected tail mass, the remainder; the
    transform is evaluated exactly, so the remainder is 0.0."""

    value: float
    remainder: float


class DerivativeMeasure:
    """The order-k factorial-weighted measure of mixture component 1.

    Its atoms are (i+1)...(i+k) P[X1 = i+k, Y1 = j].  Rectangle masses
    and transforms are sums of NB sections under one mixing integral
    (limit_dist._NBMixture), so every evaluation costs one pass over the
    nodes whatever the index range.  Nothing is cached.
    """

    def __init__(self, params: ModelParams, k: int):
        self.params = tail_ready(params)
        self.derived = derive(self.params)
        if k != int(k) or k < 1:
            raise InvalidK("k must be a positive integer")
        _check_order(k, self.derived)
        self.k = int(k)
        self._kernel = _NBMixture(self.derived, self.params.delta_in + 1.0,
                                  self.params.delta_out, self.k)

    def rect_mass_below(self, x: float, y: float) -> float:
        """Sum of atoms with i <= x and j <= y.

        An infinite side gives a marginal: (x, inf) the in-marginal, and
        (inf, y) the out-marginal, which is infinite, a DomainError, where
        k >= alpha_in - 1 + a*delta_out.
        """
        if x < 0 or y < 0:
            return 0.0
        return float(self._kernel.mass([(np.floor(x), np.floor(y))])[0])

    def laplace(self, s1: float, s2: float, boxes=()) -> tuple:
        """sum m_ij e^(-s1 i - s2 j) and its parts over [0,bi) x [0,bj).

        Returns (full, [box sums]); all of them share one set of mixing nodes.
        """
        if s1 <= 0 or s2 <= 0:
            raise DomainError("transform decay rates must be positive")
        cuts = [(math.inf, math.inf)] + [(float(bi) - 1.0, float(bj) - 1.0) for bi, bj in boxes]
        vals = self._kernel.mass(cuts, s1, s2)
        return float(vals[0]), [float(v) for v in vals[1:]]


def build_derivative_measure(k: int, params: ModelParams) -> DerivativeMeasure:
    """Construct the order-k derivative measure (requires k > alpha_in - 1)."""
    return DerivativeMeasure(params, k)


# -- scaling operations -------------------------------------------------------


def measure_scaling(measure, b: ScalingFunctions, t: float, x: float, y: float) -> float:
    """U_t(x, y) = U([0, b1(t) x] x [0, b2(t) y]) / t."""
    if x < 0 or y < 0:
        raise DomainError("rectangle corners must be nonnegative")
    return measure.rect_mass_below(b.b1(t) * x, b.b2(t) * y) / t


def transform_scaling(
    measure,
    b: ScalingFunctions,
    t: float,
    lam1: float,
    lam2: float,
    with_report: bool = False,
):
    """(1/t) sum of atom weights times exp(-lam1 i/b1(t) - lam2 j/b2(t))."""
    if lam1 <= 0 or lam2 <= 0:
        raise DomainError("decay parameters must be positive")
    full, _ = measure.laplace(lam1 / b.b1(t), lam2 / b.b2(t))
    value = full / t
    if with_report:
        return value, TransformReport(value=value, remainder=0.0)
    return value


def uhat_limit_rhs(k: int, params: ModelParams, lam1: float, lam2: float) -> float:
    """The limiting transform: an explicit integral over the mixing scale.

    c1^-1 prod_{d=1..k}(delta_in + d) int_0^inf z^(k-1-1/c1)
    (1 + z lam1)^-(delta_in+k+1) (1 + z^a lam2)^-delta_out dz, the Laplace
    sections of the order-k gamma mixture.
    """
    kernel = _limit_kernel(k, params)
    if lam1 <= 0 or lam2 <= 0:
        raise DomainError("decay parameters must be positive")
    return kernel.integral(_log_laplace, -math.log(lam1), -math.log(lam2))


def derivative_limit_rect(k: int, params: ModelParams, x: float, y: float) -> float:
    """Rectangle mass [0,x] x [0,y] of the limiting measure of U_t.

    The limit density is a gamma mixture, so the rectangle mass reduces
    to regularized lower incomplete gamma sections under the mixing
    integral.
    """
    kernel = _limit_kernel(k, params)
    if x <= 0 or y <= 0:
        raise DomainError("rectangle corners must be positive")
    return kernel.integral(_log_lower, math.log(x), math.log(y))


# -- verification protocols ---------------------------------------------------
#
# Convergence in t cannot be observed at t = infinity; each check
# computes a log-spaced trend.  uhat, measure and marginal share
# _trend_check: along a strictly increasing grid, the final relative
# error must be within rel_tol and the errors must fall strictly.
# truncation bounds the tail ratio at the grid's largest y at every t.
# verify --check names a check by its CHECKS key, and each of its flags
# sets the function's keyword of the same name.

# the fixed arguments of the checks, read when a check runs
_UHAT_LAMBDAS = ((1.0, 1.0), (0.5, 2.0), (2.0, 0.5))
_MEASURE_POINTS = ((1.0, 1.0),)
_TRUNCATION_X = (1.0, 1.0)
_TRUNCATION_RATIO_TOL = 0.01
_MARGINAL_POINTS = ((0.5,), (1.0,), (2.0,))


def _nonempty(check: str, what: str, values) -> None:
    if len(values) == 0:
        raise DomainError(f"{check}: the {what} is empty")


def _check_rel_tol(rel_tol: float) -> None:
    if not 0 < rel_tol < math.inf:
        raise DomainError(f"rel_tol must be positive and finite, got {rel_tol:g}")


def _trend_check(check: str, keys, target, what: str, scaled, params: ModelParams, k: int,
                 points, grid, rel_tol: float, measure: Optional[DerivativeMeasure]) -> dict:
    """Compare scaled(U, b, g, *point) with target(k, params, *point) along the grid.

    keys names a row's grid value, the point's coordinates (one or two),
    the scaled value and the target; rel_err follows, and the report
    names the grid keys[0] + "_grid".  The grid must be positive and
    strictly increasing.  what.format(*point) names a target in a
    QuadratureFailure, raised where it is not positive and finite.
    """
    grid_key = keys[0] + "_grid"
    _nonempty(check, grid_key, grid)
    for g in grid:
        if not g > 0:
            raise DomainError(f"t must be positive, got {g:g}")
    if not all(g2 > g1 for g1, g2 in zip(grid, grid[1:])):
        raise DomainError(f"{check}: the {grid_key} must be strictly increasing, got "
                          + ", ".join(f"{g:g}" for g in grid))
    _check_rel_tol(rel_tol)
    u = measure if measure is not None else build_derivative_measure(k, params)
    b = ScalingFunctions.for_derivative_measure(params, k)
    rows = []
    ok = True
    for point in points:
        try:
            goal = target(k, params, *point)
        except QuadratureFailure as exc:
            raise QuadratureFailure(f"{what.format(*point)}: {exc}") from None
        if not (math.isfinite(goal) and goal > 0):
            raise QuadratureFailure(f"{what.format(*point)} is {goal!r}, not a positive finite target")
        errs = []
        for g in grid:
            value = scaled(u, b, g, *point)
            rel = abs(value / goal - 1.0)
            errs.append(rel)
            rows.append(dict(zip((*keys, "rel_err"), (g, *point, value, goal, rel))))
        # written so that a NaN error fails both gates
        if not (errs[-1] <= rel_tol and all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))):
            ok = False
    return {"check": check, "k": k, grid_key: list(grid), "rel_tol": rel_tol, "rows": rows,
            "passed": ok}


def uhat_check(
    params: ModelParams,
    k: int = 3,
    h_grid=(1e2, 1e4, 1e6),
    rel_tol: float = 0.05,
    measure: Optional[DerivativeMeasure] = None,
) -> dict:
    """Scaled transform of the derivative measure against its limit integral."""
    return _trend_check("uhat", ("h", "lambda1", "lambda2", "lhs", "rhs"), uhat_limit_rhs,
                        "the limit transform at lambda = ({:g}, {:g})", transform_scaling,
                        params, k, _UHAT_LAMBDAS, h_grid, rel_tol, measure)


def measure_check(
    params: ModelParams,
    k: int = 3,
    t_grid=(1e2, 1e3, 1e4),
    rel_tol: float = 0.10,
    measure: Optional[DerivativeMeasure] = None,
) -> dict:
    """Scaled rectangle masses against the limiting rectangle integral."""
    return _trend_check("measure", ("t", "x", "y", "value", "target"), derivative_limit_rect,
                        "the limit rectangle mass at ({:g}, {:g})", measure_scaling,
                        params, k, _MEASURE_POINTS, t_grid, rel_tol, measure)


def truncation_check(
    params: ModelParams,
    k: int = 3,
    y_grid=(0.0, 1.0, 2.0, 4.0, 8.0),
    t_grid=(1e3, 1e4, 1e5),
    measure: Optional[DerivativeMeasure] = None,
) -> dict:
    """Decay of the tail part of the scaled transform, uniform over t.

    For each (t, y) integrates exp(-v1/x1 - v2/x2) at x = (1, 1) over the
    scaled atoms outside the open box [0, y)^2, reporting the decay
    relative to the y = 0 value (the full transform).  The box cuts are
    floats: where y b_i(t) passes the float range the cut is inf, the
    whole section, as it is for rect_mass_below.  The ratio at the
    largest y of the grid must be at most 0.01 at every t.
    """
    _nonempty("truncation", "y_grid", y_grid)
    _nonempty("truncation", "t_grid", t_grid)
    u = measure if measure is not None else build_derivative_measure(k, params)
    b = ScalingFunctions.for_derivative_measure(params, k)
    if any(y < 0 for y in y_grid):
        raise DomainError("y grid must be nonnegative")
    x1, x2 = _TRUNCATION_X
    rows = []
    for t in t_grid:
        b1t, b2t = b.b1(t), b.b2(t)
        s1, s2 = 1.0 / (x1 * b1t), 1.0 / (x2 * b2t)
        positive = [y for y in y_grid if y > 0]
        boxes = [(np.ceil(y * b1t), np.ceil(y * b2t)) for y in positive]
        full, box_vals = u.laplace(s1, s2, boxes)
        full /= t
        values = {0.0: full}
        for y, box in zip(positive, box_vals):
            values[y] = full - box / t
        for y in y_grid:
            rows.append(
                {
                    "t": t,
                    "y": y,
                    "value": values[y],
                    "ratio_to_y0": values[y] / full if full > 0 else math.nan,
                }
            )
    probe_y = float(max(y_grid))
    return {
        "check": "truncation",
        "k": k,
        "x": list(_TRUNCATION_X),
        "probe_y": probe_y,
        "ratio_tol": _TRUNCATION_RATIO_TOL,
        "rows": rows,
        # written so that a NaN ratio fails
        "passed": all(r["ratio_to_y0"] <= _TRUNCATION_RATIO_TOL for r in rows if r["y"] == probe_y),
    }


def _marginal_target(k: int, params: ModelParams, x: float) -> float:
    return x ** ScalingFunctions.for_derivative_measure(params, k).gamma1


def marginal_check(
    params: ModelParams,
    k: int = 3,
    t_grid=(1e2, 1e3, 1e4, 1e5),
    rel_tol: float = 0.10,
    measure: Optional[DerivativeMeasure] = None,
) -> dict:
    """In-marginal scaling ratios U_1(b1(t/K) x)/t at x = 0.5, 1, 2 against
    x**gamma1, with K the marginal normalizer; the out-margin's limit
    constant is not computed."""
    norm = derivative_marginal_normalizer(params, k)

    def scaled(u, b, t, x):
        return u.rect_mass_below(b.b1(t / norm) * x, math.inf) / t

    report = _trend_check("marginal", ("t", "x", "ratio", "target"), _marginal_target,
                          "the in-marginal limit at x = {:g}", scaled,
                          params, k, _MARGINAL_POINTS, t_grid, rel_tol, measure)
    report["normalizer"] = norm
    return report


CHECKS = {"uhat": uhat_check, "measure": measure_check, "truncation": truncation_check,
          "marginal": marginal_check}
