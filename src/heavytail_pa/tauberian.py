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

Evaluation strategy for the derivative measure: the factorial weights
shift the NB shape, giving for fixed latent z an i-section proportional
to NB(delta_in + k + 1, 1/z) and a j-section NB(delta_out, z**-a).
Rectangle masses, marginal masses and transforms therefore factor, per
quadrature node of the mixing integral, into products of exponentially
tilted NB sections, and each section has a closed form through the
regularized incomplete beta function (see _nb_section).  Nothing is
summed termwise and no index range is truncated.  The mixing integral
runs on the trapezoid rule of `quadrature` in s = log(z - 1), on a
window bounded by the decay rates of the weight and the sections
(DerivativeMeasure._mix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import betainc, gammainc, gammaln, hyp1f1
from scipy.special import gamma as gamma_fn

from .errors import DomainError, InvalidK, QuadratureFailure
from .limit_dist import LimitDistribution, nb_pmf
from .params import ModelParams, derive, tail_ready
from .quadrature import DEFAULT_QUAD, WINDOW, QuadratureSpec, log_semiinfinite, trapezoid


@dataclass(frozen=True)
class ScalingFunctions:
    """Power scaling functions b_i(t) = (t/scale_i)**(1/gamma_i).

    The scale factors do not change the regular-variation index; they
    normalize so that marginal scaling limits hit x**gamma_i with
    constant one.
    """

    gamma1: float
    gamma2: float
    scale1: float = 1.0
    scale2: float = 1.0

    def __post_init__(self):
        if self.gamma1 <= 0 or self.gamma2 <= 0:
            raise DomainError("scaling indices must be positive")
        if self.scale1 <= 0 or self.scale2 <= 0:
            raise DomainError("scaling normalizers must be positive")

    def b1(self, t: float) -> float:
        return _scaling_power(t, self.scale1, self.gamma1)

    def b2(self, t: float) -> float:
        return _scaling_power(t, self.scale2, self.gamma2)

    @staticmethod
    def for_derivative_measure(params: ModelParams, k: int) -> "ScalingFunctions":
        d = derive(params)
        g1 = k - d.alpha_in + 1.0
        g2 = g1 * (d.alpha_out - 1.0) / (d.alpha_in - 1.0)
        return ScalingFunctions(gamma1=g1, gamma2=g2)

    @staticmethod
    def normalized_for_derivative_measure(params: ModelParams, k: int) -> "ScalingFunctions":
        base = ScalingFunctions.for_derivative_measure(params, k)
        return ScalingFunctions(
            gamma1=base.gamma1,
            gamma2=base.gamma2,
            scale1=derivative_marginal_normalizer(params, k),
            scale2=1.0,
        )


def _scaling_power(t: float, scale: float, gamma: float) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        b = float(np.float64(t / scale) ** (1.0 / gamma))
    if not math.isfinite(b):
        raise DomainError(f"the scaling (t/scale)**(1/gamma) overflows at t = {t:g}, gamma = {gamma:g}")
    return b


def _log_mix_const(params: ModelParams, k: int) -> float:
    """log(prod_{d=1..k}(delta_in + d) / c1), as a gammaln difference."""
    din = params.delta_in
    return gammaln(din + k + 1.0) - gammaln(din + 1.0) - math.log(derive(params).c1)


def derivative_marginal_normalizer(params: ModelParams, k: int) -> float:
    """The constant K with U_1(x) ~ K x**gamma1 for the derivative measure.

    The in-marginal atoms behave like C1 * i**(k - alpha_in) with
    C1 = Gamma(delta_in + 1 + 1/c1)/(c1 * Gamma(delta_in + 1)), so the
    partial sums grow like (C1/gamma1) x**gamma1.
    """
    d = derive(params)
    din = params.delta_in
    c1 = d.c1
    big_c1 = gamma_fn(din + 1.0 + 1.0 / c1) / (c1 * gamma_fn(din + 1.0))
    return big_c1 / (k - d.alpha_in + 1.0)


def _nb_section(r: float, p: np.ndarray, s: float, m: float) -> np.ndarray:
    """sum_{i <= m} nb(i; r, p) e^(-s i), elementwise over the array p.

    Tilting by e^(-s) maps the section to another NB law:
    nb(i; r, p) e^(-s i) = (p/p~)^r nb(i; r, p~) with 1 - p~ = (1-p) e^(-s),
    and the NB cdf at m is I_p~(r, m+1).  m may be +inf (the whole
    section) or negative (empty); it stays a float because scaled cut
    indices can exceed the int64 range.
    """
    if m < 0:
        return np.zeros_like(p)
    pt = -np.expm1(np.log1p(-p) - s)
    scale = np.exp(r * (np.log(p) - np.log(pt)))
    return scale if math.isinf(m) else scale * betainc(r, m + 1.0, pt)


@dataclass(frozen=True)
class TransformReport:
    """A transform evaluation.

    remainder is the neglected tail mass; both measure types evaluate
    their transforms exactly, so it is 0.0.
    """

    value: float
    remainder: float
    s1: float
    s2: float


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

    @property
    def support_shape(self):
        return self.atoms.shape

    def atom(self, i: int, j: int) -> float:
        if 0 <= i < self.atoms.shape[0] and 0 <= j < self.atoms.shape[1]:
            return float(self.atoms[i, j])
        return 0.0

    def rect_mass_below(self, x: float, y: float) -> float:
        if x < 0 or y < 0:
            return 0.0
        si, sj = self.atoms.shape
        ix, jy = int(math.floor(x)), int(math.floor(y))
        return float(self.atoms[: min(ix + 1, si), : min(jy + 1, sj)].sum())

    def laplace(self, s1: float, s2: float) -> TransformReport:
        val = self._weighted_sum(s1, s2)
        return TransformReport(value=val, remainder=0.0, s1=s1, s2=s2)

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
        axis = 1 if component == 1 else 0
        marg = self.atoms.sum(axis=axis)
        ix = int(math.floor(x))
        return float(marg[: ix + 1].sum())

    def _weighted_sum(self, s1: float, s2: float, block=None) -> float:
        si, sj = self.atoms.shape if block is None else block
        wi = np.exp(-s1 * np.arange(si))
        wj = np.exp(-s2 * np.arange(sj))
        return float(wi @ self.atoms[:si, :sj] @ wj)


class DerivativeMeasure:
    """The order-k factorial-weighted measure of mixture component 1.

    atom() evaluates the definitional product (i+1)...(i+k) times the
    component pmf.  Rectangle masses, marginal masses and transforms use
    the equivalent shifted-NB kernel instead: per node of the mixing
    quadrature each is a product of closed-form NB sections, so every
    evaluation costs one pass over the nodes whatever the index range
    (equality with the atoms is covered by the tests).
    """

    def __init__(self, params: ModelParams, k: int, quad: QuadratureSpec = DEFAULT_QUAD):
        self.params = tail_ready(params)
        self.derived = derive(self.params)
        if k != int(k) or k < 1:
            raise InvalidK("k must be a positive integer")
        if k <= self.derived.alpha_in - 1.0:
            raise InvalidK(
                f"k = {k} must exceed alpha_in - 1 = {self.derived.alpha_in - 1.0:.6g}"
            )
        self.k = int(k)
        self.quad = quad

        din, dout = self.params.delta_in, self.params.delta_out
        self._r_i = din + self.k + 1.0  # shifted in-section NB shape
        self._r_j = dout
        self._log_const = _log_mix_const(self.params, self.k)
        # every integrand is at least g = weight * (1 + e^s)^-(r_i + a r_j) (the
        # sections' values at i = j = 0), whose peak relative to e^log_const is
        # (k+1) log q - n log1p(q) at e^s = q; windows end e^-WINDOW below it
        n = 1.0 + 1.0 / self.derived.c1 + self._r_i + self.derived.a * dout
        q = (self.k + 1.0) / (n - self.k - 1.0)
        self._log_floor = (self.k + 1.0) * math.log(q) - n * math.log1p(q) - WINDOW
        self._limit = LimitDistribution(self.params, quad)

    # -- atoms ---------------------------------------------------------------

    def atom(self, i: int, j: int) -> float:
        """m_ij by the definition: prod_{d=1..k}(i+d) * P[X1 = i+k, Y1 = j]."""
        if i < 0 or j < 0:
            raise DomainError("atom indices must be nonnegative")
        weight = float(np.prod(np.arange(i + 1, i + self.k + 1, dtype=np.float64)))
        return weight * self._limit.pmf_component(1, i + self.k, j)

    def dense_atoms(self, i_max: int, j_max: int) -> np.ndarray:
        """Materialize atoms on [0, i_max] x [0, j_max]."""
        a = self.derived.a
        iarr = np.arange(i_max + 1, dtype=np.float64)
        jarr = np.arange(j_max + 1, dtype=np.float64)

        def weighted_sum(z, w):
            A = nb_pmf(iarr[None, :], self._r_i, (1.0 / z)[:, None])
            B = nb_pmf(jarr[None, :], self._r_j, (z**-a)[:, None])
            return np.einsum("q,qi,qj->ij", w, A, B, optimize=True)

        return np.clip(self._mix(weighted_sum, self._r_i * math.log1p(i_max), self._r_i), 0.0, None)

    def captured_mass(self, half_size: float) -> float:
        """Total atom weight on the square [0, half_size]^2."""
        return self.rect_mass_below(half_size, half_size)

    # -- closed-form evaluations -----------------------------------------

    def rect_mass_below(self, x: float, y: float) -> float:
        """Sum of atoms with i <= x and j <= y (closed-form NB sections per node)."""
        if x < 0 or y < 0:
            return 0.0
        ix, jy = np.floor(x), np.floor(y)
        a = self.derived.a

        def weighted_sum(z, w):
            return float(w @ (_nb_section(self._r_i, 1.0 / z, 0.0, ix)
                              * _nb_section(self._r_j, z**-a, 0.0, jy)))

        return self._mix(weighted_sum, self._r_i * math.log1p(ix), self._r_i)

    def marginal_mass(self, component: int, x: float) -> float:
        """Cumulative marginal weight; the full cross-sum is exactly 1 per node."""
        if component not in (1, 2):
            raise DomainError("component must be 1 or 2")
        if component == 2:
            return self._out_marginal_mass(x)
        if x < 0:
            return 0.0
        ix = np.floor(x)

        def weighted_sum(z, w):
            return float(w @ _nb_section(self._r_i, 1.0 / z, 0.0, ix))

        return self._mix(weighted_sum, self._r_i * math.log1p(ix), self._r_i)

    def _out_marginal_mass(self, y: float) -> float:
        d = self.derived
        margin = (d.alpha_in - 1.0) + d.a * self.params.delta_out - self.k
        if margin <= 0:
            raise DomainError(
                "the out-marginal of the derivative measure is infinite: "
                f"k = {self.k} >= alpha_in - 1 + a*delta_out = {self.k + margin:.6g}"
            )
        if y < 0:
            return 0.0
        jy = np.floor(y)
        a = d.a

        def weighted_sum(z, w):
            return float(w @ _nb_section(self._r_j, z**-a, 0.0, jy))

        return self._mix(weighted_sum, self._r_j * math.log1p(jy), a * self._r_j)

    def laplace(self, s1: float, s2: float) -> TransformReport:
        full, _ = self.laplace_with_boxes(s1, s2, ())
        return TransformReport(value=full, remainder=0.0, s1=s1, s2=s2)

    def laplace_with_boxes(self, s1: float, s2: float, boxes) -> tuple:
        """sum m_ij e^(-s1 i - s2 j) and its parts over [0,bi) x [0,bj).

        Returns (full, [box sums]); all of them share one set of mixing nodes.
        """
        if s1 <= 0 or s2 <= 0:
            raise DomainError("transform decay rates must be positive")
        a = self.derived.a
        cuts = [(math.inf, math.inf)] + [(float(bi) - 1.0, float(bj) - 1.0) for bi, bj in boxes]

        def weighted_sum(z, w):
            p1, p2 = 1.0 / z, z**-a
            return np.array([w @ (_nb_section(self._r_i, p1, s1, icut)
                                  * _nb_section(self._r_j, p2, s2, jcut)) for icut, jcut in cuts])

        # the whole tilted in-section is (1 + e^s (1 - e^-s1))^-r_i
        vals = self._mix(weighted_sum, -self._r_i * math.log(-math.expm1(-s1)), self._r_i)
        return float(vals[0]), [float(v) for v in vals[1:]]

    # -- numerical machinery ----------------------------------------------

    def _mix(self, weighted_sum, log_tail: float, shape: float):
        """Mix NB sections over Z by the trapezoid rule in s = log(z - 1).

        ``weighted_sum(z, w)`` returns sum_q w_q f(z_q), a float or a
        table, for a product f of sections with values in [0, 1], one of
        which the caller bounds by e^(log_tail - shape*s).  The weight
        exp(log_const + (k+1)s - (1+1/c1) log1p(e^s)) is at most
        e^(log_const + (k+1)s) and e^(log_const + (k - 1/c1)s), so the
        integrand decays like e^((k+1)s) towards z = 1 and at least like
        e^(-(shape - k + 1/c1)s) above.  The window ends where those bounds
        reach the floor e^-WINDOW below the least possible peak.
        """
        c1, k1 = self.derived.c1, self.k + 1.0

        def sum_f(s):
            w = np.exp(self._log_const + k1 * s - (1.0 + 1.0 / c1) * np.logaddexp(0.0, s))
            return weighted_sum(1.0 + np.exp(s), w)

        hi = (log_tail - self._log_floor) / (shape - self.k + 1.0 / c1)
        return trapezoid(sum_f, self._log_floor / k1, hi, self.quad)


def build_derivative_measure(k: int, params: ModelParams,
                             quad: QuadratureSpec = DEFAULT_QUAD) -> DerivativeMeasure:
    """Construct the order-k derivative measure (requires k > alpha_in - 1)."""
    return DerivativeMeasure(params, k, quad=quad)


# -- scaling operations -------------------------------------------------------


def measure_scaling(measure, b: ScalingFunctions, t: float, x: float, y: float) -> float:
    """U_t(x, y) = U([0, b1(t) x] x [0, b2(t) y]) / t."""
    if t <= 0:
        raise DomainError("t must be positive")
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
    if t <= 0 or lam1 <= 0 or lam2 <= 0:
        raise DomainError("t and decay parameters must be positive")
    rep = measure.laplace(lam1 / b.b1(t), lam2 / b.b2(t))
    value = rep.value / t
    if with_report:
        return value, TransformReport(value=value, remainder=rep.remainder / t, s1=rep.s1, s2=rep.s2)
    return value


def uhat_limit_rhs(
    k: int,
    params: ModelParams,
    lam1: float,
    lam2: float,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """The limiting transform: an explicit integral over the mixing scale.

    c1^-1 prod_{d=1..k}(delta_in + d) int_0^inf z^(k-1-1/c1)
    (1 + z lam1)^-(delta_in+k+1) (1 + z^a lam2)^-delta_out dz, summed in s = log z
    as exp of the log of the integrand, so z^(k-1/c1) cannot overflow at large k.
    """
    params = tail_ready(params)
    d = derive(params)
    if lam1 <= 0 or lam2 <= 0:
        raise DomainError("decay parameters must be positive")
    if k <= d.alpha_in - 1.0:
        raise InvalidK(f"k = {k} must exceed alpha_in - 1 = {d.alpha_in - 1.0:.6g}")
    din, dout = params.delta_in, params.delta_out
    c1, a = d.c1, d.a
    log_const = _log_mix_const(params, k)
    log_lam1, log_lam2 = math.log(lam1), math.log(lam2)

    def log_f(s):
        # log1p(lam e^s) as logaddexp(0, log lam + s): it cannot overflow at the far scale
        tilt = ((din + k + 1.0) * np.logaddexp(0.0, log_lam1 + s)
                + dout * np.logaddexp(0.0, log_lam2 + a * s))
        return log_const + (k - 1.0 / c1) * s - tilt

    return log_semiinfinite(log_f, max(-log_lam1, -log_lam2 / a, 0.0), quad)


def derivative_limit_rect(
    k: int,
    params: ModelParams,
    x: float,
    y: float,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Rectangle mass [0,x] x [0,y] of the limiting measure of U_t.

    The limit density is a gamma mixture, so the rectangle mass reduces
    to regularized lower incomplete gamma factors under the mixing
    integral, summed in s = log z as exp of (k - 1/c1) s + log P + log P'.
    """
    params = tail_ready(params)
    d = derive(params)
    if x <= 0 or y <= 0:
        raise DomainError("rectangle corners must be positive")
    if k <= d.alpha_in - 1.0:
        raise InvalidK(f"k = {k} must exceed alpha_in - 1 = {d.alpha_in - 1.0:.6g}")
    din, dout = params.delta_in, params.delta_out
    c1, a = d.c1, d.a
    log_const = _log_mix_const(params, k)
    log_x, log_y = math.log(x), math.log(y)

    def log_f(s):
        return (
            log_const
            + (k - 1.0 / c1) * s
            + _log_gammainc(din + k + 1.0, log_x - s)
            + _log_gammainc(dout, log_y - a * s)
        )

    return log_semiinfinite(log_f, max(log_x, log_y / a, 0.0), quad)


def _log_gammainc(r: float, log_u: np.ndarray) -> np.ndarray:
    """log P(r, u) at u = e^log_u, P the regularized lower incomplete gamma function.

    Where P underflows, log P comes from the series
    P(r, u) = u^r e^-u M(1, r+1, u) / Gamma(r+1), which stays finite
    while u itself underflows; each branch is evaluated only where it is used.
    """
    p = gammainc(r, np.exp(log_u))
    under = p < np.finfo(np.float64).tiny
    if not under.any():
        return np.log(p)
    out = np.log(p, out=np.empty_like(p), where=~under)
    lu = log_u[under]
    u = np.exp(lu)
    out[under] = r * lu - u - math.lgamma(r + 1.0) + np.log(hyp1f1(1.0, r + 1.0, u))
    return out


def truncation_condition(measure, b: ScalingFunctions, x, y_grid, t_grid) -> list:
    """Tail-mass diagnostic for the transform regularity condition.

    For each (t, y) integrates exp(-v1/x1 - v2/x2) over the scaled
    atoms outside the open box [0, y)^2, reporting the decay relative
    to the y = 0 value (the full transform).
    """
    x1, x2 = x
    if x1 <= 0 or x2 <= 0:
        raise DomainError("x must be positive componentwise")
    if any(y < 0 for y in y_grid):
        raise DomainError("y grid must be nonnegative")
    rows = []
    for t in t_grid:
        b1t, b2t = b.b1(t), b.b2(t)
        s1, s2 = 1.0 / (x1 * b1t), 1.0 / (x2 * b2t)
        positive = [y for y in y_grid if y > 0]
        boxes = [(math.ceil(y * b1t), math.ceil(y * b2t)) for y in positive]
        full, box_vals = measure.laplace_with_boxes(s1, s2, boxes)
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
    return rows


def marginal_condition(measure, component: int, b: ScalingFunctions, x_grid, t_grid) -> list:
    """Ratios U_i(b_i(t) x)/t against the target x**gamma_i."""
    if component not in (1, 2):
        raise DomainError("component must be 1 or 2")
    gamma_i = b.gamma1 if component == 1 else b.gamma2
    rows = []
    for t in t_grid:
        scale = b.b1(t) if component == 1 else b.b2(t)
        for x in x_grid:
            if x <= 0:
                raise DomainError("x grid must be positive")
            ratio = measure.marginal_mass(component, scale * x) / t
            target = x**gamma_i
            rows.append(
                {
                    "t": t,
                    "x": x,
                    "ratio": ratio,
                    "target": target,
                    "rel_err": ratio / target - 1.0,
                }
            )
    return rows


# -- verification protocols ---------------------------------------------------
#
# Convergence in t cannot be observed at t = infinity; each check
# computes a log-spaced trend and requires the final point to sit
# within the stated tolerance of the analytic target (and the error to
# shrink along the grid where the protocol says so).


def _target(evaluate, what: str) -> float:
    """A check's analytic target: positive and finite, or a QuadratureFailure naming it."""
    try:
        value = evaluate()
    except QuadratureFailure as exc:
        raise QuadratureFailure(f"{what}: {exc}") from None
    if not (math.isfinite(value) and value > 0):
        raise QuadratureFailure(f"{what} is {value!r}, not a positive finite target")
    return value


def uhat_check(
    params: ModelParams,
    k: int = 3,
    lambdas=((1.0, 1.0), (0.5, 2.0), (2.0, 0.5)),
    h_grid=(1e2, 1e4, 1e6),
    rel_tol: float = 0.05,
    quad: QuadratureSpec = DEFAULT_QUAD,
    measure: Optional[DerivativeMeasure] = None,
) -> dict:
    """Scaled transform of the derivative measure against its limit integral."""
    u = measure if measure is not None else build_derivative_measure(k, params, quad)
    b = ScalingFunctions.for_derivative_measure(params, k)
    rows = []
    ok = True
    for lam1, lam2 in lambdas:
        rhs = _target(lambda: uhat_limit_rhs(k, params, lam1, lam2, quad),
                      f"the limit transform at lambda = ({lam1:g}, {lam2:g})")
        errs = []
        for h in h_grid:
            lhs = transform_scaling(u, b, h, lam1, lam2)
            rel = abs(lhs / rhs - 1.0)
            errs.append(rel)
            rows.append(
                {
                    "h": h,
                    "lambda1": lam1,
                    "lambda2": lam2,
                    "lhs": lhs,
                    "rhs": rhs,
                    "rel_err": rel,
                }
            )
        # written so that a NaN error fails both gates
        if not (errs[-1] <= rel_tol and all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))):
            ok = False
    return {
        "check": "uhat",
        "k": k,
        "h_grid": list(h_grid),
        "rel_tol": rel_tol,
        "rows": rows,
        "passed": ok,
    }


def measure_check(
    params: ModelParams,
    k: int = 3,
    points=((1.0, 1.0),),
    t_grid=(1e2, 1e3, 1e4),
    rel_tol: float = 0.10,
    quad: QuadratureSpec = DEFAULT_QUAD,
    measure: Optional[DerivativeMeasure] = None,
) -> dict:
    """Scaled rectangle masses against the limiting rectangle integral."""
    u = measure if measure is not None else build_derivative_measure(k, params, quad)
    b = ScalingFunctions.for_derivative_measure(params, k)
    rows = []
    ok = True
    for x, y in points:
        target = _target(lambda: derivative_limit_rect(k, params, x, y, quad),
                         f"the limit rectangle mass at ({x:g}, {y:g})")
        errs = []
        for t in t_grid:
            val = measure_scaling(u, b, t, x, y)
            rel = abs(val / target - 1.0)
            errs.append(rel)
            rows.append(
                {"t": t, "x": x, "y": y, "value": val, "target": target, "rel_err": rel}
            )
        # written so that a NaN error fails both gates
        if not (errs[-1] <= rel_tol and all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))):
            ok = False
    return {
        "check": "measure",
        "k": k,
        "t_grid": list(t_grid),
        "rel_tol": rel_tol,
        "rows": rows,
        "passed": ok,
    }


def truncation_check(
    params: ModelParams,
    k: int = 3,
    x=(1.0, 1.0),
    y_grid=(0.0, 1.0, 2.0, 4.0, 8.0),
    t_grid=(1e3, 1e4, 1e5),
    probe_y: float = 8.0,
    ratio_tol: float = 0.01,
    quad: QuadratureSpec = DEFAULT_QUAD,
    measure: Optional[DerivativeMeasure] = None,
) -> dict:
    """Decay of the tail part of the scaled transform, uniform over t."""
    u = measure if measure is not None else build_derivative_measure(k, params, quad)
    b = ScalingFunctions.for_derivative_measure(params, k)
    rows = truncation_condition(u, b, x, y_grid, t_grid)
    ok = True
    for t in t_grid:
        probe = [r for r in rows if r["t"] == t and r["y"] == probe_y]
        if not probe or not (probe[0]["ratio_to_y0"] <= ratio_tol):
            ok = False
    return {
        "check": "truncation",
        "k": k,
        "x": list(x),
        "probe_y": probe_y,
        "ratio_tol": ratio_tol,
        "rows": rows,
        "passed": ok,
    }


def marginal_check(
    params: ModelParams,
    k: int = 3,
    component: int = 1,
    x_grid=(0.5, 1.0, 2.0),
    t_grid=(1e2, 1e3, 1e4, 1e5),
    rel_tol: float = 0.10,
    quad: QuadratureSpec = DEFAULT_QUAD,
    measure: Optional[DerivativeMeasure] = None,
) -> dict:
    """Marginal scaling ratios against x**gamma under normalized scaling."""
    u = measure if measure is not None else build_derivative_measure(k, params, quad)
    b = ScalingFunctions.normalized_for_derivative_measure(params, k)
    rows = marginal_condition(u, component, b, x_grid, t_grid)
    t_final = max(t_grid)
    finals = [r for r in rows if r["t"] == t_final]
    ok = bool(finals) and all(abs(r["rel_err"]) <= rel_tol for r in finals)
    return {
        "check": "marginal",
        "k": k,
        "component": component,
        "normalizer": derivative_marginal_normalizer(params, k),
        "rel_tol": rel_tol,
        "rows": rows,
        "passed": ok,
    }
