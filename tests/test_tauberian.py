import math

import mpmath as mp
import numpy as np
import pytest

from heavytail_pa import (
    DomainError,
    InvalidK,
    ModelParams,
    QuadratureFailure,
    QuadratureSpec,
    ScalingFunctions,
    TailMeasure,
    build_derivative_measure,
    derivative_limit_rect,
    derivative_marginal_normalizer,
    derive,
    marginal_condition,
    measure_check,
    measure_scaling,
    transform_scaling,
    truncation_condition,
    uhat_check,
    uhat_limit_rhs,
)
from heavytail_pa.tauberian import TransformReport
from oracles import LatticeMeasure, atom, dense_atoms


@pytest.fixture(scope="module")
def scaling(params):
    return ScalingFunctions.for_derivative_measure(params, 3)


def test_k_validation(params):
    # alpha_in - 1 = 1.875, so k = 3 works and k = 1 does not
    build_derivative_measure(3, params)
    with pytest.raises(InvalidK):
        build_derivative_measure(1, params)
    with pytest.raises(InvalidK):
        build_derivative_measure(0, params)


def test_corner_atom_is_k_factorial_times_pmf(deriv_measure, dist):
    """The shifted-shape kernel's corner mass equals the definition's atom."""
    assert deriv_measure.rect_mass_below(0, 0) == pytest.approx(
        6.0 * dist.pmf_component(1, 3, 0), rel=1e-10
    )


def test_dense_atoms_match_definition(deriv_measure):
    table = dense_atoms(deriv_measure, 12, 8)
    for i, j in [(0, 0), (1, 2), (5, 3), (12, 8)]:
        assert table[i, j] == pytest.approx(atom(deriv_measure, i, j), rel=1e-9)


def test_series_rectangles_match_dense_atoms(deriv_measure):
    """Closed-form NB sections equal the materialized atom sums, plain and tilted."""
    table = dense_atoms(deriv_measure, 200, 200)
    assert deriv_measure.rect_mass_below(60, 40) == pytest.approx(table[:61, :41].sum(), rel=1e-9)
    assert deriv_measure.rect_mass_below(25, 10) == pytest.approx(
        table[:26, :11].sum(), rel=1e-9
    )
    # e^(-0.2 * 200) leaves the table's cut-off below the tolerance
    oracle = LatticeMeasure(table)
    boxes = [(5, 3), (20, 10)]
    for s1, s2 in [(0.3, 0.3), (0.5, 0.2)]:
        full, parts = deriv_measure.laplace_with_boxes(s1, s2, boxes)
        want_full, want_parts = oracle.laplace_with_boxes(s1, s2, boxes)
        assert full == pytest.approx(want_full, rel=1e-9)
        assert parts == pytest.approx(want_parts, rel=1e-9)


def test_partial_sums_diverge(deriv_measure):
    """Total mass grows without plateau over increasing square supports."""
    sums = [deriv_measure.rect_mass_below(s, s) for s in (100, 200, 400, 800)]
    assert all(b > a for a, b in zip(sums, sums[1:]))
    increments = np.diff(sums)
    assert all(b > 0.5 * a for a, b in zip(increments, increments[1:]))


def test_marginal_mass_matches_row_sums(deriv_measure):
    table = dense_atoms(deriv_measure, 40, 3000)
    series = deriv_measure.marginal_mass(1, 40)
    assert series == pytest.approx(table.sum(), rel=1e-6)


def test_out_marginal_infinite_at_k3(deriv_measure):
    # k = 3 >= alpha_in - 1 + a*delta_out = 2.75: column sums diverge
    with pytest.raises(DomainError, match="infinite"):
        deriv_measure.marginal_mass(2, 5.0)


def test_out_marginal_finite_at_k2(params):
    u2 = build_derivative_measure(2, params)
    val = u2.marginal_mass(2, 10.0)
    table = dense_atoms(u2, 20000, 10)
    assert val > 0
    # column sums decay like i^(-1.75), so truncating the table at
    # i = 2e4 still leaves just under one percent in the tail
    assert table.sum() < val
    assert table.sum() == pytest.approx(val, rel=2e-2)


def test_slow_out_marginal_matches_mpmath():
    """The out-marginal here decays like e^(-0.073 s), so its window runs to
    s = 800, where z^-a underflows: the cut section comes from log z^-a and
    the incomplete beta series.  Forming z = 1 + e^s there once raised
    QuadratureFailure ("non-finite integrand value")."""
    p = ModelParams(0.296, 0.662, 0.042, 7.48, 0.655)
    d = derive(p)
    with mp.workdps(30):
        c1, a = mp.mpf(d.c1), mp.mpf(d.a)
        din, dout = mp.mpf(p.delta_in), mp.mpf(p.delta_out)
        const = mp.gamma(din + 6) / (mp.gamma(din + 1) * c1)

        def f(s):
            log_z = mp.log1p(mp.exp(s))
            cdf = mp.betainc(dout, 11, 0, mp.exp(-a * log_z), regularized=True)
            return mp.exp(6 * s - (1 + 1 / c1) * log_z) * cdf

        want = float(const * mp.quad(f, _CUTS[:-1] + [100, 200, 400, 800, 1600, 3200, mp.inf]))
    assert want == pytest.approx(27050619.3182673, rel=1e-13)
    got = build_derivative_measure(5, p).marginal_mass(2, 10)
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def test_scaling_function_indices(params, scaling):
    assert scaling.gamma1 == pytest.approx(3 - 2.875 + 1.0)
    assert scaling.gamma2 == pytest.approx(scaling.gamma1 * (22 / 7 - 1) / 1.875)
    assert scaling.b1(100.0) == pytest.approx(100.0 ** (1.0 / scaling.gamma1))
    with pytest.raises(DomainError):
        ScalingFunctions(gamma1=-1.0, gamma2=1.0)


def test_measure_scaling_single_atom_at_origin():
    u = LatticeMeasure.from_dict({(0, 0): 2.5})
    b = ScalingFunctions(gamma1=1.0, gamma2=1.0)
    for t in (1.0, 10.0, 300.0):
        assert measure_scaling(u, b, t, 0.7, 5.0) == pytest.approx(2.5 / t)


def test_measure_scaling_plain_rectangle_at_t1():
    table = np.arange(12, dtype=float).reshape(3, 4)
    u = LatticeMeasure(table)
    b = ScalingFunctions(gamma1=1.0, gamma2=1.0)
    assert measure_scaling(u, b, 1.0, 1.0, 2.0) == pytest.approx(table[:2, :3].sum())


def test_transform_scaling_single_atom():
    u = LatticeMeasure.from_dict({(1, 1): 0.8})
    b = ScalingFunctions(gamma1=1.0, gamma2=1.0)
    t, l1, l2 = 50.0, 1.3, 0.4
    expected = (0.8 / t) * math.exp(-(l1 + l2) / t)
    assert transform_scaling(u, b, t, l1, l2) == pytest.approx(expected, rel=1e-12)


def test_transform_dominated_limit_large_lambda():
    u = LatticeMeasure.from_dict({(0, 0): 1.5, (2, 3): 4.0})
    b = ScalingFunctions(gamma1=1.0, gamma2=1.0)
    val = transform_scaling(u, b, 2.0, 1e6, 1e6)
    assert val == pytest.approx(1.5 / 2.0, rel=1e-9)


def test_transform_at_tiny_decay_rates(deriv_measure, params, scaling):
    """Transforms stay exact at decay rates far below any term budget's reach."""
    rep = deriv_measure.laplace(1e-7, 1e-7)
    assert math.isfinite(rep.value) and rep.value > 0
    assert rep.remainder == 0.0
    rhs = uhat_limit_rhs(3, params, 1.0, 1.0)
    lhs = transform_scaling(deriv_measure, scaling, 1e10, 1.0, 1.0)
    assert abs(lhs / rhs - 1.0) < 1e-6


def test_huge_scaled_boxes_stay_cheap(params):
    """Cut indices far beyond int64 (b1(t) = t**8 at k = 2) evaluate in closed form."""
    report = measure_check(params, k=2)
    assert report["passed"]
    # an asymmetric point far from the canonical one; only finiteness is
    # asserted here, since its fixed t grid does not resolve convergence
    p8 = ModelParams(alpha=0.45, beta=0.1, gamma=0.45, delta_in=3.0, delta_out=0.2)
    u8 = build_derivative_measure(8, p8)
    b8 = ScalingFunctions.for_derivative_measure(p8, 8)
    val = u8.rect_mass_below(b8.b1(1e4), b8.b2(1e4))
    assert math.isfinite(val) and val > 0


def test_uhat_rhs_positive_and_monotone(params):
    base = uhat_limit_rhs(3, params, 1.0, 1.0)
    assert base > 0
    # the kernel decreases in lambda2
    assert uhat_limit_rhs(3, params, 1.0, 2.0) < base
    assert uhat_limit_rhs(3, params, 1.0, 0.5) > base
    with pytest.raises(InvalidK):
        uhat_limit_rhs(1, params, 1.0, 1.0)


def test_transform_approaches_uhat_rhs(deriv_measure, params, scaling):
    rhs = uhat_limit_rhs(3, params, 1.0, 1.0)
    lhs = transform_scaling(deriv_measure, scaling, 1e4, 1.0, 1.0)
    assert abs(lhs / rhs - 1.0) < 0.05


def test_transform_grid_resolution_stability(params, deriv_measure, scaling):
    """A tighter quadrature tolerance leaves the value alone."""
    default = transform_scaling(deriv_measure, scaling, 1e4, 1.0, 1.0)
    tight = build_derivative_measure(3, params, QuadratureSpec(tol_abs=1e-15, tol_rel=1e-14))
    assert transform_scaling(tight, scaling, 1e4, 1.0, 1.0) == pytest.approx(default, rel=1e-10)


def test_measure_scaling_toward_limit_rect(deriv_measure, params, scaling):
    target = derivative_limit_rect(3, params, 1.0, 1.0)
    vals = [measure_scaling(deriv_measure, scaling, t, 1.0, 1.0) for t in (1e2, 1e3, 1e4)]
    errs = [abs(v / target - 1.0) for v in vals]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.10


def test_abelian_direction_stabilization(deriv_measure, params, scaling):
    """Measure-side stabilization carries to the transform side."""
    m1 = measure_scaling(deriv_measure, scaling, 1e3, 1.0, 1.0)
    m2 = measure_scaling(deriv_measure, scaling, 1e4, 1.0, 1.0)
    eps_measure = abs(m2 / m1 - 1.0)
    t1 = transform_scaling(deriv_measure, scaling, 1e3, 1.0, 1.0)
    t2 = transform_scaling(deriv_measure, scaling, 1e4, 1.0, 1.0)
    eps_transform = abs(t2 / t1 - 1.0)
    assert eps_transform < 3.0 * eps_measure + 0.01


def test_tauberian_direction_pairing(deriv_measure, params, scaling):
    """Transform-side agreement at large t pairs with measure-side agreement."""
    rhs = uhat_limit_rhs(3, params, 1.0, 1.0)
    lhs = transform_scaling(deriv_measure, scaling, 1e4, 1.0, 1.0)
    assert abs(lhs / rhs - 1.0) < 0.05
    target = derivative_limit_rect(3, params, 1.0, 1.0)
    got = measure_scaling(deriv_measure, scaling, 1e4, 1.0, 1.0)
    assert abs(got / target - 1.0) < 0.10


def test_truncation_condition_finite_support():
    u = LatticeMeasure.from_dict({(0, 0): 1.0, (3, 2): 2.0})
    b = ScalingFunctions(gamma1=1.0, gamma2=1.0)
    rows = truncation_condition(u, b, (1.0, 1.0), [0.0, 10.0], [2.0])
    by_y = {r["y"]: r for r in rows}
    # y = 0 covers the whole domain; b(t) y = 20 exceeds the support
    full = u.laplace(0.5, 0.5).value / 2.0
    assert by_y[0.0]["value"] == pytest.approx(full)
    assert by_y[10.0]["value"] == 0.0


def test_truncation_condition_derivative_measure(deriv_measure, scaling):
    rows = truncation_condition(deriv_measure, scaling, (1.0, 1.0), [0.0, 8.0], [1e3])
    by_y = {r["y"]: r for r in rows}
    assert by_y[8.0]["ratio_to_y0"] < 0.01


def test_marginal_condition_counting_measure():
    """Unit weights on the axis give U_1(x) ~ x, so the ratio tends to x."""
    u = LatticeMeasure(np.ones((30000, 1)))
    b = ScalingFunctions(gamma1=1.0, gamma2=1.0)
    rows = marginal_condition(u, 1, b, [0.5, 1.0, 2.0], [10000.0])
    for r in rows:
        # the lattice discretization contributes one atom, i.e. O(1/t)
        assert r["ratio"] == pytest.approx(r["x"], abs=2.0 / 10000.0)
        assert r["target"] == r["x"]


def test_marginal_condition_target_at_x1(deriv_measure, params):
    b = ScalingFunctions.normalized_for_derivative_measure(params, 3)
    rows = marginal_condition(deriv_measure, 1, b, [1.0], [1e4])
    assert rows[0]["target"] == 1.0
    assert abs(rows[0]["rel_err"]) < 0.15


def test_marginal_normalizer_matches_partial_sums(deriv_measure, params):
    K = derivative_marginal_normalizer(params, 3)
    g1 = 3 - 2.875 + 1.0
    X = 2e4
    assert deriv_measure.marginal_mass(1, X) / X**g1 == pytest.approx(K, rel=0.02)


# -- regressions against 30-digit mpmath -----------------------------------------
#
# The oracles integrate in s = log z.  In z itself an mp.quad of the k = 2
# limits is off by about 2e-6: their left tail decays only like e^(0.125 s).

_CUTS = [-mp.inf, -400, -200, -100, -50, -20, -10, -5, -2, 0, 2, 5, 10, 20, 50, mp.inf]


def _mp_lower(r, u):
    """The regularized lower incomplete gamma P(r, u)."""
    if u > r + 100:
        return mp.mpf(1)
    if u > r + 1:
        return 1 - mp.gammainc(r, u, regularized=True)
    return u**r * mp.exp(-u) / mp.gamma(r + 1) * mp.hyp1f1(1, r + 1, u)


def _mp_limit_integral(params, k, factor):
    """c1^-1 prod_{d<=k}(delta_in + d) int exp((k - 1/c1) s) factor(s) ds."""
    d = derive(params)
    with mp.workdps(30):
        c1, a = mp.mpf(d.c1), mp.mpf(d.a)
        din, dout = mp.mpf(params.delta_in), mp.mpf(params.delta_out)
        const = mp.gamma(din + k + 1) / (mp.gamma(din + 1) * c1)
        val = mp.quad(lambda s: mp.exp((k - 1 / c1) * s) * factor(s, a, din, dout), _CUTS)
        return float(const * val)


def _mp_uhat(params, k, lam1, lam2):
    return _mp_limit_integral(
        params, k, lambda s, a, din, dout: (1 + lam1 * mp.exp(s)) ** -(din + k + 1)
        * (1 + lam2 * mp.exp(a * s)) ** -dout
    )


def _mp_rect(params, k, x, y):
    return _mp_limit_integral(
        params, k, lambda s, a, din, dout: _mp_lower(din + k + 1, x * mp.exp(-s))
        * _mp_lower(dout, y * mp.exp(-a * s))
    )


def test_k2_limits_match_mpmath(params):
    """At k = 2 the limit integrands reach far left of a fixed window."""
    want_uhat, want_rect = _mp_uhat(params, 2, 1.0, 1.0), _mp_rect(params, 2, 1.0, 1.0)
    assert want_uhat == pytest.approx(69.85491161691658, rel=1e-14)
    assert want_rect == pytest.approx(76.72707494769701, rel=1e-14)
    assert uhat_limit_rhs(2, params, 1.0, 1.0) == pytest.approx(want_uhat, rel=1e-12, abs=0.0)
    assert derivative_limit_rect(2, params, 1.0, 1.0) == pytest.approx(want_rect, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "point, k, reference",
    [
        ((0.8410441705716684, 0.06531066790003369, 0.09364516152829795,
          14.053708458695441, 14.899128919582745), 18, 3.504067473286528e13),
        ((0.6528359676866025, 0.2855359132201604, 0.06162811909323712,
          7.906018585756149, 15.113581296628022), 10, 0.6255310028350797),
    ],
    ids=["k18", "k10-peak-left-of-split"],
)
def test_swept_limit_rectangles_match_mpmath(point, k, reference):
    p = ModelParams(*point)
    want = _mp_rect(p, k, 1.0, 1.0)
    assert want == pytest.approx(reference, rel=1e-12)
    assert derivative_limit_rect(k, p, 1.0, 1.0) == pytest.approx(want, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("h", [1e2, 1e4, 1e6])
def test_transform_matches_mpmath(deriv_measure, params, scaling, h):
    """The scaled transform against its mixing integral in s = log(z - 1)."""
    d = derive(params)
    with mp.workdps(30):
        c1, a = mp.mpf(d.c1), mp.mpf(d.a)
        din, dout = mp.mpf(params.delta_in), mp.mpf(params.delta_out)
        s1, s2 = mp.mpf(1.0 / scaling.b1(h)), mp.mpf(1.0 / scaling.b2(h))
        const = mp.gamma(din + 4) / (mp.gamma(din + 1) * c1)

        def f(s):
            e = mp.exp(s)
            tilt_in = (1 + e * (1 - mp.exp(-s1))) ** -(din + 4)
            tilt_out = (1 + ((1 + e) ** a - 1) * (1 - mp.exp(-s2))) ** -dout
            return mp.exp(4 * s) * (1 + e) ** (-1 - 1 / c1) * tilt_in * tilt_out

        want = float(const * mp.quad(f, _CUTS) / h)
    got = transform_scaling(deriv_measure, scaling, h, 1.0, 1.0)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_integer_offsets_match_float_offsets():
    """Integer delta_in once made prod(delta_in + i) an int64 that wrapped at k = 28."""
    ints, floats = ModelParams(0.1, 0.1, 0.8, 5, 1), ModelParams(0.1, 0.1, 0.8, 5.0, 1.0)
    for call in (lambda p: uhat_limit_rhs(28, p, 1.0, 1.0),
                 lambda p: derivative_limit_rect(28, p, 1.0, 1.0)):
        got = call(ints)
        assert math.isfinite(got) and got > 0
        assert got == call(floats)
    rows = uhat_check(ints, k=28)["rows"]
    assert rows == uhat_check(floats, k=28)["rows"]
    assert all(math.isfinite(r[key]) for r in rows for key in ("lhs", "rhs", "rel_err"))


class _NaNMeasure:
    """A measure whose every transform and rectangle mass is NaN."""

    def laplace(self, s1, s2):
        return TransformReport(value=math.nan, remainder=0.0, s1=s1, s2=s2)

    def rect_mass_below(self, x, y):
        return math.nan


def test_check_gates_fail_closed_on_nan(params):
    assert uhat_check(params, measure=_NaNMeasure())["passed"] is False
    assert measure_check(params, measure=_NaNMeasure())["passed"] is False


def test_zero_target_is_a_quadrature_failure(params):
    with pytest.raises(QuadratureFailure, match=r"lambda = \(1e\+300, 1e\+300\)"):
        uhat_check(params, lambdas=((1e300, 1e300),))
    with pytest.raises(QuadratureFailure, match=r"\(1e-300, 1e-300\)"):
        measure_check(params, points=((1e-300, 1e-300),))
    # at 1e200 the target is tiny but resolved, and the check fails on it
    report = uhat_check(params, lambdas=((1e200, 1e200),))
    assert report["passed"] is False
    assert report["rows"][0]["rhs"] == pytest.approx(1.1275332531830461e-248, rel=1e-12)


def test_scaling_overflow_is_a_domain_error():
    b = ScalingFunctions.for_derivative_measure(ModelParams(0.1, 0.1, 0.8, 5.0, 1.0), 28)
    assert math.isfinite(b.b2(1e6))
    with pytest.raises(DomainError, match=r"t = 1e\+12, gamma = 0.03838"):
        b.b2(1e12)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda p: uhat_limit_rhs(3, p, 1.0, 1e-300), 9.075460508201404),
        (lambda p: derivative_limit_rect(3, p, 1.0, 1e300), 8.566114723881174),
        (lambda p: TailMeasure(p).density(1, 1.0, 1e300), 0.0),
        (lambda p: TailMeasure(p).rect_mass(1, 1.0, 1e300), 0.0),
        *[(lambda p, lam2=lam2: uhat_limit_rhs(3, p, 1.0, lam2), 9.075460508201404)
          for lam2 in (1e-30, 1e-250, 1e-290)],
        *[(lambda p, y=y: derivative_limit_rect(3, p, 1.0, y), 8.566114723881174)
          for y in (1e10, 1e30, 1e100)],
        (lambda p: uhat_limit_rhs(3, p, 1.0, 1.0), 6.85854611783196),
        (lambda p: derivative_limit_rect(3, p, 1.0, 2.0), 8.523982598802991),
    ],
    ids=["uhat", "limit-rect", "density", "rect-mass", "uhat-1e-30", "uhat-1e-250", "uhat-1e-290",
         "limit-rect-1e10", "limit-rect-1e30", "limit-rect-1e100", "uhat-near", "limit-rect-near"],
)
def test_far_window_split_is_finite_or_typed(params, call, expected):
    """The window split is taken in logs: y**(1/a) at y = 1e300 overflowed before any integral.

    At the far scale the limit integrands are evaluated in logs too: the
    tilt as logaddexp, and log P(r, u) from its series where P underflows,
    so the values settle to their lambda2 -> 0 and y -> inf limits.
    """
    assert call(params) == pytest.approx(expected, rel=1e-12, abs=0.0)

