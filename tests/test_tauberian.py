import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from heavytail_pa import (
    DomainError,
    HeavytailError,
    InvalidK,
    InvalidParams,
    ModelParams,
    QuadratureFailure,
    ScalingFunctions,
    TailMeasure,
    build_derivative_measure,
    derivative_limit_rect,
    derivative_marginal_normalizer,
    derive,
    marginal_check,
    measure_check,
    quadrature,
    measure_scaling,
    transform_scaling,
    truncation_check,
    uhat_check,
    uhat_limit_rhs,
)
from heavytail_pa import limit_dist, tauberian
from heavytail_pa.limit_dist import _log_betainc
from heavytail_pa.quadrature import trapezoid
from heavytail_pa.tauberian import CHECKS
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
        full, parts = deriv_measure.laplace(s1, s2, boxes)
        want_full, want_parts = oracle.laplace(s1, s2, boxes)
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
    series = deriv_measure.rect_mass_below(40, math.inf)
    assert series == pytest.approx(table.sum(), rel=1e-6)


def test_out_marginal_infinite_at_k3(deriv_measure):
    # k = 3 >= alpha_in - 1 + a*delta_out = 2.75: column sums diverge
    with pytest.raises(DomainError, match="infinite"):
        deriv_measure.rect_mass_below(math.inf, 5.0)


def test_out_marginal_finite_at_k2(params):
    u2 = build_derivative_measure(2, params)
    val = u2.rect_mass_below(math.inf, 10.0)
    table = dense_atoms(u2, 20000, 10)
    assert val > 0
    # column sums decay like i^(-1.75), so truncating the table at
    # i = 2e4 still leaves just under one percent in the tail
    assert table.sum() < val
    assert table.sum() == pytest.approx(val, rel=2e-2)


@pytest.mark.parametrize("point, k, value, budget", [
    ((0.081, 0.407, 0.512, 16.5, 0.0546), 23, 1.1979958482994021e35, 2000),
    ((0.3, 0.5, 0.2, 1.0, 1.0), 2, 33.318566911857616, 600),
], ids=["far", "canonical"])
def test_whole_section_leaves_the_window_floor(monkeypatch, point, k, value, budget):
    """The whole in-section of an out-marginal is 1, so its p^r no longer lowers
    the floor g: the far point's window was (-3.4, 477.2), over 3,845 nodes,
    and the canonical one took 627 nodes."""
    nodes = []

    def counted(sum_f, lo, hi):
        return trapezoid(lambda s: nodes.append(s.size) or sum_f(s), lo, hi)

    monkeypatch.setattr(limit_dist, "trapezoid", counted)
    measure = build_derivative_measure(k, ModelParams(*point))
    assert measure.rect_mass_below(math.inf, 10.0) == pytest.approx(value, rel=1e-12)
    assert sum(nodes) <= budget


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
    got = build_derivative_measure(5, p).rect_mass_below(math.inf, 10)
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
    full, _ = deriv_measure.laplace(1e-7, 1e-7)
    assert math.isfinite(full) and full > 0
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


def test_transform_grid_resolution_stability(monkeypatch, params, deriv_measure, scaling):
    """A tighter quadrature tolerance leaves the value alone."""
    default = transform_scaling(deriv_measure, scaling, 1e4, 1.0, 1.0)
    monkeypatch.setattr(quadrature, "TOL_REL", 1e-14)
    tight = build_derivative_measure(3, params)
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


def test_truncation_condition_finite_support(params, scaling):
    u = LatticeMeasure.from_dict({(0, 0): 1.0, (3, 2): 2.0})
    rows = truncation_check(params, y_grid=[0.0, 10.0], t_grid=[2.0], measure=u)["rows"]
    by_y = {r["y"]: r for r in rows}
    # y = 0 covers the whole domain; b(t) y = (18.5, 17.1) exceeds the support
    full = u.laplace(1.0 / scaling.b1(2.0), 1.0 / scaling.b2(2.0))[0] / 2.0
    assert by_y[0.0]["value"] == pytest.approx(full)
    assert by_y[10.0]["value"] == 0.0


def test_truncation_condition_derivative_measure(params, deriv_measure):
    rows = truncation_check(params, y_grid=[0.0, 8.0], t_grid=[1e3], measure=deriv_measure)["rows"]
    by_y = {r["y"]: r for r in rows}
    assert by_y[8.0]["ratio_to_y0"] < 0.01


def test_marginal_condition_counting_measure(params, scaling):
    """Unit weights on the axis give U_1(y) = floor(y) + 1, so the ratio is
    b1(t/K) x / t to within one atom, i.e. O(1/t); the row is the dense
    in-marginal exactly."""
    u = LatticeMeasure(np.ones((30000, 1)))
    K = derivative_marginal_normalizer(params, 3)
    for r in marginal_check(params, t_grid=[1e4], measure=u)["rows"]:
        want = (1e4 / K) ** (1.0 / scaling.gamma1) * r["x"] / 1e4
        assert r["ratio"] == pytest.approx(want, abs=2.0 / 1e4)
        assert r["ratio"] == u.marginal_mass(1, scaling.b1(1e4 / K) * r["x"]) / 1e4
        assert r["target"] == r["x"] ** scaling.gamma1


def test_marginal_rows_are_the_in_marginal_at_b1_of_t_over_k(deriv_measure, params, scaling):
    """Each row is U_1(b1(t/K) x)/t against x**gamma1, bit for bit, with b1
    taken as float64(t/K)**(1/gamma1)."""
    K, g1 = derivative_marginal_normalizer(params, 3), scaling.gamma1
    rows = marginal_check(params, measure=deriv_measure)["rows"]
    assert len(rows) == 12
    for r in rows:
        t, x = r["t"], r["x"]
        b1 = float(np.float64(t / K) ** (1 / g1))
        assert r["ratio"] == deriv_measure.rect_mass_below(b1 * x, math.inf) / t
        assert r["target"] == x**g1


def test_marginal_errors_must_fall_along_the_grid():
    """ratio/target - 1 ends at -0.0748, -0.0508 and -0.0344, all within 0.10,
    but at x = 0.5 its size rises first: -0.9923, then -0.9929."""
    report = marginal_check(ModelParams(0.25, 0.72, 0.03, 4.8, 1.3), k=3)
    assert report["passed"] is False
    finals = [r["rel_err"] for r in report["rows"] if r["t"] == 1e5]
    assert max(finals) <= 0.10
    first = [r["rel_err"] for r in report["rows"] if r["x"] == 0.5][:2]
    assert first == pytest.approx([0.9923, 0.9929], abs=1e-4)


def test_marginal_normalizer_matches_partial_sums(deriv_measure, params):
    K = derivative_marginal_normalizer(params, 3)
    g1 = 3 - 2.875 + 1.0
    X = 2e4
    assert deriv_measure.rect_mass_below(X, math.inf) / X**g1 == pytest.approx(K, rel=0.02)


def test_normalizer_refuses_k_below_the_order_bound(params):
    """k = 1 < alpha_in - 1 = 1.875: the closed form once returned -11.0136."""
    with pytest.raises(InvalidK):
        derivative_marginal_normalizer(params, 1)


def test_normalizer_refuses_params_the_limit_refuses():
    """delta_in = 0: the normalizer once returned 0.8093 where uhat_limit_rhs
    raised InvalidParams."""
    p = ModelParams(0.3, 0.5, 0.2, 0.0, 1.0)
    for call in (lambda: uhat_limit_rhs(3, p, 1.0, 1.0),
                 lambda: derivative_marginal_normalizer(p, 3)):
        with pytest.raises(InvalidParams):
            call()


@pytest.mark.parametrize("k", [391, 400])
def test_normalizer_beyond_the_float_range_is_a_domain_error(k):
    """log K is about 2,077 and 2,075 here.  K once overflowed to inf, and
    marginal_check then reported a non-finite integrand value."""
    p = ModelParams(0.05, 0.05, 0.9, 40.0, 1.0)
    for call in (lambda: derivative_marginal_normalizer(p, k), lambda: marginal_check(p, k=k)):
        with pytest.raises(DomainError, match=f"closed-form in-marginal .* at x = 1, k = {k} overflows"):
            call()


def test_limit_integrals_beyond_the_float_range_are_domain_errors():
    """The integrands peak near e^831 here, as K = e^831.397 does; the rule
    fails on an overflowing node, and that failure is typed as the overflow."""
    p, k = ModelParams(0.02, 0.02, 0.96, 6.654, 1.990), 191
    for call in (lambda: uhat_limit_rhs(k, p, 1.0, 1.0), lambda: derivative_limit_rect(k, p, 1.0, 1.0)):
        with pytest.raises(DomainError, match=r"the integrand e\^83\d\.\d+ overflows the float range"):
            call()
    overflow = r"in-marginal e\^831.397 at x = 1, k = 191 overflows the float range"
    with pytest.raises(DomainError, match=overflow):
        derivative_marginal_normalizer(p, k)


# -- the limit measure is x^k times component 1 of the tail measure ----------------


def test_limit_rect_integrates_x_to_the_k_times_the_tail_density(params):
    """A 2-d adaptive quadrature of u^k TailMeasure.density(1, u, v); a fixed
    Gauss-Legendre rule is not accurate enough at the singular v -> 0 edge."""
    tm = TailMeasure(params)
    want, _ = integrate.dblquad(lambda v, u: u**3 * tm.density(1, u, v), 0.0, 1.0, 0.0, 1.0,
                                epsrel=1e-9)
    assert derivative_limit_rect(3, params, 1.0, 1.0) == pytest.approx(want, rel=1e-10, abs=0.0)


@pytest.mark.parametrize(
    "point, ks",
    [
        ((0.3, 0.5, 0.2, 1.0, 1.0), (2, 3, 4, 6)),
        ((0.6528359676866025, 0.2855359132201604, 0.06162811909323712,
          7.906018585756149, 15.113581296628022), (10,)),
    ],
    ids=["canonical", "k10-peak-left-of-split"],
)
def test_limit_in_marginal_is_the_normalizer_power(point, ks):
    """The limit rectangle with y = 1e300 is the closed-form in-marginal K x**gamma1."""
    p = ModelParams(*point)
    for k in ks:
        norm = derivative_marginal_normalizer(p, k)
        gamma1 = ScalingFunctions.for_derivative_measure(p, k).gamma1
        for x in (0.5, 1.0, 2.0):
            want = norm * x**gamma1
            assert derivative_limit_rect(k, p, x, 1e300) == pytest.approx(want, rel=1e-12, abs=0.0)


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


def test_nb_cut_at_a_huge_shape_takes_the_gamma_limit():
    # betainc(r, b, x) and the 2F1 series are NaN at b = 4.76e292 where b x is moderate;
    # there I_x(r, b) is P(r, b x) to O(1/b)
    r, b = 2.3243, 4.76e292
    log_x = np.array([-700.0, -680.0, -675.0, -674.0])
    want = [float(mp.log(mp.gammainc(r, 0, mp.mpf(b) * mp.exp(v), regularized=True))) for v in log_x]
    assert _log_betainc(r, b, log_x) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("point, k", [((0.1717, 0.5192, 0.3091, 13.60, 2.324), 11)],
                         ids=["k11-huge-out-cut"])
def test_measure_check_where_the_out_cut_is_huge(point, k):
    """b2(t) y reaches about 5e292 at t = 1e4: the NB cdf of that cut was NaN,
    and the check raised a non-finite integrand."""
    params = ModelParams(*point)
    assert measure_check(params, k)["passed"] is True
    target = derivative_limit_rect(k, params, 1.0, 1.0)
    u, b = build_derivative_measure(k, params), ScalingFunctions.for_derivative_measure(params, k)
    assert measure_scaling(u, b, 1e6, 1.0, 1.0) == pytest.approx(target, rel=1e-5)


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

    def laplace(self, s1, s2, boxes=()):
        return math.nan, [math.nan] * len(boxes)

    def rect_mass_below(self, x, y):
        return math.nan


def test_check_gates_fail_closed_on_nan(params):
    assert uhat_check(params, measure=_NaNMeasure())["passed"] is False
    assert measure_check(params, measure=_NaNMeasure())["passed"] is False


def test_zero_target_is_a_quadrature_failure(params, monkeypatch):
    monkeypatch.setattr(tauberian, "_UHAT_LAMBDAS", ((1e300, 1e300),))
    monkeypatch.setattr(tauberian, "_MEASURE_POINTS", ((1e-300, 1e-300),))
    with pytest.raises(QuadratureFailure, match=r"lambda = \(1e\+300, 1e\+300\)"):
        uhat_check(params)
    with pytest.raises(QuadratureFailure, match=r"\(1e-300, 1e-300\)"):
        measure_check(params)
    # at 1e200 the target is tiny but resolved, and the check fails on it
    monkeypatch.setattr(tauberian, "_UHAT_LAMBDAS", ((1e200, 1e200),))
    report = uhat_check(params)
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



# each check's report keys and row keys, in the order the reports write them
REPORT_LAYOUT = {
    "uhat": (("check", "k", "h_grid", "rel_tol", "rows", "passed"),
             ("h", "lambda1", "lambda2", "lhs", "rhs", "rel_err")),
    "measure": (("check", "k", "t_grid", "rel_tol", "rows", "passed"),
                ("t", "x", "y", "value", "target", "rel_err")),
    "truncation": (("check", "k", "x", "probe_y", "ratio_tol", "rows", "passed"),
                   ("t", "y", "value", "ratio_to_y0")),
    "marginal": (("check", "k", "t_grid", "rel_tol", "rows", "passed", "normalizer"),
                 ("t", "x", "ratio", "target", "rel_err")),
}


def test_check_reports_keep_their_layout(params, deriv_measure):
    assert list(CHECKS) == list(REPORT_LAYOUT)
    for name, check in CHECKS.items():
        report = check(params, measure=deriv_measure)
        report_keys, row_keys = REPORT_LAYOUT[name]
        assert tuple(report) == report_keys
        assert report["check"] == name and report["passed"] is True
        assert all(tuple(row) == row_keys for row in report["rows"])
    trunc = truncation_check(params, measure=deriv_measure)
    assert (trunc["x"], trunc["probe_y"], trunc["ratio_tol"]) == ([1.0, 1.0], 8.0, 0.01)
    marg = marginal_check(params, measure=deriv_measure)
    assert marg["normalizer"] == derivative_marginal_normalizer(params, 3)
    assert [(r["x"], r["t"]) for r in marg["rows"]] == [
        (x, t) for x in (0.5, 1.0, 2.0) for t in marg["t_grid"]]


@pytest.mark.parametrize("call, message", [
    (lambda p: uhat_check(p, h_grid=()), "is empty"),
    (lambda p: measure_check(p, t_grid=()), "is empty"),
    (lambda p: truncation_check(p, y_grid=()), "is empty"),
    (lambda p: truncation_check(p, t_grid=()), "is empty"),
    (lambda p: marginal_check(p, t_grid=()), "is empty"),
    (lambda p: uhat_check(p, h_grid=(1e6, 1e4, 1e2)), "h_grid must be strictly increasing"),
    (lambda p: uhat_check(p, h_grid=(1e2, 1e2)), "h_grid must be strictly increasing"),
    (lambda p: measure_check(p, t_grid=(1e4, 1e3)), "t_grid must be strictly increasing"),
    (lambda p: measure_check(p, t_grid=(1e2, 1e3, 1e3)), "t_grid must be strictly increasing"),
    (lambda p: marginal_check(p, t_grid=(1e5, 1e2)), "t_grid must be strictly increasing"),
    (lambda p: marginal_check(p, t_grid=(1e3, 1e3)), "t_grid must be strictly increasing"),
    (lambda p: truncation_check(p, y_grid=(0.0, -1.0)), "y grid must be nonnegative"),
    (lambda p: measure_scaling(build_derivative_measure(3, p),
                               ScalingFunctions.for_derivative_measure(p, 3), 10.0, -1.0, 1.0),
     "corners must be nonnegative"),
    (lambda p: derivative_limit_rect(3, p, 1.0, 0.0), "corners must be positive"),
    (lambda p: build_derivative_measure(3, p).laplace(1.0, 0.0), "decay rates must be positive"),
    (lambda p: transform_scaling(build_derivative_measure(3, p),
                                 ScalingFunctions.for_derivative_measure(p, 3), 10.0, 0.0, 1.0),
     "decay parameters must be positive"),
    (lambda p: uhat_limit_rhs(3, p, 1.0, -1.0), "decay parameters must be positive"),
], ids=["uhat-h", "measure-t", "truncation-y", "truncation-t",
        "marginal-t", "uhat-h-descending", "uhat-h-repeated", "measure-t-descending",
        "measure-t-repeated", "marginal-t-descending", "marginal-t-repeated",
        "truncation-negative-y", "measure-scaling-negative-corner", "limit-rect-zero-corner",
        "laplace-zero-decay", "transform-zero-decay", "limit-transform-negative-decay"])
def test_empty_grid_is_a_domain_error(params, call, message):
    """An empty or non-increasing grid, and any other argument outside a
    check's or a scaling function's domain, is refused as a DomainError."""
    with pytest.raises(DomainError, match=message):
        call(params)


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("check", [uhat_check, measure_check, marginal_check],
                         ids=["uhat", "measure", "marginal"])
def test_rel_tol_must_be_positive_and_finite(params, check, rel_tol):
    with pytest.raises(DomainError, match="rel_tol must be positive and finite"):
        check(params, rel_tol=rel_tol)


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
def test_scaling_at_a_t_that_is_not_positive_is_a_domain_error(scaling, t):
    for b in (scaling.b1, scaling.b2):
        with pytest.raises(DomainError, match="t must be positive"):
            b(t)


def test_domain_atlas_subset():
    """The first 50 points of the domain atlas's recipe (default_rng(2026)),
    each check at default flags: every outcome is a pass, a fail or a typed
    error, and the pass counts only ever rise."""
    rng = np.random.default_rng(2026)
    passes = dict.fromkeys(CHECKS, 0)
    for _ in range(50):
        weights = 0.02 + 0.94 * rng.dirichlet((1, 1, 1))
        deltas = np.exp(rng.uniform(math.log(0.05), math.log(20), 2))
        p = ModelParams(*weights, *deltas)
        k = math.floor(derive(p).alpha_in) + int(rng.integers(0, 3))
        for name, check in CHECKS.items():
            try:
                report = check(p, k=k)
            except HeavytailError:
                continue
            assert report["passed"] is True or report["passed"] is False
            passes[name] += report["passed"]
    floors = {"uhat": 32, "measure": 21, "truncation": 48, "marginal": 14}
    assert all(passes[name] >= floors[name] for name in CHECKS), passes
