import math

import mpmath as mp
import numpy as np
import pytest

from heavytail_pa import (
    LimitDistribution,
    ModelParams,
    build_derivative_measure,
    QuadratureFailure,
    TailMeasure,
    derivative_limit_rect,
    derive,
    limit_dist,
    quadrature,
    tail_measure,
    uhat_limit_rhs,
)
from heavytail_pa.quadrature import MAX_NODES, trapezoid
from oracles import ends, two_call_trapezoid
from test_properties import GROWTH_POINTS


def test_table_rule_fails_fast_on_a_nan_integrand():
    calls = []

    def f(nodes):
        calls.append(nodes.size)
        return np.full((2, 2, nodes.size), np.nan)

    with pytest.raises(QuadratureFailure, match="non-finite"):
        trapezoid(f, 0.0, 1.0)
    assert len(calls) == 1


def test_table_rule_rejects_an_unresolved_integrand(monkeypatch):
    calls = []

    def f(nodes):
        calls.append(nodes.size)
        return np.sin(1.0 / (nodes + 1e-8)) / np.sqrt(nodes + 1e-8)

    monkeypatch.setattr(quadrature, "TOL_REL", 1e-14)
    with pytest.raises(QuadratureFailure, match="not converged"):
        trapezoid(f, 0.0, 1.0)
    assert sum(calls) <= MAX_NODES


def test_rule_refuses_a_level_past_the_node_budget():
    """The budget is checked before a level's nodes are built: a window of
    length 1e5 needs 4e5 nodes at the first level, and none is evaluated."""
    calls = []

    def spy(nodes):
        calls.append(nodes.size)
        return np.zeros(nodes.size)

    with pytest.raises(QuadratureFailure, match="not converged at 0 nodes"):
        trapezoid(spy, 0.0, 1e5)
    assert calls == []
    # an out-marginal with a slow tail: its window is [-14.7, 44362], and the
    # rule once evaluated 5.4 times MAX_NODES and returned a value
    slow = build_derivative_measure(2, ModelParams(0.4510, 0.0997, 0.4493, 0.0743, 0.063264))
    with pytest.raises(QuadratureFailure, match="not converged"):
        slow.rect_mass_below(math.inf, 10.0)


def test_running_sum_past_the_float_range_is_a_failure():
    """Each level's sum is finite but the total overflows: inf <= tol_rel * inf
    once passed as converged, and rect_mass returned inf."""
    tm = TailMeasure(ModelParams(0.0861, 0.5402, 0.3737, 21.42, 26.19))
    with pytest.raises(QuadratureFailure, match="running sum overflows the float range"):
        tm.rect_mass("combined", 1e-20, 1e-20)
    big = float(np.finfo(float).max) / 4

    def f(nodes):
        return np.full(nodes.size, big)

    with pytest.raises(QuadratureFailure, match="running sum overflows"):
        trapezoid(f, 0.0, 1.0)


def test_trapezoid_gaussian_integrals():
    """int exp(-(s-mu)^2 / (2 sig^2)) ds = sig sqrt(2 pi), scalar and table-valued."""
    got = trapezoid(lambda s: np.exp(-(s**2)), -12.0, 12.0)
    assert got == pytest.approx(math.sqrt(math.pi), rel=1e-14, abs=0.0)
    mu = np.array([-1.0, 0.3, 2.0])[:, None, None]
    sig = np.array([0.2, 1.0, 3.0])[None, :, None]

    def f(s):
        return np.exp(-0.5 * ((s - mu) / sig) ** 2)

    table = trapezoid(f, -40.0, 40.0)
    assert table.shape == (3, 3)
    np.testing.assert_allclose(table, np.broadcast_to(sig[..., 0] * math.sqrt(2 * math.pi), (3, 3)),
                               rtol=1e-14, atol=0.0)


def _gaussians(s):
    """A table of Gaussian bells, nodes on the last axis."""
    mu = np.array([-1.0, 0.3, 2.0])[:, None, None]
    sig = np.array([0.05, 1.0, 3.0])[None, :, None]
    return np.exp(-0.5 * ((s - mu) / sig) ** 2)


# windows off centre: on a centred one a symmetric integrand sums to the same bits in either order
@pytest.mark.parametrize("f, lo, hi", [
    (lambda s: np.exp(-(s**2)), -12.0, 13.0),
    (lambda s: np.exp(-0.5 * ((s - 0.1) / 0.05) ** 2), -3.0, 2.5),
    (_gaussians, -40.0, 41.0),
    (lambda s: np.stack([np.exp(-np.cosh(s)), 1.0 / np.cosh(s) ** 2], axis=0), -30.0, 29.0),
], ids=["scalar", "scalar-narrow", "table", "stacked"])
def test_trapezoid_matches_the_two_call_rule_bit_for_bit(monkeypatch, f, lo, hi):
    """The first two levels in one call take the same nodes and the same sums
    as two calls: level 0 at the odd positions, its midpoints at the even ones.
    The narrow bells need four or more levels.  The oracle runs at 1e-12
    absolute and 1e-10 relative, then 1e-14 relative alone."""
    for tol_abs, tol_rel in ((1e-12, 1e-10), (0.0, 1e-14)):
        monkeypatch.setattr(quadrature, "TOL_REL", tol_rel)
        got = trapezoid(f, lo, hi)
        want = two_call_trapezoid(lambda s: f(s).sum(axis=-1), lo, hi, tol_abs, tol_rel)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("point", [p for p, _ in GROWTH_POINTS.values()], ids=GROWTH_POINTS.keys())
def test_integrals_match_the_two_call_rule_bit_for_bit(monkeypatch, point):
    """Every tail-measure and NB-mixture integral, run by the rule and by the
    two-call oracle at the tolerances each kernel took when they were
    options: 1e-12 absolute and 1e-10 relative for the NB mixture, 1e-10
    relative alone for the gamma mixture.  The bits agree, so the relative
    rule moves none of these integrals, the derivative measure's included."""
    compared = []

    def both(module, tol_abs):
        def rule(f, lo, hi):
            got = trapezoid(f, lo, hi)
            want = two_call_trapezoid(lambda s: f(s).sum(axis=-1), lo, hi, tol_abs, 1e-10)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (module.__name__, lo, hi)
            compared.append(got)
            return got

        monkeypatch.setattr(module, "trapezoid", rule)

    both(tail_measure, 0.0)
    both(limit_dist, 1e-12)
    params = ModelParams(*point)
    tm, dist = TailMeasure(params), LimitDistribution(params)
    for component in (1, 2, "combined"):
        tm.density(component, 0.8, 1.5)
        tm.rect_mass(component, 1.0, 2.0)
        tm.rect_mass(component, 0.5, 0.0)
    dist.pgf(0.5, 0.3)
    dist.pgf(1.0, 1.0)
    dist._kernel(1).mass([(3, 4), (10, 2), (math.inf, 5)], 0.3, 0.0)
    dist._kernel(2).mass([(0, 0), (7, math.inf)])
    assert len(compared) == 15
    d = derive(params)
    for k in range(math.floor(d.alpha_in), math.floor(d.alpha_in) + 3):
        u = build_derivative_measure(k, params)
        for s1, s2 in ((1.0, 1.0), (1e-2, 1e-3), (1e-4, 1e-2)):
            u.laplace(s1, s2)
        u.rect_mass_below(5.0, 7.0)
        u.rect_mass_below(10.0, math.inf)
        if k < d.alpha_in - 1.0 + d.a * params.delta_out:  # else the out-marginal is infinite
            u.rect_mass_below(math.inf, 10.0)
    assert len(compared) >= 15 + 3 * 5


def test_a_two_level_integral_makes_one_integrand_call(monkeypatch, params):
    """At the canonical point each integral here stops after two levels, in one
    call of 2n - 1 nodes; the density evaluates its log integrand twice, at the
    probe points and then at the nodes."""
    calls, free_sizes = [], []

    def counted(f, lo, hi):
        sizes = []
        value = trapezoid(lambda s: sizes.append(s.size) or f(s), lo, hi)
        calls.append((sizes, 2 * max(2, math.ceil(4.0 * (hi - lo))) - 1))
        return value

    log_density = tail_measure._log_density

    def counted_density(r):
        # the shape-free part runs once per margin each time the log integrand does
        section = log_density(r)
        return section._replace(free=lambda x: free_sizes.append(x.size) or section.free(x))

    monkeypatch.setattr(tail_measure, "trapezoid", counted)
    monkeypatch.setattr(limit_dist, "trapezoid", counted)
    monkeypatch.setattr(tail_measure, "_log_density", counted_density)
    tm, dist = TailMeasure(params), LimitDistribution(params)
    tm.density("combined", 0.8, 1.5)
    [(_, nodes)] = calls
    assert free_sizes == [4, 4, nodes, nodes]  # four turning points, then the nodes
    tm.rect_mass(1, 1.0, 2.0)
    dist.pgf(0.5, 0.3)  # one integral per component
    dist._kernel(1).mass([(3, 4), (10, 2)])
    assert len(calls) == 5
    assert all(sizes == [nodes] for sizes, nodes in calls), calls


def test_density_matches_its_whole_log_integrand():
    """Folding r x into one line per component and taking the shape-free -u
    out of the component sum move the density by rounding alone: the kernel
    with a section kind whose whole log is one function of x agrees within
    1e-14 on the benchmark's log grid, at each of the 9 named points."""
    def whole(r):
        section = tail_measure._log_density(r)

        def log_section(x):
            return section.offset + r * x + section.free(x)

        return section._replace(shaped=log_section, offset=0.0, free=None)

    grid = np.geomspace(0.5, 5.0, 8).tolist()
    for point, _ in GROWTH_POINTS.values():
        tm = TailMeasure(ModelParams(*point))
        for component in (1, 2, "combined"):
            kernel = tm._kernel(component)
            for x in grid:
                for y in grid:
                    want = kernel.integral(whole, math.log(x), math.log(y)) / x / y
                    assert tm.density(component, x, y) == pytest.approx(want, rel=1e-14, abs=0.0), (
                        point, component, x, y)


@pytest.mark.parametrize("point", [p for p, _ in GROWTH_POINTS.values()], ids=GROWTH_POINTS.keys())
def test_windows_match_the_per_call_bounds_bit_for_bit(monkeypatch, point):
    """Each window the plan forms equals the bounds rebuilt from the sections
    on every call (oracles.ends), at the floor the integral found: densities
    and tail rectangles, with a zero corner or none, at k = 0 < 1/c1, and the
    order-k Laplace and box integrals at k > 1/c1."""
    seen = []
    windows = tail_measure._GammaMixture.windows

    def spy(self, plan, logs, floor):
        got = windows(self, plan, logs, floor)
        seen.append((self, plan, logs, floor, got))
        return got

    monkeypatch.setattr(tail_measure._GammaMixture, "windows", spy)
    params = ModelParams(*point)
    tm = TailMeasure(params)
    for component in (1, 2, "combined"):
        for x, y in ((0.8, 1.5), (1e-3, 40.0), (30.0, 0.02)):
            tm.density(component, x, y)
            tm.rect_mass(component, x, y)
        tm.rect_mass(component, 0.5, 0.0)
        tm.rect_mass(component, 0.0, 0.5)
    d = derive(params)
    for k in (math.floor(d.alpha_in), math.floor(d.alpha_in) + 2):
        uhat_limit_rhs(k, params, 0.3, 2.0)
        derivative_limit_rect(k, params, 5.0, 7.0)
    assert len(seen) == 3 * 8 + 4
    for kernel, plan, logs, floor, got in seen:
        want = []
        for (w, r_in, r_out), (_, sections) in zip(kernel.components, plan.parts):
            log_const = w + tail_measure._log_mix_const(r_in, kernel.k, kernel.c1)
            margins = zip(((logs[0], 1.0), (logs[1], kernel.a)), sections)
            want.append(ends(kernel.power, log_const, margins, floor))
        assert got == want, (logs, floor)


def test_a_plan_is_built_once_per_kind_and_finite_corners(monkeypatch, params):
    """Sections are built when a (kind, finite corners) pattern first runs, two
    per component, and never again for it."""
    built = []

    def counting(kind):
        def spy(r):
            built.append(kind.__name__)
            return kind(r)

        return spy

    for name in ("_log_density", "_log_upper"):
        monkeypatch.setattr(tail_measure, name, counting(getattr(tail_measure, name)))
    tm = TailMeasure(params)
    for x in (0.5, 1.0, 2.0):
        tm.density("combined", x, 1.5)
        tm.rect_mass("combined", x, 1.5)
        tm.rect_mass("combined", x, 0.0)
    assert built == ["_log_density"] * 4 + ["_log_upper"] * 8
    tm.density(1, 1.0, 1.0)
    tm.rect_mass(1, 0.0, 1.0)
    assert built[12:] == ["_log_density"] * 2 + ["_log_upper"] * 2
    assert len(tm._kernel("combined")._plans) == 3 and len(tm._kernel(1)._plans) == 2


# alpha_in = 28.5 here: the z-exponents reach about 40, so the integrands
# only stay finite when they are evaluated in log space
HIGH_ALPHA_IN = ModelParams(0.1, 0.1, 0.8, 5.0, 1.0)
HIGH_K = 30


def _mpmath_oracle(name):
    """The four high-alpha_in integrals from their gamma-mixture forms, at 30 digits."""
    d = derive(HIGH_ALPHA_IN)
    with mp.workdps(30):
        c1, a = mp.mpf(d.c1), mp.mpf(d.a)
        din, dout = mp.mpf(HIGH_ALPHA_IN.delta_in), mp.mpf(HIGH_ALPHA_IN.delta_out)
        const = mp.fprod(din + i for i in range(1, HIGH_K + 1))

        def gamma_pdf(v, r, scale):
            return v ** (r - 1) * mp.exp(-v / scale) / (mp.gamma(r) * scale**r)

        def lower(r, v):
            # 1 - Q is much faster than mpmath's lower form here, and at
            # 30 digits it loses accuracy only where the integrand is negligible
            return 1 - mp.gammainc(r, v, regularized=True)

        def mix(f):
            # c1^-1 int_0^inf z^(-1-1/c1) f(z) dz
            cuts = [0, 0.01, 0.1, 1, 10, 100, mp.inf]
            return mp.quad(lambda z: z ** (-1 - 1 / c1) * f(z), cuts) / c1

        integrands = {
            "density": lambda z: gamma_pdf(1, din + 1, z) * gamma_pdf(1, dout, z**a),
            "rect_mass": lambda z: mp.gammainc(din + 1, 1 / z, regularized=True)
            * mp.gammainc(dout, 1 / z**a, regularized=True),
            "uhat_limit_rhs": lambda z: const * z**HIGH_K * (1 + z) ** -(din + HIGH_K + 1)
            * (1 + z**a) ** -dout,
            "derivative_limit_rect": lambda z: const * z**HIGH_K
            * lower(din + HIGH_K + 1, 1 / z) * lower(dout, 1 / z**a),
        }
        return float(mix(integrands[name]))


HIGH_ALPHA_IN_CALLS = {
    "density": lambda p: TailMeasure(p).density(1, 1.0, 1.0),
    "rect_mass": lambda p: TailMeasure(p).rect_mass(1, 1.0, 1.0),
    "uhat_limit_rhs": lambda p: uhat_limit_rhs(HIGH_K, p, 1.0, 1.0),
    "derivative_limit_rect": lambda p: derivative_limit_rect(HIGH_K, p, 1.0, 1.0),
}


@pytest.mark.parametrize("name", list(HIGH_ALPHA_IN_CALLS))
def test_high_alpha_in_matches_mpmath(name):
    got = HIGH_ALPHA_IN_CALLS[name](HIGH_ALPHA_IN)
    assert got == pytest.approx(_mpmath_oracle(name), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("scale", [1e-60, 1e60], ids=["peak-left", "peak-right"])
def test_far_peak_lies_in_the_window(params, scale):
    """At corners scaled by 1e-60 and 1e60 the integrand peaks near log z = -+138/c1,
    far from s = 0: density homogeneity holds there, and rect_mass(1, x, 0)
    equals the closed-form marginal."""
    tm = TailMeasure(params)
    d = tm.derived
    log_c = math.log(scale) / d.c1  # (x, y) -> (c^c1 x, c^c2 y) divides the density by c^(1+c1+c2)
    x, y = 0.8, 1.5
    far = tm.density(1, math.exp(d.c1 * log_c) * x, math.exp(d.c2 * log_c) * y)
    assert math.log(far) + (1.0 + d.c1 + d.c2) * log_c == pytest.approx(
        math.log(tm.density(1, x, y)), rel=0.0, abs=1e-11)
    corner = scale * x
    assert tm.rect_mass(1, corner, 0.0) == pytest.approx(
        tm.marginal_mass_closed_form(1, corner), rel=1e-12, abs=0.0)
