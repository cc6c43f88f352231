import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special, stats

from heavytail_pa import (
    DomainError,
    InsufficientExceedances,
    ModelParams,
    TailMeasure,
    angular_histogram,
    derive,
    quadrature,
    standardize,
)
from heavytail_pa.census import ANGULAR_SLICE, StandardizedSample
from conftest import traced_peak
from oracles import one_pass_angular_histogram
from test_properties import GROWTH_POINTS

# three named points of test_properties, where c = gamma_in/gamma_out is 0.026, 14.6 and 0.46
NAMED_POINTS = ("alpha-heavy", "gamma-heavy", "large-deltas")


@pytest.fixture(scope="module")
def tm(params):
    return TailMeasure(params)


def test_upper_gamma_moment_identity():
    """int_0^inf t^(s-1) Q(r, t) dt = Gamma(r+s)/(s Gamma(r)).

    This identity underlies the closed-form marginal mass; verify it
    numerically before relying on it.
    """
    for r, s in [(2.0, 1.875), (0.7, 2.3), (1.5, 0.9)]:
        val, _ = integrate.quad(
            lambda t: t ** (s - 1.0) * special.gammaincc(r, t), 0, np.inf, limit=400
        )
        expected = special.gamma(r + s) / (s * special.gamma(r))
        assert val == pytest.approx(expected, rel=1e-9)


def test_marginal_mass_closed_form(tm):
    for x_lo in (0.5, 1.0, 2.0, 5.0):
        quad_val = tm.rect_mass(1, x_lo, 0.0)
        closed = tm.marginal_mass_closed_form(1, x_lo)
        assert abs(quad_val / closed - 1.0) < 1e-8
        quad_val2 = tm.rect_mass(2, x_lo, 0.0)
        closed2 = tm.marginal_mass_closed_form(2, x_lo)
        assert abs(quad_val2 / closed2 - 1.0) < 1e-8
    assert tm.marginal_mass_closed_form(1, math.inf) == 0.0
    # C x^(-1/c1) passes the float range, e^1296.84 at the canonical point
    overflow = r"in-marginal e\^1296.84 at x = 1e-300, k = 0 overflows the float range"
    with pytest.raises(DomainError, match=overflow):
        tm.marginal_mass_closed_form(1, 1e-300)


def test_density_positive(tm):
    for x, y in [(0.1, 0.1), (1.0, 3.0), (10.0, 0.5)]:
        assert tm.density(1, x, y) > 0
        assert tm.density(2, x, y) > 0
        assert tm.density("combined", x, y) > 0


def test_density_homogeneity(tm, params):
    d = tm.derived
    power = 1.0 + d.c1 + d.c2
    for c in (0.2, 1.7, 6.0):
        for x, y in [(0.5, 1.5), (2.0, 0.8)]:
            lhs = tm.density(1, c**d.c1 * x, c**d.c2 * y) * c**power
            assert abs(lhs / tm.density(1, x, y) - 1.0) < 1e-8


@pytest.mark.parametrize("x, y", [(3.0, 200.0), (1000.0, 1000.0)])
def test_far_tail_density_matches_mpmath(tm, x, y):
    """Far-tail densities sit below the absolute tolerance; they stay relatively accurate."""
    d, p = tm.derived, tm.params
    with mp.workdps(30):
        c1, a = mp.mpf(d.c1), mp.mpf(d.a)
        din, dout = mp.mpf(p.delta_in), mp.mpf(p.delta_out)
        zexp = 2 + 1 / c1 + din + a * dout
        pref = x**din * y ** (dout - 1) / (mp.gamma(din + 1) * mp.gamma(dout) * c1)

        def f(s):
            # in s = log z; exp of a hugely negative argument is cut to 0
            log_f = (1 - zexp) * s - x * mp.exp(-s) - y * mp.exp(-a * s)
            return mp.exp(log_f) if log_f > -5000 else mp.mpf(0)

        cuts = [-mp.inf, -20, -10, -5, -2, 0, 2, 5, 10, 20, 50, mp.inf]
        want = float(pref * mp.quad(f, cuts))
    assert tm.density(1, x, y) == pytest.approx(want, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("component, x, y, params", [
    pytest.param("combined", 1.0, 1.0, (0.414, 0.488, 0.098, 18.67, 0.153), id="combined-1-1"),
    pytest.param(1, 3.0, 50.0, (0.578, 0.114, 0.308, 16.31, 0.335), id="component1-3-50"),
])
def test_far_tail_density_stops_on_relative_change(monkeypatch, component, x, y, params):
    """Densities far below 1e-12 converge relatively: an absolute floor of
    1e-12 left these two 1.4 % and 4.3 % off."""
    p = ModelParams(*params)
    got = TailMeasure(p).density(component, x, y)
    monkeypatch.setattr(quadrature, "TOL_REL", 1e-13)
    want = TailMeasure(p).density(component, x, y)
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def test_density_symmetry_under_margin_swap():
    p = ModelParams(0.25, 0.5, 0.25, 0.8, 0.8)
    tm_sym = TailMeasure(p)
    for x, y in [(0.7, 1.3), (2.0, 0.4)]:
        assert tm_sym.density(1, x, y) == pytest.approx(tm_sym.density(2, y, x), rel=1e-10)


def _gl_panels_geom(lo, hi, n_panels, order):
    xs, ws = np.polynomial.legendre.leggauss(order)
    edges = np.geomspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    halfw = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + halfw[:, None] * xs[None, :]).ravel(), (
        halfw[:, None] * ws[None, :]
    ).ravel()


def _rect_mass_2d_oracle(tm, x_lo, y_lo, n_panels, z_panels_per_decade):
    """Tensor-product quadrature of the component-1 density over the rectangle.

    Substituting x = x_lo*s**-2 (and likewise for y) maps the domain to
    (0, 1]^2; truncating at s = 1e-3 discards x beyond 1e6*x_lo, whose
    mass is below 1e-10 by the marginal power law.  The density is
    evaluated from its defining z-integral on the full grid at once; no
    incomplete-gamma reduction is involved anywhere.
    """
    din, dout = tm.params.delta_in, tm.params.delta_out
    c1, a = tm.derived.c1, tm.derived.a
    s, ws = _gl_panels_geom(1e-3, 1.0, n_panels, 8)
    x = x_lo * s**-2.0
    y = y_lo * s**-2.0
    jac = x_lo * 2.0 * s**-3.0
    jac_y = y_lo * 2.0 * s**-3.0
    zhi = 100.0 * max(x.max(), y.max() ** (1.0 / a))
    sz, wz = _gl_panels_geom(1e-4, zhi, int(np.log10(zhi / 1e-4) * z_panels_per_decade), 12)
    zw = wz * sz ** -(2.0 + 1.0 / c1 + din + a * dout)
    e_in = np.exp(-np.outer(x, 1.0 / sz))
    e_out = np.exp(-np.outer(y, 1.0 / sz**a))
    inner = np.einsum("q,iq,jq->ij", zw, e_in, e_out)
    pref = (1.0 / c1) / (special.gamma(din + 1) * special.gamma(dout)) * np.outer(
        x**din, y ** (dout - 1.0)
    )
    return float(np.einsum("i,j,ij->", ws * jac, ws * jac_y, pref * inner))


def test_rect_mass_reduction_matches_density_quadrature(tm):
    """1-d incomplete-gamma path against raw 2-d quadrature of the density."""
    coarse = _rect_mass_2d_oracle(tm, 1.0, 1.0, n_panels=16, z_panels_per_decade=2)
    fine = _rect_mass_2d_oracle(tm, 1.0, 1.0, n_panels=32, z_panels_per_decade=4)
    assert abs(fine - coarse) < 1e-9
    reduced = tm.rect_mass(1, 1.0, 1.0)
    assert abs(fine - reduced) < 1e-6


def test_rect_mass_scaling(tm):
    d = tm.derived
    base = tm.rect_mass(1, 0.8, 1.2)
    for c in (0.1, 0.5, 2.0, 10.0):
        scaled = tm.rect_mass(1, c**d.c1 * 0.8, c**d.c2 * 1.2)
        assert abs(scaled * c / base - 1.0) < 1e-8


def test_rect_mass_combined_linearity(tm):
    v1 = tm.rect_mass(1, 1.0, 2.0)
    v2 = tm.rect_mass(2, 1.0, 2.0)
    combined = tm.rect_mass("combined", 1.0, 2.0)
    assert combined == pytest.approx(0.4 * v1 + 0.6 * v2, rel=1e-12)


@pytest.mark.parametrize("point", ("canonical",) + NAMED_POINTS)
def test_combined_measure_is_the_weighted_component_sum(point):
    """The combined measure, integrated as one mixture, equals pb f1 + (1 - pb) f2
    of the separately integrated components on a 10 x 10 grid."""
    tm = TailMeasure(ModelParams(*GROWTH_POINTS[point][0]))
    pb = tm.split
    grid = np.geomspace(0.3, 5.0, 10)
    for x in grid:
        for y in grid:
            for evaluate in (tm.density, tm.rect_mass):
                want = pb * evaluate(1, x, y) + (1.0 - pb) * evaluate(2, x, y)
                assert evaluate("combined", x, y) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_density_is_mixed_partial_of_rect_mass(tm):
    x0, y0 = 1.3, 0.9
    hx, hy = 1e-3 * x0, 1e-3 * y0
    corners = (
        tm.rect_mass(1, x0 + hx, y0 + hy)
        - tm.rect_mass(1, x0 + hx, y0 - hy)
        - tm.rect_mass(1, x0 - hx, y0 + hy)
        + tm.rect_mass(1, x0 - hx, y0 - hy)
    )
    approx_density = corners / (4.0 * hx * hy)
    assert abs(approx_density / tm.density(1, x0, y0) - 1.0) < 1e-4


def test_rect_mass_domain_errors(tm):
    with pytest.raises(DomainError):
        tm.rect_mass(1, 0.0, 0.0)
    for corner in ((-1.0, 1.0), (1.0, -1.0)):
        with pytest.raises(DomainError, match="corners must be nonnegative"):
            tm.rect_mass(1, *corner)
    with pytest.raises(DomainError):
        tm.density(1, -1.0, 1.0)
    with pytest.raises(DomainError):
        tm.density(7, 1.0, 1.0)


def test_tail_measure_requires_positive_deltas():
    with pytest.raises(Exception, match="delta"):
        TailMeasure(ModelParams(0.3, 0.5, 0.2, 0.0, 1.0))


def test_standardize_identity_when_symmetric():
    d = derive(ModelParams(0.25, 0.5, 0.25, 0.8, 0.8))
    s = standardize((np.array([1.0, 4.0]), np.array([2.0, 3.0])), d)
    assert s.c == pytest.approx(1.0)
    np.testing.assert_allclose(s.u, [1.0, 4.0])


def test_standardize_power_arithmetic(params):
    d = derive(params)
    x = np.array([4.0])
    s = standardize((x, np.array([1.0])), d)
    assert s.u[0] == pytest.approx(4.0 ** (d.gamma_in / d.gamma_out))
    # a pure half power example, by the elementwise rule of a hand-built sample
    half = StandardizedSample(x=x, v=np.array([1.0]), c=0.5)
    assert half.u[0] == pytest.approx(2.0)


@pytest.mark.parametrize("point", NAMED_POINTS)
def test_standardize_power_table_is_bit_identical(point):
    """u equals x.astype(float64) ** c bit for bit, through the table and the
    elementwise rule alike, and each read is a fresh array."""
    d = derive(ModelParams(*GROWTH_POINTS[point][0]))
    rng = np.random.default_rng(5)
    draws = rng.integers(0, 3000, 9000)
    draws[7] = draws.size - 1  # max == n - 1: the largest table the power path builds
    types = (np.int32, np.int64, np.uint16, np.uint32, np.uint64, np.float64)
    inputs = [draws.astype(t) for t in types]
    inputs += [a[::3] for a in inputs]  # strided, with max >= n: the elementwise rule
    inputs.append(np.stack([draws, draws], axis=1)[:, 0])  # strided, through the table
    inputs += [draws[:0], np.array([0, 2**40])]  # empty; a count far above n
    c = d.gamma_in / d.gamma_out
    samples = [standardize((x, x), d) for x in inputs]
    # built by hand, the sample picks the same rule; a negative integer, which
    # standardize refuses, takes the elementwise one (a gather would clip it to 0)
    samples += [StandardizedSample(x=x, v=x, c=c) for x in inputs[:2]]
    # read as unsigned, the int8 -1 is 255, below the size 400
    for signed in (np.array([2, -1, 0, 1] * 100, np.int8), np.array([2, -1, 0, 1])):
        samples.append(StandardizedSample(x=signed, v=np.zeros(signed.size), c=1.0))
    for s in samples:
        x = s.x
        assert (s.table is not None) == (x.dtype.kind in "iu" and x.size > 0
                                         and x.min() >= 0 and x.max() < x.size), x.dtype
        expected = x.astype(np.float64) ** s.c
        u = s.u
        assert u.dtype == np.float64 and u.shape == x.shape
        assert np.array_equal(u.view(np.int64), expected.view(np.int64)), x.dtype
        again = s.u
        assert again is not u and not np.shares_memory(again, u)
        assert np.array_equal(again.view(np.int64), expected.view(np.int64)), x.dtype
    assert list(samples[-1].u) == [2.0, -1.0, 0.0, 1.0] and samples[-2].u[1] == -1.0


def test_standardize_keeps_v_and_states_its_peak(dist, params):
    """x and v are the pairs themselves; the call allocates only the power table
    (8 B per entry), where a float64 u held 8 B per pair; each read of u costs 8 B per pair."""
    i_draws, o_draws = dist.sample(10**6, np.random.default_rng(17))
    d = derive(params)
    assert i_draws.dtype == o_draws.dtype == np.int32
    s, peak = traced_peak(lambda: standardize((i_draws, o_draws), d))
    assert np.shares_memory(s.x, i_draws) and np.shares_memory(s.v, o_draws)
    table = int(i_draws.max()) + 1
    assert s.table.size == table <= i_draws.size  # the table path ran
    assert peak < 2**20
    u, peak = traced_peak(lambda: s.u)
    assert peak <= 8 * i_draws.size + 256 * 1024
    with pytest.raises(DomainError):
        standardize((np.array([1, -1]), np.array([1, 1])), d)
    with pytest.raises(DomainError):
        standardize((np.array([1, 1]), np.array([1, -1])), d)


def test_standardize_preserves_rank_correlation(params):
    d = derive(params)
    rng = np.random.default_rng(9)
    x = rng.pareto(1.5, 4000)
    y = 0.5 * x + rng.pareto(2.0, 4000)
    before = stats.spearmanr(x, y).statistic
    s = standardize((x, y), d)
    after = stats.spearmanr(s.u, s.v).statistic
    assert before == pytest.approx(after, abs=1e-12)


def test_angular_histogram_diagonal_mass():
    u = np.full(500, 10.0)
    s = StandardizedSample(x=u, v=u, c=1.0)
    hist = angular_histogram(s, radius_threshold=1.0, bins=5)
    assert hist.masses[2] == pytest.approx(1.0)


def test_angular_histogram_axis_mass():
    u = np.concatenate([np.full(300, 10.0), np.zeros(300)])
    v = np.concatenate([np.zeros(300), np.full(300, 10.0)])
    hist = angular_histogram(StandardizedSample(x=u, v=v, c=1.0), 1.0, bins=4)
    assert hist.masses[0] == pytest.approx(0.5)
    assert hist.masses[-1] == pytest.approx(0.5)
    assert hist.masses[1:-1].sum() == 0.0


def test_angular_histogram_needs_exceedances():
    s = StandardizedSample(x=np.ones(40), v=np.ones(40), c=1.0)
    with pytest.raises(InsufficientExceedances):
        angular_histogram(s, radius_threshold=1.0, bins=4)
    with pytest.raises(DomainError):
        angular_histogram(s, radius_threshold=1.0, bins=1)
    for threshold in (0.0, -1.0):
        with pytest.raises(DomainError, match="radius threshold must be positive"):
            angular_histogram(s, radius_threshold=threshold, bins=4)


def test_angular_histogram_refuses_angles_outside_the_unit_interval():
    """A hand-built sample with a negative coordinate gives angles outside
    [0, 1]; they are exceedances of no bin, so the call refuses them."""
    u = np.concatenate([np.full(60, 10.0), np.full(60, -5.0)])
    with pytest.raises(DomainError, match="60 of 120 exceedances have an angle outside"):
        angular_histogram(StandardizedSample(x=u, v=np.full(120, 10), c=1.0), 1.0, bins=10)
    v = np.full(120, 10.0)
    v[-1] = -1.0  # angle -0.1, in the last slice of three
    u = np.zeros(2 * ANGULAR_SLICE + 120)
    u[-120:] = 20.0
    v = np.concatenate([np.zeros(2 * ANGULAR_SLICE), v])
    with pytest.raises(DomainError, match="1 of 120"):
        angular_histogram(StandardizedSample(x=u, v=v, c=1.0), 1.0, bins=10)
    v[-1] = 0.0  # the angles 0 and 1/3 in bins 0 and 3
    hist = angular_histogram(StandardizedSample(x=u, v=v, c=1.0), 1.0, bins=10)
    assert hist.masses[0] == 1 / 120 and hist.masses[3] == 119 / 120


@pytest.fixture(scope="module")
def sliced_sample(dist, params):
    """Standardized limit draws over four angular slices, the last one short,
    with 120 pairs far above the rest placed inside the third slice: their
    in-degrees are raised, still below the sample size, so the power table
    forms every u."""
    d = derive(params)
    i_draws, o_draws = dist.sample(3 * ANGULAR_SLICE + 1234, np.random.default_rng(17))
    far = np.arange(2 * ANGULAR_SLICE + 100, 2 * ANGULAR_SLICE + 220)
    rest = float(np.delete(standardize((i_draws, o_draws), d).u + o_draws, far).max())
    c = d.gamma_in / d.gamma_out
    i_draws[far] = math.ceil((10 * rest) ** (1 / c)) + np.arange(120)
    s = standardize((i_draws, o_draws), d)
    assert s.table is not None
    return s, rest


def test_angular_histogram_equals_the_one_pass_histogram(sliced_sample):
    """By the table and by the elementwise rule, with 32- and 64-bit v."""
    s32, rest = sliced_sample
    radius = s32.u + s32.v
    # float x selects the elementwise rule
    samples = (s32, replace(s32, v=s32.v.astype(np.int64)), replace(s32, x=s32.x.astype(np.float64)))
    assert samples[1].table is not None and samples[2].table is None
    for s in samples:
        # the last threshold leaves only the planted pairs, all in one slice
        for threshold in (*np.quantile(radius, [0.0, 0.5, 0.999]), 1.0, rest):
            got = angular_histogram(s, threshold, bins=10)
            want = one_pass_angular_histogram(s, threshold, bins=10)
            assert got.exceedances == want.exceedances and got.threshold == want.threshold
            assert got.bin_edges.tobytes() == want.bin_edges.tobytes()
            assert got.masses.tobytes() == want.masses.tobytes()
        assert angular_histogram(s, rest, bins=10).exceedances == 120


@pytest.mark.parametrize("v_type", [np.int32, np.int64])
def test_angular_histogram_peaks_under_three_slices(sliced_sample, v_type):
    """Just below the least radius every pair exceeds, so every slice brings a
    slice of angles: the counts are the one-pass counts byte for byte, and
    the call peaks under 2.5 slices of float64 (near 2.13 for 32-bit v and
    2.25 for 64-bit v)."""
    s, _ = sliced_sample
    s = replace(s, v=s.v.astype(v_type))
    threshold = float(np.nextafter((s.u + s.v).min(), 0.0))
    want = one_pass_angular_histogram(s, threshold, bins=10)
    got, peak = traced_peak(lambda: angular_histogram(s, threshold, bins=10))
    assert got.exceedances == want.exceedances == s.x.size
    assert got.masses.tobytes() == want.masses.tobytes()
    assert peak < 2.5 * 8 * ANGULAR_SLICE


def test_angular_exceedances_are_counted_across_slices():
    u = np.zeros(3 * ANGULAR_SLICE)
    v = np.zeros(3 * ANGULAR_SLICE, np.int32)
    u[:30], v[-30:] = 10.0, 10
    s = StandardizedSample(x=u, v=v, c=1.0)
    assert angular_histogram(s, 1.0, bins=4).exceedances == 60
    v[-30:-10] = 0
    with pytest.raises(InsufficientExceedances, match="only 40 exceedances"):
        angular_histogram(s, 1.0, bins=4)
    with pytest.raises(InsufficientExceedances):
        one_pass_angular_histogram(s, 1.0, bins=4)


def test_standardized_limit_draws_fill_the_angular_interior(dist, params):
    """Extreme standardized degree pairs put mass in every angular bin.

    The component tail measures concentrate on the open quadrant, so
    the angle of large observations is not pinned to the axes; checked
    across replicate seeds.
    """
    d = derive(params)
    for seed in (101, 202, 303):
        rng = np.random.default_rng(seed)
        i_draws, o_draws = dist.sample(10**6, rng)
        s = standardize((i_draws, o_draws), d)
        radius = s.u + s.v
        threshold = float(np.quantile(radius, 0.999))
        hist = angular_histogram(s, threshold, bins=10)
        assert hist.exceedances >= 900
        assert np.all(hist.masses[1:-1] > 0)
