import math

import mpmath as mp
import numpy as np
import pytest

from heavytail_pa import DEFAULT_SEED, DomainError, LimitDistribution, ModelParams, ResourceLimit
from heavytail_pa import limit_dist
from heavytail_pa.errors import PAIR_BUDGET
from heavytail_pa.limit_dist import BLOCK_BYTES, SAMPLE_BLOCK, draw_block, poisson_counts
from conftest import traced_peak
from oracles import mixture_pmf_table, nb_logpmf, nb_pmf

FAR = ModelParams(0.081, 0.407, 0.512, 16.5, 0.0546)


def mc_pgf(x, y, xs, ys):
    vals = np.exp(xs * np.log(x) + ys * np.log(y)) if x > 0 and y > 0 else None
    if vals is None:
        vals = (x ** xs.astype(float)) * (y ** ys.astype(float))
    return float(vals.mean()), float(vals.std() / np.sqrt(vals.size))


def test_pgf_normalization(dist):
    assert dist.pgf_component(1, 1.0, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert dist.pgf_component(2, 1.0, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert dist.pgf(1.0, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_pgf_component_closed_form_at_origin_margin(dist):
    # with x = 0, y = 1 the integral is a pure power: 1/(1 + c1(delta_in+1))
    assert dist.pgf_component(1, 0.0, 1.0) == pytest.approx(15.0 / 31.0, abs=1e-12)


def test_pgf_vanishes_at_origin(dist):
    assert dist.pgf(0.0, 0.0) == 0.0


def test_nb_pgf_identity_grid():
    """sum_m nb(m; r, 1/z) x^m equals (x + (1-x) z)^-r, r = 0 included.

    The mass is 0 at m < 0, a scalar m gives a scalar, and log nb matches
    40-digit mpmath for m <= 2000: the log Gamma cancellation at large m,
    not the log Gamma routine, bounds its error.
    """
    m = np.arange(0, 6000)
    for r in (0.0, 0.153, 0.5, 1.0, 2.0, 3.7, 6.0, 19.67):
        for z in (1.2, 2.0, 5.0, 20.0):
            pmf = nb_pmf(m, r, 1.0 / z)
            for x in (0.0, 0.3, 0.8, 1.0):
                series = float((pmf * x**m).sum())
                closed = (x + (1.0 - x) * z) ** -r
                assert abs(series - closed) < 1e-12
        assert np.all(nb_pmf(np.array([-3, -1]), r, 0.4) == 0.0)
        assert nb_logpmf(-1, r, 0.4) == -np.inf
        value = nb_pmf(2, r, 0.4)
        assert np.ndim(value) == 0 and value == nb_pmf(np.arange(3), r, 0.4)[2]
    assert nb_pmf(0, 0.0, 0.4) == 1.0 and nb_pmf(1, 0.0, 0.4) == 0.0

    mm = np.arange(0, 2001)
    with mp.workdps(40):
        log_fact = [mp.loggamma(k + 1) for k in mm]
    for r in (0.153, 1.0, 2.0, 6.0, 19.67):
        for p in (0.3, 0.01):
            with mp.workdps(40):
                rr, pp = mp.mpf(r), mp.mpf(p)
                head, step = rr * mp.log(pp) - mp.loggamma(rr), mp.log1p(-pp)
                oracle = [float(mp.loggamma(rr + k) - log_fact[k] + head + k * step) for k in mm]
            assert np.max(np.abs(nb_logpmf(mm, r, p) - oracle)) <= 5e-12


def test_pgf_component_matches_mixture_monte_carlo(dist):
    rng = np.random.default_rng(314)
    xs, ys = dist.sample_component(1, 10**6, rng)
    for x, y in [(0.5, 0.5), (0.2, 0.8), (0.9, 0.3)]:
        mc, se = mc_pgf(x, y, xs, ys)
        quad = dist.pgf_component(1, x, y)
        assert abs(quad - mc) < 4.0 * se


def test_pmf_component_at_origin_equals_pgf(dist):
    assert dist.pmf_component(1, 0, 0) == pytest.approx(
        dist.pgf_component(1, 0.0, 0.0), abs=1e-11
    )


def test_pmf_table_matches_single_cell_quadrature(dist):
    table = dist.pmf_component_table(1, 6, 6)
    for i, j in [(0, 0), (1, 3), (5, 2), (6, 6)]:
        assert table[i, j] == pytest.approx(mixture_pmf_table(dist._kernel(1), [i], [j])[0, 0],
                                            abs=1e-12)


def mp_component_pmf(dist, component, i, j):
    """P[X = i, Y = j] of a component by its mixture integral in s = log(z - 1),
    at 30 digits: in z itself mp.quad misses 3e-14 of the far point's pmf(4, 200)."""
    with mp.workdps(30):
        c1, a = mp.mpf(dist.derived.c1), mp.mpf(dist.derived.a)
        r_in = mp.mpf(dist.params.delta_in) + (component == 1)
        r_out = mp.mpf(dist.params.delta_out) + (component == 2)
        log_coef = (mp.loggamma(r_in + i) - mp.loggamma(r_in) - mp.loggamma(i + 1)
                    + mp.loggamma(r_out + j) - mp.loggamma(r_out) - mp.loggamma(j + 1))

        def f(s):
            log_z = mp.log1p(mp.exp(s))
            log_q = -a * log_z
            return mp.exp(log_coef + s - (1 + 1 / c1 + r_in) * log_z + i * (s - log_z)
                          + r_out * log_q + j * mp.log(-mp.expm1(log_q)))

        return mp.quad(f, mp.linspace(-60, 80, 141)) / c1


def test_far_pmf_cell_matches_mpmath(dist):
    """P[X2 = 2000, Y2 = 5] is about 8e-14: exact to 1e-12 relative, however small."""
    oracle = float(mp_component_pmf(dist, 2, 2000, 5))
    assert dist.pmf_component(2, 2000, 5) == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_far_point_pmf_matches_mpmath():
    """pmf(4, 200) = 4.37890129114715e-7 at the far point, where the quadrature
    table was 4.8e-12 off; the sweep loses 2e-15."""
    dist = LimitDistribution(FAR)
    pb = dist.split
    with mp.workdps(30):
        oracle = float(pb * mp_component_pmf(dist, 1, 3, 200)
                       + (1 - pb) * mp_component_pmf(dist, 2, 4, 199))
    assert oracle == pytest.approx(4.37890129114715e-7, rel=1e-14)
    assert dist.pmf(4, 200) == pytest.approx(oracle, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("point", [(0.3, 0.5, 0.2, 1.0, 1.0), (0.1, 0.1, 0.8, 5.0, 1.0),
                                   (0.3, 0.5, 0.2, 0.0, 2.5)])
def test_pmf_table_partial_sums_equal_cdf_sections(point):
    """P[I <= i, O <= j] = pb F1(i-1, j) + (1-pb) F2(i, j-1), each F a cdf
    section of the order-0 kernel: the NB cdf, not a sum of pmf cells."""
    dist = LimitDistribution(ModelParams(*point))
    sums = dist.pmf_table(30, 30).cumsum(0).cumsum(1)
    cells = [(0, 0), (0, 7), (7, 0), (1, 1), (3, 12), (12, 3), (30, 30)]
    f1 = dist._kernel(1).mass([(i - 1, j) for i, j in cells])
    f2 = dist._kernel(2).mass([(i, j - 1) for i, j in cells])
    for (i, j), m1, m2 in zip(cells, f1, f2):
        assert abs(dist.split * m1 + (1.0 - dist.split) * m2 - sums[i, j]) <= 1e-12


def test_pmf_path_runs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pmf path ran a quadrature")

    monkeypatch.setattr(limit_dist, "trapezoid", refuse)
    dist = LimitDistribution(FAR)
    table = dist.pmf_table(30, 20)
    assert table.shape == (31, 21) and dist.pmf(30, 20) == table[30, 20]
    for component in (1, 2):
        table = dist.pmf_component_table(component, 20, 30)
        assert table.shape == (21, 31) and dist.pmf_component(component, 20, 30) == table[20, 30]
    with pytest.raises(AssertionError, match="quadrature"):
        dist.pgf(0.5, 0.5)


@pytest.mark.parametrize("box", [(1 << 14, 1 << 14), (1 << 27, 0), (0, 1 << 27)])
def test_oversized_pmf_box_is_refused_before_it_is_allocated(dist, box):
    """Past MAX_TABLE_CELLS = 2**27 cells: 1 GiB of float64."""
    for evaluate in (lambda: dist.pmf_table(*box), lambda: dist.pmf_component_table(1, *box),
                     lambda: dist.pmf_component_table(2, *box), lambda: dist.pmf(*box)):
        err, peak = traced_peak(evaluate, ResourceLimit)
        assert "exceeds" in str(err) and peak < 1 << 20


@pytest.mark.parametrize("bad", [-1, 2.5, 3.0, True, np.bool_(False), "3", None])
def test_pmf_indices_must_be_nonnegative_integers(dist, bad):
    for evaluate in (lambda: dist.pmf(bad, 1), lambda: dist.pmf(1, bad),
                     lambda: dist.pmf_component(1, bad, 0), lambda: dist.pmf_component(2, 0, bad),
                     lambda: dist.pmf_table(bad, 3), lambda: dist.pmf_component_table(1, 3, bad)):
        with pytest.raises(DomainError, match="nonnegative integers"):
            evaluate()


def test_pmf_accepts_numpy_integers(dist):
    assert dist.pmf(np.int64(3), np.int32(2)) == dist.pmf(3, 2)
    assert dist.pmf_table(np.uint8(3), 2).shape == (4, 3)


def test_component_mass_capture(dist):
    table = dist.pmf_component_table(1, 200, 200)
    assert table.sum() >= 0.99


def test_pmf_zero_at_origin(dist):
    assert dist.pmf(0, 0) == 0.0


def test_pmf_split_weights(dist):
    val = dist.pmf(1, 1)
    expected = 0.4 * dist.pmf_component(1, 0, 1) + 0.6 * dist.pmf_component(2, 1, 0)
    assert val == pytest.approx(expected, rel=1e-10)


def test_pmf_component_matches_sampler_frequencies(dist):
    rng = np.random.default_rng(2718)
    xs, ys = dist.sample_component(1, 10**6, rng)
    n = xs.size
    for i in range(3):
        for j in range(3):
            freq = float(np.mean((xs == i) & (ys == j)))
            se = np.sqrt(max(freq * (1 - freq), 1e-12) / n)
            assert abs(dist.pmf_component(1, i, j) - freq) < 4.0 * se


def test_pgf_pmf_duality(dist):
    """The pmf table reproduces the pgf once enough mass is captured."""
    table = dist.pmf_table(400, 400)
    assert table.sum() >= 1.0 - 1e-4
    ii = np.arange(table.shape[0])
    jj = np.arange(table.shape[1])
    for x in (0.2, 0.5, 0.8):
        for y in (0.2, 0.5, 0.8):
            series = float(((x**ii)[:, None] * (y**jj)[None, :] * table).sum())
            assert dist.pgf(x, y) == pytest.approx(series, abs=2e-4)


def test_pmf_table_is_nonnegative_and_below_one(dist):
    table = dist.pmf_table(50, 50)
    assert np.all(table >= 0.0)
    assert table.sum() <= 1.0 + 1e-9


def test_sampler_always_has_an_edge_endpoint(dist):
    rng = np.random.default_rng(1)
    i_arr, o_arr = dist.sample(10**5, rng)
    assert int((i_arr + o_arr).min()) >= 1


def test_sampler_branch_frequency(dist):
    rng = np.random.default_rng(51)
    n = 10**6
    i_arr, o_arr = dist.sample(n, rng)
    # branch 1 never has I = 0, so P[I = 0] = (1 - p_B) P[X2 = 0], and
    # P[X2 = 0] is the component-2 pgf at (0, 1)
    p0 = float(np.mean(i_arr == 0))
    expected = 0.6 * dist.pgf_component(2, 0.0, 1.0)
    se = np.sqrt(p0 * (1 - p0) / n)
    assert abs(p0 - expected) < 4 * se


def test_mean_in_degree(dist):
    # E[I] = 1/(1 - beta) = 2 for the canonical parameters, and the
    # one-sided difference of the pgf at (1, 1) agrees with it
    h = 1e-5
    slope = (3 * dist.pgf(1.0, 1.0) - 4 * dist.pgf(1 - h, 1.0) + dist.pgf(1 - 2 * h, 1.0)) / (2 * h)
    assert slope == pytest.approx(2.0, rel=1e-4)
    assert dist.mean_in_degree() == pytest.approx(2.0, rel=1e-12)


def test_mean_in_degree_where_the_pgf_slope_is_singular():
    # alpha_in = 2.22: the pgf slope is singular at 1, a finite difference 8 % low
    p = ModelParams(0.1, 0.8, 0.1, 0.5, 4.0)
    assert LimitDistribution(p).mean_in_degree() == pytest.approx(1 / (p.alpha + p.gamma), rel=1e-12)


def test_component_validation(dist):
    with pytest.raises(DomainError):
        dist.pgf_component(3, 0.5, 0.5)
    with pytest.raises(DomainError):
        dist.pgf_component(1, 1.5, 0.5)
    with pytest.raises(DomainError):
        dist.pmf(-1, 0)


def test_sampling_requires_positive_deltas():
    d = LimitDistribution(ModelParams(0.3, 0.5, 0.2, 1.0, 0.0))
    with pytest.raises(DomainError):
        d.sample(10, np.random.default_rng(0))


def test_seed_to_sample_mapping_is_pinned(dist):
    """The blocked draw layout fixes the sample a seed gives."""
    i_arr, o_arr = dist.sample(20, np.random.default_rng(DEFAULT_SEED))
    assert list(zip(i_arr[:10].tolist(), o_arr[:10].tolist())) == [
        (5, 29), (4, 2), (0, 1), (1, 1), (6, 5), (2, 1), (2, 0), (1, 0), (2, 0), (7, 2)
    ]


@pytest.mark.parametrize("n", [0, 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1])
def test_sample_sizes_and_dtype(dist, n):
    i_arr, o_arr = dist.sample(n, np.random.default_rng(7))
    assert i_arr.dtype == o_arr.dtype == np.int32
    assert i_arr.size == o_arr.size == n
    assert n == 0 or int((i_arr + o_arr).min()) >= 1
    for component in (1, 2):
        xs, ys = dist.sample_component(component, n, np.random.default_rng(7))
        assert xs.dtype == ys.dtype == np.int32 and xs.size == ys.size == n
        assert n == 0 or min(int(xs.min()), int(ys.min())) >= 0


def test_full_blocks_do_not_depend_on_the_sample_size(dist):
    i_long, o_long = dist.sample(SAMPLE_BLOCK + 1, np.random.default_rng(7))
    i_short, o_short = dist.sample(SAMPLE_BLOCK, np.random.default_rng(7))
    assert np.array_equal(i_long[:SAMPLE_BLOCK], i_short)
    assert np.array_equal(o_long[:SAMPLE_BLOCK], o_short)


def test_sample_is_independent_of_the_worker_count(dist, monkeypatch):
    n = 3 * SAMPLE_BLOCK + 5
    i_all, o_all = dist.sample(n, np.random.default_rng(11))
    # serial reconstruction from the same per-block child streams
    rng = np.random.default_rng(11)
    seeds = np.random.SeedSequence(rng.integers(2**63, size=2)).spawn(4)
    i_ref, o_ref = np.empty(n, np.int32), np.empty(n, np.int32)
    for b, seed in enumerate(seeds):
        part = slice(b * SAMPLE_BLOCK, (b + 1) * SAMPLE_BLOCK)
        draw_block(np.random.default_rng(seed), dist.split, 1.0, 1.0, dist.derived.c1, dist.derived.a,
                   i_ref[part], o_ref[part])
    assert i_all.tobytes() == i_ref.tobytes() and o_all.tobytes() == o_ref.tobytes()
    for cores in (1, 3):
        monkeypatch.setattr(limit_dist, "usable_cores", lambda: cores)
        i_arr, o_arr = dist.sample(n, np.random.default_rng(11))
        assert i_arr.tobytes() == i_all.tobytes() and o_arr.tobytes() == o_all.tobytes()


@pytest.mark.parametrize("lam", [1e-3, 0.3, 3.0, 30.0, 3e3])
def test_counts_from_the_first_two_arrivals_are_poisson(lam):
    """The count rule alone: plus + N with N ~ Poisson(lam), each of the
    frequencies of N = 0..10 within 6 standard errors of the Poisson pmf.

    A cell seen once where it is expected n p << 1 times (N = 5 at
    lam = 30: n p = 0.019) is 1/n off, however small its standard error,
    so each cell has one count of slack on top of its 6 standard errors.
    """
    n = 10**6
    plus = np.arange(n) % 3 == 0
    out = np.empty(n, np.int32)
    poisson_counts(np.random.default_rng(23), np.full(n, lam), plus, np.empty(n), out)
    counts = out - plus
    assert counts.min() >= 0
    freq = np.bincount(counts, minlength=11)[:11] / n
    k = np.arange(11)
    pmf = np.exp(k * np.log(lam) - lam - np.array([math.lgamma(i + 1.0) for i in k]))
    assert np.all(np.abs(freq - pmf) <= 6 * np.sqrt(pmf * (1 - pmf) / n) + 1 / n)
    assert abs(counts.mean() - lam) <= 6 * math.sqrt(lam / n)


def test_sampled_count_above_int32_is_a_resource_limit():
    """With c1 = 4, Z = U^-4 reaches 1e19 in one block: the count must not wrap."""
    i_out = np.full(SAMPLE_BLOCK, -1, np.int32)
    o_out = np.full(SAMPLE_BLOCK, -1, np.int32)
    with pytest.raises(ResourceLimit, match="exceeds the int32 range"):
        draw_block(np.random.default_rng(3), 0.5, 1.0, 1.0, 4.0, 1.0, i_out, o_out)
    assert np.all(i_out == -1)


def test_sample_past_the_draw_budget_is_refused_before_it_is_allocated(dist, monkeypatch):
    """PAIR_BUDGET + 1 draws would ask for 1.6 GB; np.empty, the first
    allocation, fails the test if it is reached."""
    def refuse(*args, **kwargs):
        raise AssertionError("allocated past the draw budget")

    monkeypatch.setattr(limit_dist.np, "empty", refuse)
    rng = np.random.default_rng(0)
    for draw in (lambda: dist.sample(PAIR_BUDGET + 1, rng),
                 lambda: dist.sample_component(1, PAIR_BUDGET + 1, rng),
                 lambda: dist.sample_component(2, PAIR_BUDGET + 1, rng)):
        with pytest.raises(ResourceLimit, match="exceeds the draw budget 200000000"):
            draw()


def test_sample_memory_stays_under_its_stated_peak(dist):
    """Peak: the 8 n bytes returned plus BLOCK_BYTES per worker thread."""
    n = 10**6
    workers = min(limit_dist.usable_cores(), -(-n // SAMPLE_BLOCK))
    _, peak = traced_peak(lambda: dist.sample(n, np.random.default_rng(5)))
    assert peak <= 8 * n + workers * BLOCK_BYTES


def test_block_memory_stays_under_its_stated_peak(dist):
    """One block peaks at 35.0 B per draw (tracemalloc); the gate is the
    42.1 B per draw of the inverse-cdf kernel it replaced."""
    i_out, o_out = np.empty(SAMPLE_BLOCK, np.int32), np.empty(SAMPLE_BLOCK, np.int32)
    rng = np.random.default_rng(5)
    _, peak = traced_peak(
        lambda: draw_block(rng, dist.split, 1.0, 1.0, dist.derived.c1, dist.derived.a, i_out, o_out))
    assert peak <= 42.1 * SAMPLE_BLOCK
