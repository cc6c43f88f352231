"""Acceptance suite: one test per criterion, each printing a verdict line.

Canonical parameters: alpha=0.3, beta=0.5, gamma=0.2, delta_in=delta_out=1,
giving alpha_in = 2.875 and alpha_out = 22/7.  Heavy shared artifacts
(million-edge graphs, ten-million-draw samples) come from session
fixtures in conftest.py.  Run with `pytest tests/test_acceptance.py -v -s`
to see the verdict lines inline.
"""

import time

import numpy as np

from heavytail_pa import (
    TailMeasure,
    compare_pmf,
    default_hill_k,
    degree_counts,
    empirical_pmf,
    hill_estimate,
    truncation_check,
    uhat_check,
)
from heavytail_pa.census import JointPMF
from oracles import nb_pmf

ALPHA_IN = 2.875
ALPHA_OUT = 22.0 / 7.0


def _verdict(num, ok, detail):
    print(f"\nCRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_generating_function_normalization(dist):
    t0 = time.time()
    vals = [dist.pgf_component(1, 1.0, 1.0), dist.pgf_component(2, 1.0, 1.0), dist.pgf(1.0, 1.0)]
    elapsed = time.time() - t0
    errs = [abs(v - 1.0) for v in vals]
    ok = max(errs) < 1e-10 and elapsed < 1.0
    _verdict(1, ok, f"pgf values {vals} (max dev {max(errs):.2e}), {elapsed:.2f}s")


def test_criterion_02_mixture_representation_oracle(dist, component1_draws_10m):
    t0 = time.time()
    # algebraic NB-pgf identity on a (z, x, r) grid
    m = np.arange(0, 8000)
    max_dev = 0.0
    for z in (1.5, 3.0, 12.0):
        for x in (0.2, 0.6, 0.95):
            for r in (0.5, 1.0, 2.0, 3.5):
                series = float((nb_pmf(m, r, 1.0 / z) * x**m).sum())
                closed = (x + (1.0 - x) * z) ** -r
                max_dev = max(max_dev, abs(series - closed))
    identity_ok = max_dev < 1e-12

    # Monte-Carlo pgf of the mixture vs quadrature at 9 grid points
    xs, ys = component1_draws_10m
    worst = 0.0
    for x in (0.2, 0.5, 0.8):
        for y in (0.2, 0.5, 0.8):
            vals = np.exp(xs * np.log(x) + ys * np.log(y))
            mc = float(vals.mean())
            se = float(vals.std() / np.sqrt(vals.size))
            dev = abs(dist.pgf_component(1, x, y) - mc) / se
            worst = max(worst, dev)
    elapsed = time.time() - t0
    ok = identity_ok and worst < 4.0 and elapsed < 60.0
    _verdict(2, ok, f"identity dev {max_dev:.2e}, worst MC deviation {worst:.2f} SE, {elapsed:.1f}s")


def test_criterion_03_simulation_matches_limit_law(dist, graphs_1m):
    t0 = time.time()
    analytic = JointPMF(dist.pmf_table(10, 10))
    tvs = []
    for g in graphs_1m:
        emp = empirical_pmf(degree_counts(g))
        tvs.append(compare_pmf(emp, analytic, 10, 10).tv_distance)
    elapsed = time.time() - t0
    ok = all(tv < 0.02 for tv in tvs) and elapsed < 120.0
    _verdict(3, ok, f"TV distances {[f'{tv:.4f}' for tv in tvs]} on the 10x10 box, {elapsed:.1f}s")


def test_criterion_04_node_count_limit(graphs_1m):
    g = graphs_1m[0]
    ratio = g.node_count / g.edge_count
    rel = abs(ratio / 0.5 - 1.0)
    _verdict(4, rel < 0.01, f"N/n = {ratio:.5f} vs 1-beta = 0.5 (rel dev {rel:.4f})")


def test_criterion_05_marginal_exponents(graphs_1m, dist):
    t0 = time.time()
    g = graphs_1m[0]
    results = []
    for name, values, target in (
        ("graph in", g.in_degree, ALPHA_IN - 1.0),
        ("graph out", g.out_degree, ALPHA_OUT - 1.0),
    ):
        positive = values[values > 0].astype(np.float64)
        fit = hill_estimate(positive, default_hill_k(positive.size))
        results.append((name, fit.index_estimate, target))
    rng = np.random.default_rng(20240901)
    i_draws, o_draws = dist.sample(10**6, rng)
    for name, values, target in (
        ("sampled I", i_draws, ALPHA_IN - 1.0),
        ("sampled O", o_draws, ALPHA_OUT - 1.0),
    ):
        positive = values[values > 0].astype(np.float64)
        fit = hill_estimate(positive, default_hill_k(positive.size))
        results.append((name, fit.index_estimate, target))
    elapsed = time.time() - t0
    devs = [abs(est / target - 1.0) for _, est, target in results]
    detail = ", ".join(f"{n}: {e:.3f} vs {t:.3f}" for (n, e, t), d in zip(results, devs))
    ok = max(devs) < 0.15 and elapsed < 120.0
    _verdict(5, ok, f"{detail} (max dev {max(devs):.1%}), {elapsed:.1f}s")


def test_criterion_06_tail_density_homogeneity(params):
    t0 = time.time()
    tm = TailMeasure(params)
    d = tm.derived
    power = 1.0 + d.c1 + d.c2
    cs = np.geomspace(0.1, 10.0, 5)
    xs = np.geomspace(0.3, 3.0, 5)
    ys = np.geomspace(0.3, 3.0, 5)
    worst = 0.0
    for component in (1, 2, "combined"):
        for c in cs:
            for x in xs:
                for y in ys:
                    ref = tm.density(component, x, y)
                    scaled = tm.density(component, c**d.c1 * x, c**d.c2 * y) * c**power
                    worst = max(worst, abs(scaled / ref - 1.0))
    elapsed = time.time() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    _verdict(6, ok, f"max homogeneity error {worst:.2e} over 5x5x5 grid x 3 components, {elapsed:.1f}s")


def test_criterion_07_closed_form_marginal_mass(params):
    tm = TailMeasure(params)
    worst = 0.0
    for x_lo in (0.5, 1.0, 2.0, 5.0):
        quad_val = tm.rect_mass(1, x_lo, 0.0)
        closed = tm.marginal_mass_closed_form(1, x_lo)
        worst = max(worst, abs(quad_val / closed - 1.0))
    _verdict(7, worst < 1e-8, f"max relative deviation {worst:.2e} at x_lo in {{0.5, 1, 2, 5}}")


def test_criterion_08_tauberian_transform_limit(params, deriv_measure):
    t0 = time.time()
    report = uhat_check(params, k=3, measure=deriv_measure)
    elapsed = time.time() - t0
    finals = [r for r in report["rows"] if r["h"] == 1e6]
    detail = ", ".join(
        f"lam=({r['lambda1']},{r['lambda2']}): {r['rel_err']:.2%}" for r in finals
    )
    ok = report["passed"] and elapsed < 300.0
    _verdict(8, ok, f"final errors {detail}, monotone decrease over h grid, {elapsed:.0f}s")


def test_criterion_09_truncation_regularity(params, deriv_measure):
    t0 = time.time()
    report = truncation_check(params, k=3, measure=deriv_measure)
    elapsed = time.time() - t0
    ratios = [r["ratio_to_y0"] for r in report["rows"] if r["y"] == 8.0]
    ok = report["passed"]
    _verdict(9, ok, f"tail/full ratios at y=8: {[f'{r:.2e}' for r in ratios]}, {elapsed:.0f}s")


def test_criterion_10_tail_measure_vs_sampler(params, limit_draws_10m):
    t0 = time.time()
    tm = TailMeasure(params)
    d = tm.derived
    i_draws, o_draws = limit_draws_10m
    h = 1e4
    thr_i = h**d.c1
    thr_o = h**d.c2
    frac = float(np.mean((i_draws > thr_i) & (o_draws > thr_o)))
    empirical = h * frac
    analytic = tm.rect_mass("combined", 1.0, 1.0)
    rel = abs(empirical / analytic - 1.0)
    elapsed = time.time() - t0
    ok = rel < 0.10 and elapsed < 180.0
    _verdict(
        10,
        ok,
        f"h*P[exceed] = {empirical:.4f} vs combined mass {analytic:.4f} "
        f"(rel dev {rel:.2%}, {int(frac * i_draws.size)} exceedances), {elapsed:.0f}s",
    )
