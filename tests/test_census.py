import numpy as np
import pytest

from heavytail_pa import (
    DegenerateTailSample,
    DirectedMultigraph,
    EmptyInput,
    InsufficientData,
    JointCountTable,
    JointPMF,
    NonPositiveSample,
    ResourceLimit,
    compare_pmf,
    degree_counts,
    empirical_pmf,
    hill_estimate,
    loglog_slope,
)


def test_empirical_pmf_single_cell():
    pmf = empirical_pmf(JointCountTable(np.array([[0, 0], [0, 1]])))
    assert pmf.get(1, 1) == 1.0 and pmf.total == 1.0


def test_empirical_pmf_two_cells():
    counts = JointCountTable(np.array([[0, 1], [1, 0]]))
    pmf = empirical_pmf(counts)
    assert pmf.get(0, 1) == 0.5 and pmf.get(1, 0) == 0.5


def test_empirical_pmf_normalizes(graphs_1m):
    pmf = empirical_pmf(degree_counts(graphs_1m[0]))
    assert pmf.total == pytest.approx(1.0, abs=1e-12)


def test_empirical_pmf_rejects_empty():
    with pytest.raises(EmptyInput):
        empirical_pmf(JointCountTable(np.zeros((3, 3), np.int64)))


def test_mean_degree_matches_edge_node_ratio(graphs_1m):
    # sum_i i p_i(in) = n/N, and n/N approaches 1/(1-beta) = 2
    g = graphs_1m[0]
    pmf = empirical_pmf(degree_counts(g))
    marginal = pmf.marginal("in")
    mean_in = float((np.arange(marginal.size) * marginal).sum())
    assert mean_in == pytest.approx(g.edge_count / g.node_count, rel=1e-12)
    assert abs(mean_in / 2.0 - 1.0) < 0.02


def test_hill_hand_example():
    fit = hill_estimate([8.0, 4.0, 2.0, 1.0], k=2)
    # mean of log(8/2), log(4/2) is 1.5 log 2
    assert fit.index_estimate == pytest.approx(1.0 / (1.5 * np.log(2.0)), rel=1e-12)
    assert fit.k_used == 2
    assert fit.stderr == pytest.approx(fit.index_estimate / np.sqrt(2.0), rel=1e-12)


def test_hill_consistent_on_pareto_quantile_grid():
    alpha = 1.7
    n, k = 10**5, 10**3
    m = np.arange(1, n + 1)
    samples = (m / (n + 1.0)) ** (-1.0 / alpha)
    fit = hill_estimate(samples, k)
    assert abs(fit.index_estimate / alpha - 1.0) < 0.05


def test_hill_scale_invariance():
    rng = np.random.default_rng(2)
    samples = rng.pareto(2.0, 5000) + 1.0
    a = hill_estimate(samples, 100).index_estimate
    b = hill_estimate(samples * 37.5, 100).index_estimate
    assert a == pytest.approx(b, rel=1e-12)


def test_hill_errors():
    with pytest.raises(InsufficientData):
        hill_estimate([1.0, 2.0, 3.0], k=3)
    with pytest.raises(NonPositiveSample):
        hill_estimate([3.0, 2.0, 0.0, 5.0], k=2)
    with pytest.raises(DegenerateTailSample):
        hill_estimate([4.0, 4.0, 4.0, 4.0], k=2)


def test_loglog_exact_power_law():
    i = np.arange(10, 101)
    masses = np.zeros(101)
    masses[10:101] = i ** -3.0
    fit = loglog_slope(masses, i_min=10)
    assert fit.index_estimate == pytest.approx(3.0, abs=1e-9)


def test_loglog_slowly_varying_perturbation():
    alpha = 2.5
    i = np.arange(1, 2001)
    masses = np.zeros(2001)
    masses[1:] = 0.4 * i ** -alpha * (1.0 + 1.0 / i)
    fit = loglog_slope(masses, i_min=50)
    assert abs(fit.index_estimate - alpha) < 0.05


def test_loglog_accepts_dict_input():
    table = {i: i ** -2.0 for i in range(5, 40)}
    fit = loglog_slope(table, i_min=5)
    assert fit.index_estimate == pytest.approx(2.0, abs=1e-9)


def test_loglog_needs_support():
    with pytest.raises(InsufficientData):
        loglog_slope({10: 0.1, 20: 0.05, 30: 0.02}, i_min=5)


def test_compare_identical_pmfs():
    p = JointPMF(np.array([[0.25, 0.25], [0.25, 0.25]]))
    rep = compare_pmf(p, p, 1, 1)
    assert rep.tv_distance == 0.0 and rep.max_abs_diff == 0.0


def test_compare_disjoint_unit_masses():
    p = JointPMF(np.array([[1.0, 0.0], [0.0, 0.0]]))
    q = JointPMF(np.array([[0.0, 0.0], [0.0, 1.0]]))
    rep = compare_pmf(p, q, 1, 1)
    assert rep.tv_distance == pytest.approx(1.0)


def test_compare_handles_region_beyond_support():
    p = JointPMF(np.array([[1.0]]))
    q = JointPMF(np.array([[0.5, 0.5]]))
    rep = compare_pmf(p, q, 2, 2)
    assert rep.tv_distance == pytest.approx(0.5)


def test_count_table_csv_roundtrip(tmp_path, graphs_1m):
    counts = degree_counts(graphs_1m[0])
    path = tmp_path / "counts.csv"
    counts.to_csv(path, metadata={"seed": 1})
    back = JointCountTable.from_csv(path)
    assert back.total_nodes == counts.total_nodes
    assert np.array_equal(back.counts, counts.counts)


def test_degree_counts_refuses_a_huge_table():
    # one node with 2**14 self-loops needs a (2**14 + 1)**2-cell table
    loops = np.zeros(2**14, np.int64)
    g = DirectedMultigraph.from_edges(1, loops, loops)
    with pytest.raises(ResourceLimit):
        degree_counts(g)
