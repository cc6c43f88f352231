import numpy as np
import pytest

from heavytail_pa import (
    DomainError,
    DEFAULT_SEED,
    DegenerateTailSample,
    DirectedMultigraph,
    EmptyInput,
    HeavytailError,
    InsufficientData,
    JointCountTable,
    JointPMF,
    ModelParams,
    NonPositiveSample,
    ResourceLimit,
    compare_pmf,
    degree_counts,
    empirical_pmf,
    hill_estimate,
    simulate,
)
from conftest import traced_peak


def test_empirical_pmf_single_cell():
    pmf = empirical_pmf(JointCountTable(np.array([[0, 0], [0, 1]])))
    assert pmf.get(1, 1) == 1.0 and pmf.total == 1.0


def test_empirical_pmf_two_cells():
    counts = JointCountTable(np.array([[0, 1], [1, 0]]))
    pmf = empirical_pmf(counts)
    assert pmf.get(0, 1) == 0.5 and pmf.get(1, 0) == 0.5


@pytest.mark.parametrize("make, message", [
    (lambda: JointCountTable(np.ones(3, np.int64)), "counts must be a 2-d table"),
    (lambda: JointCountTable(np.array([[1, -1]])), r"counts must lie in \[0, 2147483647\]"),
    (lambda: JointCountTable(np.array([[1, 2**31]])), r"counts must lie in \[0, 2147483647\]"),
    (lambda: JointPMF(np.full(3, 0.25)), "masses must be a 2-d table"),
    (lambda: JointPMF(np.array([[0.5, -0.1]])), "masses must be nonnegative"),
    (lambda: JointPMF(np.array([[0.5, 0.6]])), "total mass 1.1 exceeds 1"),
    (lambda: JointCountTable(np.eye(2, dtype=np.int64)).marginal("x"), "which must be 'in' or 'out'"),
], ids=["counts-1d", "counts-negative", "counts-above-int32", "masses-1d", "masses-negative",
        "masses-above-1", "marginal-name"])
def test_tables_refuse_what_they_cannot_hold(make, message):
    with pytest.raises(ValueError, match=message):
        make()


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


def test_degree_counts_holds_a_huge_degree_as_one_cell():
    # one node with 2**14 self-loops: one cell, where a dense table needs (2**14 + 1)**2 cells
    loops = np.zeros(2**14, np.int64)
    g = DirectedMultigraph(1, loops, loops)
    t = degree_counts(g)
    assert (t.i.tolist(), t.j.tolist(), t.values.tolist()) == ([2**14], [2**14], [1])
    assert t.shape == (2**14 + 1, 2**14 + 1) and t.get(2**14, 2**14) == 1 and t.total_nodes == 1
    assert t.marginal("in")[-1] == 1 and t.marginal("out").sum() == 1
    pmf = empirical_pmf(t)
    assert pmf.get(2**14, 2**14) == 1.0 and pmf.box(10, 10).sum() == 0.0
    with pytest.raises(ResourceLimit):  # the dense view alone is capped
        t.counts


def test_census_where_a_dense_table_cannot_be_held():
    # in- and out-degree grow like different powers of n: at 1e6 edges the
    # largest are 60,320 and 242,958, so a dense table needs 1.5e10 cells
    g = simulate(10**6, ModelParams(0.053, 0.793, 0.154, 0.406, 0.097), seed=DEFAULT_SEED)
    t = degree_counts(g)
    assert t.shape == (60_321, 242_959)
    assert 0 < t.values.size < 5_000
    assert t.total_nodes == g.node_count
    assert int((t.i * t.values).sum()) == g.edge_count
    assert int((t.j * t.values).sum()) == g.edge_count
    assert np.array_equal(t.marginal("in"), np.bincount(g.in_degree))
    assert np.array_equal(t.marginal("out"), np.bincount(g.out_degree))


def test_census_memory_is_stated_per_node(graphs_1m):
    # degree_counts states a peak under 20 bytes per node; normalizing adds only O(cells)
    g = graphs_1m[0]
    _, peak = traced_peak(lambda: empirical_pmf(degree_counts(g)))
    assert peak < 20 * g.node_count


def test_cells_are_unique_and_row_major(tmp_path):
    # repeated rows add up, zero rows drop but still span the shape, and the
    # cells come back in the order np.nonzero gives the dense table
    path = tmp_path / "counts.csv"
    path.write_text("i,j,N_ij\n2,0,1\n0,3,2\n2,0,4\n5,1,0\n0,1,1\n")
    t = JointCountTable.from_csv(path)
    dense = np.zeros((6, 4), np.int32)
    dense[2, 0], dense[0, 3], dense[0, 1] = 5, 2, 1
    assert t.shape == (6, 4) and np.array_equal(t.counts, dense)
    cells = (t.i.tolist(), t.j.tolist(), t.values.tolist())
    assert cells == ([0, 0, 2], [1, 3, 0], [1, 2, 5])
    back = JointCountTable(dense)
    assert (back.i.tolist(), back.j.tolist(), back.values.tolist()) == cells
    assert t.marginal("in").tolist() == [3, 0, 5, 0, 0, 0]
    assert t.marginal("out").tolist() == [5, 1, 0, 2]


def test_a_marginal_is_held_once():
    """The counts are added into the int64 marginal itself, so a marginal
    over 4,000,001 degrees peaks near its own 30.5 MiB."""
    size = 4_000_001
    t = JointCountTable._from_pairs(np.array([0, size - 1, 7, 7]), np.array([1, 0, 1, 2]))
    marginal, peak = traced_peak(lambda: t.marginal("in"))
    assert marginal.dtype == np.int64 and marginal.size == size
    assert marginal[[0, 7, size - 1]].tolist() == [1, 2, 1] and marginal.sum() == 4
    assert peak <= 8 * size + (1 << 20)


def test_count_file_limits(tmp_path):
    # a degree is an int32; a marginal spans every degree, so it is a dense view too
    path = tmp_path / "counts.csv"
    path.write_text("i,j,N_ij\n2147483648,0,1\n")
    with pytest.raises(HeavytailError, match="degree above 2147483647"):
        JointCountTable.from_csv(path)
    path.write_text("i,j,N_ij\n200000000,3,1\n1,0,2\n")
    t = JointCountTable.from_csv(path)
    assert t.total_nodes == 3 and t.marginal("out").tolist() == [2, 0, 0, 1]
    with pytest.raises(ResourceLimit):
        t.marginal("in")
