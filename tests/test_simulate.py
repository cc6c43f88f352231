import struct

import numpy as np
import pytest

from heavytail_pa import (
    DEFAULT_SEED,
    DirectedMultigraph,
    GrowthCase,
    InvalidSeed,
    ModelParams,
    ResourceLimit,
    SeedSpec,
    degree_counts,
    grow,
    seed_graph,
    simulate,
    step,
)
from heavytail_pa.simulate import CHUNK_STEPS, DEFAULT_EDGE_BUDGET, FORMAT_VERSION, MAGIC, _choose

P = ModelParams(0.3, 0.5, 0.2, 1.0, 1.0)
# zero deltas: every choice is an endpoint of an earlier edge, so most
# endpoints of a chunk follow chains of references into the same chunk
NEAR_BETA = ModelParams(0.001, 0.998, 0.001, 0.0, 0.0)


def test_default_seed_graph_is_self_loop():
    g = seed_graph()
    assert g.node_count == 1 and g.edge_count == 1
    assert list(g.in_degree) == [1] and list(g.out_degree) == [1]


def test_explicit_seed_single_edge():
    g = seed_graph(SeedSpec.single_edge())
    assert g.node_count == 2 and g.edge_count == 1
    assert list(g.in_degree) == [0, 1]
    assert list(g.out_degree) == [1, 0]


def test_zero_edge_seed_needs_positive_deltas():
    zero_delta = ModelParams(0.3, 0.5, 0.2, 0.0, 1.0)
    with pytest.raises(InvalidSeed):
        seed_graph(SeedSpec.nodes_only(1), zero_delta)
    # fine when both deltas are positive
    g = seed_graph(SeedSpec.nodes_only(2), P)
    assert g.edge_count == 0 and g.node_count == 2


def choose_by(graph, delta, rng, which):
    """One preferential draw by in- or out-degree, as step() and grow() make it."""
    endpoint = graph._heads if which == "in" else graph._tails
    return _choose(rng.random(), rng.random(), endpoint, graph.edge_count, graph.node_count, delta)


def test_choose_single_node_graph():
    g = seed_graph()
    rng = np.random.default_rng(0)
    assert choose_by(g, 1.0, rng, "in") == 0
    assert choose_by(g, 1.0, rng, "out") == 0


def test_choose_by_in_zero_delta_picks_positive_degree():
    g = seed_graph(SeedSpec.single_edge())
    rng = np.random.default_rng(1)
    assert all(choose_by(g, 0.0, rng, "in") == 1 for _ in range(200))


def test_choose_by_in_two_node_probability():
    # edge 0 -> 1, delta_in = 1: P(node 1) = (1+1)/(1+2) = 2/3
    g = seed_graph(SeedSpec.single_edge())
    rng = np.random.default_rng(7)
    n = 10**6
    hits = sum(choose_by(g, 1.0, rng, "in") == 1 for _ in range(n))
    p = 2.0 / 3.0
    sigma = np.sqrt(p * (1 - p) * n)
    assert abs(hits - p * n) < 3 * sigma


def test_choose_by_out_two_node_probability():
    g = seed_graph(SeedSpec.single_edge())
    rng = np.random.default_rng(8)
    n = 10**6
    hits = sum(choose_by(g, 1.0, rng, "out") == 0 for _ in range(n))
    p = 2.0 / 3.0
    sigma = np.sqrt(p * (1 - p) * n)
    assert abs(hits - p * n) < 3 * sigma


def test_choose_mixture_matches_formula_exactly():
    """Chi-square test on a fixed 5-node graph against the exact law."""
    tails = [0, 1, 2, 2, 3]
    heads = [1, 2, 2, 3, 4]
    g = DirectedMultigraph.from_edges(5, tails, heads)
    delta = 0.7
    n, N = g.edge_count, g.node_count
    expected_p = (g.in_degree + delta) / (n + delta * N)
    rng = np.random.default_rng(11)
    draws = 10**6
    observed = np.zeros(N)
    for _ in range(draws):
        observed[choose_by(g, delta, rng, "in")] += 1
    expected = expected_p * draws
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    # 99.9% quantile of chi-square with 4 degrees of freedom
    assert chi2 < 18.47


def test_step_alpha_only_always_adds_source_node():
    g = seed_graph()
    rng = np.random.default_rng(2)
    p = ModelParams(0.999999999999, 0.0, 0.0, 1.0, 1.0)
    for _ in range(50):
        out = step(g, p, rng)
        assert out.case is GrowthCase.ALPHA
        assert out.new_node == out.edge[0]
    assert g.node_count == 51


def test_step_beta_only_keeps_node_count():
    g = seed_graph()
    rng = np.random.default_rng(3)
    p = ModelParams(0.0, 0.999999999999, 0.0, 1.0, 1.0)
    for _ in range(50):
        out = step(g, p, rng)
        assert out.case is GrowthCase.BETA and out.new_node is None
    assert g.node_count == 1


def test_step_case_frequencies():
    g = seed_graph()
    rng = np.random.default_rng(4)
    n = 10**6
    counts = {GrowthCase.ALPHA: 0, GrowthCase.BETA: 0, GrowthCase.GAMMA: 0}
    for _ in range(n):
        counts[step(g, P, rng).case] += 1
    for case, prob in ((GrowthCase.ALPHA, 0.3), (GrowthCase.BETA, 0.5), (GrowthCase.GAMMA, 0.2)):
        sigma = np.sqrt(prob * (1 - prob) * n)
        assert abs(counts[case] - prob * n) < 4 * sigma


def test_graph_invariants_after_growth():
    g = simulate(20000, P, seed=99)
    g.check_invariants()


@pytest.mark.parametrize(
    "params, spec, targets",
    [
        (P, None, (2000,)),
        (P, None, (CHUNK_STEPS + 5000,)),
        (P, SeedSpec.nodes_only(3), (5000,)),
        (NEAR_BETA, None, (20000,)),
        (P, None, (3000, CHUNK_STEPS + 4000)),
    ],
    ids=["self-loop-2000", "crosses-chunk", "zero-edge-seed", "near-pure-beta", "split-target"],
)
def test_grow_matches_repeated_step(params, spec, targets):
    """grow() in one call, grow() in several calls and repeated step() agree draw for draw."""
    split = seed_graph(spec, params)
    rng = np.random.default_rng(42)
    for target in targets:
        grow(split, target, params, rng)
    whole = grow(seed_graph(spec, params), targets[-1], params, np.random.default_rng(42))
    stepped = seed_graph(spec, params)
    rng = np.random.default_rng(42)
    while stepped.edge_count < targets[-1]:
        step(stepped, params, rng)
    for g in (split, whole):
        assert g.node_count == stepped.node_count
        assert np.array_equal(g.tails, stepped.tails) and np.array_equal(g.heads, stepped.heads)
        assert np.array_equal(g.in_degree, stepped.in_degree)
        assert np.array_equal(g.out_degree, stepped.out_degree)
        g.check_invariants()


def test_seed_to_graph_mapping_is_pinned():
    """The five-uniform draw layout fixes the graph a seed gives."""
    g = simulate(20, P, seed=DEFAULT_SEED)
    assert g.tails[:10].tolist() == [0, 0, 0, 0, 0, 0, 3, 0, 4, 0]
    assert g.heads[:10].tolist() == [0, 0, 1, 2, 0, 0, 1, 1, 0, 2]


def test_grow_is_deterministic():
    a = simulate(5000, P, seed=123)
    b = simulate(5000, P, seed=123)
    assert np.array_equal(a.tails, b.tails) and np.array_equal(a.heads, b.heads)


def test_grow_to_current_size_is_identity():
    g = simulate(100, P, seed=1)
    tails = g.tails.copy()
    grow(g, 100, P, np.random.default_rng(5))
    assert np.array_equal(g.tails, tails)


def test_grow_respects_edge_budget():
    g = seed_graph()
    with pytest.raises(ResourceLimit):
        grow(g, DEFAULT_EDGE_BUDGET + 1, P, np.random.default_rng(0))


def test_node_count_limit(graphs_1m):
    g = graphs_1m[0]
    ratio = g.node_count / g.edge_count
    assert abs(ratio / (1.0 - P.beta) - 1.0) < 0.01


def test_node_count_limit_other_params():
    q = ModelParams(0.1, 0.7, 0.2, 0.5, 2.0)
    g = simulate(200_000, q, seed=31)
    ratio = g.node_count / g.edge_count
    assert abs(ratio / (1.0 - q.beta) - 1.0) < 0.01


def test_degree_counts_examples():
    g = seed_graph()
    t = degree_counts(g)
    assert t.get(1, 1) == 1 and t.total_nodes == 1
    g2 = seed_graph(SeedSpec.single_edge())
    t2 = degree_counts(g2)
    assert t2.get(0, 1) == 1 and t2.get(1, 0) == 1


def test_degree_sum_identity():
    g = simulate(3000, P, seed=77)
    t = degree_counts(g)
    ii, jj = np.indices(t.counts.shape)
    assert (ii * t.counts).sum() == g.edge_count
    assert (jj * t.counts).sum() == g.edge_count


def test_binary_roundtrip(tmp_path):
    g = simulate(1234, P, seed=6)
    path = tmp_path / "graph.bin"
    g.to_binary(path)
    h = DirectedMultigraph.from_binary(path)
    assert h.node_count == g.node_count and h.edge_count == g.edge_count
    assert np.array_equal(h.tails, g.tails) and np.array_equal(h.heads, g.heads)
    h.check_invariants()


def test_storage_is_int32(tmp_path):
    g = simulate(1000, P, seed=6)
    path = tmp_path / "graph.bin"
    g.to_binary(path)
    h = DirectedMultigraph.from_binary(path)
    for graph in (g, h):
        for a in (graph.tails, graph.heads, graph.in_degree, graph.out_degree):
            assert a.dtype == np.int32
    assert degree_counts(g).counts.dtype == np.int32


def test_from_binary_rejects_ids_beyond_int32(tmp_path):
    path = tmp_path / "huge.bin"
    path.write_bytes(MAGIC + struct.pack("<IQQ", FORMAT_VERSION, 2**31, 0))
    with pytest.raises(ResourceLimit):
        DirectedMultigraph.from_binary(path)
    path.write_bytes(MAGIC + struct.pack("<IQQ", FORMAT_VERSION, 2, 1) + struct.pack("<II", 0, 2**31))
    with pytest.raises(ValueError):
        DirectedMultigraph.from_binary(path)


def test_from_edges_rejects_missing_nodes():
    with pytest.raises(ValueError):
        DirectedMultigraph.from_edges(2, [0, 1], [1, 2])
    with pytest.raises(ValueError):
        DirectedMultigraph.from_edges(2, [-1], [0])
