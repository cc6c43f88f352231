import hashlib
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from heavytail_pa import (
    DEFAULT_SEED,
    DirectedMultigraph,
    InvalidSeed,
    ModelParams,
    ResourceLimit,
    degree_counts,
    grow,
    simulate,
)
from heavytail_pa import growth
from heavytail_pa.errors import PAIR_BUDGET
from heavytail_pa.growth import (
    CHUNK_STEPS,
    FORMAT_VERSION,
    MAGIC,
    NODE_BUDGET,
    _endpoints,
)

from conftest import traced_peak
from oracles import step

P = ModelParams(0.3, 0.5, 0.2, 1.0, 1.0)
# zero deltas: every choice is an endpoint of an earlier edge, so most
# endpoints of a chunk follow chains of references into the same chunk
NEAR_BETA = ModelParams(0.001, 0.998, 0.001, 0.0, 0.0)


def self_loop():
    """The graph simulate() grows from: one node carrying one self-loop."""
    return DirectedMultigraph(1, [0], [0])


def single_edge():
    """Two nodes joined by the edge 0 -> 1."""
    return DirectedMultigraph(2, [0], [1])


def test_default_seed_graph_is_self_loop():
    g = simulate(1, P, seed=0)
    assert g.node_count == 1 and g.edge_count == 1
    assert list(g.in_degree) == [1] and list(g.out_degree) == [1]


def test_explicit_seed_single_edge():
    g = single_edge()
    assert g.node_count == 2 and g.edge_count == 1
    assert list(g.in_degree) == [0, 1]
    assert list(g.out_degree) == [1, 0]


def test_zero_edge_seed_needs_positive_deltas():
    zero_delta = ModelParams(0.3, 0.5, 0.2, 0.0, 1.0)
    with pytest.raises(InvalidSeed):
        grow(DirectedMultigraph(1), 10, zero_delta, np.random.default_rng(0))
    with pytest.raises(InvalidSeed, match="at least one node"):
        grow(DirectedMultigraph(0), 10, P, np.random.default_rng(0))
    # fine when both deltas are positive
    g = grow(DirectedMultigraph(2), 10, P, np.random.default_rng(0))
    assert g.edge_count == 10 and g.node_count >= 2


def choose_by(graph, delta, rng, which, draws):
    """Preferential draws by in- or out-degree on a fixed graph, as grow() makes them.

    n and N stay at the graph's counts and no step creates a node, so
    every edge reference resolves to an edge of the graph.
    """
    end = graph.heads if which == "in" else graph.tails
    n, N = graph.edge_count, graph.node_count
    u = rng.random((draws, 2))
    return _endpoints(end, n, np.full(draws, n), np.full(draws, N), u[:, 0], u[:, 1], delta,
                      np.zeros(draws, bool))


def test_choose_single_node_graph():
    g = self_loop()
    rng = np.random.default_rng(0)
    assert np.all(choose_by(g, 1.0, rng, "in", 100) == 0)
    assert np.all(choose_by(g, 1.0, rng, "out", 100) == 0)


def test_choose_by_in_zero_delta_picks_positive_degree():
    g = single_edge()
    rng = np.random.default_rng(1)
    assert np.all(choose_by(g, 0.0, rng, "in", 200) == 1)


def test_choose_by_in_two_node_probability():
    # edge 0 -> 1, delta_in = 1: P(node 1) = (1+1)/(1+2) = 2/3
    g = single_edge()
    rng = np.random.default_rng(7)
    n = 10**6
    hits = int((choose_by(g, 1.0, rng, "in", n) == 1).sum())
    p = 2.0 / 3.0
    sigma = np.sqrt(p * (1 - p) * n)
    assert abs(hits - p * n) < 3 * sigma


def test_choose_by_out_two_node_probability():
    g = single_edge()
    rng = np.random.default_rng(8)
    n = 10**6
    hits = int((choose_by(g, 1.0, rng, "out", n) == 0).sum())
    p = 2.0 / 3.0
    sigma = np.sqrt(p * (1 - p) * n)
    assert abs(hits - p * n) < 3 * sigma


def test_choose_mixture_matches_formula_exactly():
    """Chi-square test on a fixed 5-node graph against the exact law."""
    tails = [0, 1, 2, 2, 3]
    heads = [1, 2, 2, 3, 4]
    g = DirectedMultigraph(5, tails, heads)
    delta = 0.7
    n, N = g.edge_count, g.node_count
    expected_p = (g.in_degree + delta) / (n + delta * N)
    rng = np.random.default_rng(11)
    draws = 10**6
    observed = np.bincount(choose_by(g, delta, rng, "in", draws), minlength=N)
    expected = expected_p * draws
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    # 99.9% quantile of chi-square with 4 degrees of freedom
    assert chi2 < 18.47


def step_cases(g):
    """The alpha and gamma steps of a graph grown from the self-loop seed.

    Node ids are dense in creation order, so a step's endpoint is the
    node it creates exactly when it exceeds every id seen before: the
    tail of an alpha step, the head of a gamma step.
    """
    seen = np.maximum.accumulate(np.maximum(g.tails, g.heads))[:-1]
    return g.tails[1:] > seen, g.heads[1:] > seen


def test_step_alpha_only_always_adds_source_node():
    p = ModelParams(0.999999999999, 0.0, 0.0, 1.0, 1.0)
    g = grow(self_loop(), 51, p, np.random.default_rng(2))
    alpha, gamma = step_cases(g)
    assert alpha.all() and not gamma.any()
    assert g.tails[1:].tolist() == list(range(1, 51))
    assert g.node_count == 51


def test_step_beta_only_keeps_node_count():
    p = ModelParams(0.0, 0.999999999999, 0.0, 1.0, 1.0)
    g = grow(self_loop(), 51, p, np.random.default_rng(3))
    alpha, gamma = step_cases(g)
    assert not alpha.any() and not gamma.any()
    assert g.node_count == 1


def test_step_case_frequencies():
    n = 10**6
    g = grow(self_loop(), n + 1, P, np.random.default_rng(4))
    alpha, gamma = step_cases(g)
    assert not (alpha & gamma).any()
    assert int(alpha.sum() + gamma.sum()) == g.node_count - 1
    counts = (int(alpha.sum()), n - int(alpha.sum() + gamma.sum()), int(gamma.sum()))
    for count, prob in zip(counts, (0.3, 0.5, 0.2)):
        sigma = np.sqrt(prob * (1 - prob) * n)
        assert abs(count - prob * n) < 4 * sigma


def test_graph_invariants_after_growth():
    g = simulate(20000, P, seed=99)
    g.check_invariants()


@pytest.mark.parametrize(
    "params, start, targets",
    [
        (P, self_loop, (2000,)),
        (P, self_loop, (CHUNK_STEPS + 5000,)),
        (P, lambda: DirectedMultigraph(3), (5000,)),
        (NEAR_BETA, self_loop, (20000,)),
        (P, self_loop, (3000, CHUNK_STEPS + 4000)),
    ],
    ids=["self-loop-2000", "crosses-chunk", "zero-edge-seed", "near-pure-beta", "split-target"],
)
def test_grow_matches_repeated_step(params, start, targets):
    """grow() in one call, grow() in several calls and the row-wise reference agree draw for draw."""
    split = start()
    rng = np.random.default_rng(42)
    for target in targets:
        grow(split, target, params, rng)
    whole = grow(start(), targets[-1], params, np.random.default_rng(42))
    seed = start()
    tails, heads, N = seed.tails.tolist(), seed.heads.tolist(), seed.node_count
    rng = np.random.default_rng(42)
    while len(tails) < targets[-1]:
        N = step(tails, heads, N, params, rng)
    stepped = DirectedMultigraph(N, tails, heads)
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


@pytest.mark.parametrize(
    "params, tails_sha256, heads_sha256",
    [
        (P, "d5a6daaf0c49a1798ed838b444cbb1b32251e3b87c5770d63c16d3853b5ef905",
         "ae3c160ad67a72374187a13cb00af0e9db80bb38b1c51f60cdc2074a6c0c0bdb"),
        (NEAR_BETA, "75ef4f2b34df792b9acc78a7b1419326382a1f5641e70698abff55eb3fccc4f6",
         "99f3532e97718b271b1f244b238fef014a9ae0c4186fe7e5a145f68f93480abe"),
    ],
    ids=["canonical", "near-pure-beta"],
)
def test_seed_to_graph_mapping_is_pinned_across_chunks(params, tails_sha256, heads_sha256):
    """Four chunks, the last one partial: the whole edge list a seed gives is fixed."""
    g = simulate(3 * CHUNK_STEPS + 17, params, DEFAULT_SEED)
    assert hashlib.sha256(np.asarray(g.tails, "<i4").tobytes()).hexdigest() == tails_sha256
    assert hashlib.sha256(np.asarray(g.heads, "<i4").tobytes()).hexdigest() == heads_sha256


@pytest.mark.parametrize("params", [P, NEAR_BETA], ids=["canonical", "near-pure-beta"])
def test_integer_offsets_grow_the_float_offsets_graph(params):
    """An int delta made the kernel's delta * N an int64 array that the in-place coin multiply refused."""
    ints = ModelParams(params.alpha, params.beta, params.gamma, int(params.delta_in), int(params.delta_out))
    g = simulate(3 * CHUNK_STEPS + 17, ints, DEFAULT_SEED)
    h = simulate(3 * CHUNK_STEPS + 17, params, DEFAULT_SEED)
    assert np.array_equal(g.tails, h.tails) and np.array_equal(g.heads, h.heads)


def test_grow_raises_what_the_helper_thread_raises(monkeypatch):
    """The tails side of a chunk runs on a helper thread: its error reaches the caller, and the thread ends."""
    caller = threading.current_thread()

    class HelperFailure(RuntimeError):
        pass

    def endpoints_failing_off_the_caller(*args):
        if threading.current_thread() is not caller:
            raise HelperFailure("tails side")
        return _endpoints(*args)

    monkeypatch.setattr(growth, "_endpoints", endpoints_failing_off_the_caller)
    g = self_loop()
    threads = threading.active_count()
    with pytest.raises(HelperFailure):
        grow(g, 2 * CHUNK_STEPS, P, np.random.default_rng(0))
    assert threading.active_count() == threads
    assert g.edge_count == 1 and g.node_count == 1


def test_grow_raises_the_heads_side_error_when_both_sides_fail(monkeypatch):
    """The calling thread resolves the heads: its error is raised, after the helper ends."""
    caller = threading.current_thread()

    class HeadsFailure(RuntimeError):
        pass

    class TailsFailure(RuntimeError):
        pass

    def endpoints_failing_on_both_sides(*args):
        raise (HeadsFailure if threading.current_thread() is caller else TailsFailure)()

    monkeypatch.setattr(growth, "_endpoints", endpoints_failing_on_both_sides)
    threads = threading.active_count()
    with pytest.raises(HeadsFailure):
        grow(self_loop(), 2 * CHUNK_STEPS, P, np.random.default_rng(0))
    assert threading.active_count() == threads


def test_grow_is_deterministic():
    a = simulate(5000, P, seed=123)
    b = simulate(5000, P, seed=123)
    assert np.array_equal(a.tails, b.tails) and np.array_equal(a.heads, b.heads)


def test_grow_to_current_size_is_identity():
    g = simulate(100, P, seed=1)
    tails = g.tails.copy()
    grow(g, 100, P, np.random.default_rng(5))
    assert np.array_equal(g.tails, tails)
    with pytest.raises(ValueError, match="below the current edge count"):
        grow(g, 99, P, np.random.default_rng(5))


def test_grow_respects_edge_budget():
    g = self_loop()
    with pytest.raises(ResourceLimit):
        grow(g, PAIR_BUDGET + 1, P, np.random.default_rng(0))


@pytest.mark.parametrize("seed", [1, 2])
def test_growth_memory_is_stated_per_edge(seed):
    # grow() states that the graph keeps 12 B per edge and peaks at
    # 23.0 B per edge at 1e6 edges (22 B per edge plus under 1 MiB)
    n = 10**6
    grow(self_loop(), 2 * CHUNK_STEPS, P, np.random.default_rng(seed))  # first-call caches
    g = self_loop()
    tracemalloc.start()
    try:
        grow(g, n, P, np.random.default_rng(seed))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 12.01 * n
    assert peak < 23.05 * n


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
    g = self_loop()
    t = degree_counts(g)
    assert t.get(1, 1) == 1 and t.total_nodes == 1
    g2 = single_edge()
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


def _read_peak(path):
    """The error from_binary raises on path, and the tracemalloc peak while it reads."""
    return traced_peak(lambda: DirectedMultigraph.from_binary(path), (ResourceLimit, ValueError))


def test_from_binary_refuses_oversized_headers_before_allocating(tmp_path):
    """A header is outside input: its counts are checked before any array is built."""
    path = tmp_path / "huge.bin"
    # 2**31 - 1 nodes fit int32 ids but would cost about 40 GiB to count
    path.write_bytes(MAGIC + struct.pack("<IQQ", FORMAT_VERSION, 2**31 - 1, 0))
    err, peak = _read_peak(path)
    assert isinstance(err, ResourceLimit) and peak < 2**20
    # 2**20 edges declared, one present: refused before np.fromfile allocates 4 MiB for them
    path.write_bytes(MAGIC + struct.pack("<IQQ", FORMAT_VERSION, 2, 2**20) + struct.pack("<II", 0, 1))
    err, peak = _read_peak(path)
    assert "truncated" in str(err) and peak < 2**20
    for header, message in ((b"DPAX" + struct.pack("<IQQ", FORMAT_VERSION, 2, 0), "bad magic b'DPAX'"),
                            (MAGIC + struct.pack("<IQQ", 2, 2, 0), "unsupported format version 2")):
        path.write_bytes(header)
        err, peak = _read_peak(path)
        assert str(err) == message and peak < 2**20


def test_constructor_rejects_missing_nodes():
    with pytest.raises(ValueError, match="missing node"):
        DirectedMultigraph(2, [0, 1], [1, 2])
    with pytest.raises(ValueError, match="missing node"):
        DirectedMultigraph(2, [-1], [0])
    # checked in the given width: the int32 cast would wrap 2**32 to the node 0
    with pytest.raises(ValueError, match="missing node"):
        DirectedMultigraph(2, np.array([2**32], np.int64), np.array([1], np.int64))
    with pytest.raises(ValueError, match="missing node"):
        DirectedMultigraph(2, np.array([1], np.uint64), np.array([2**32 + 1], np.uint64))
    with pytest.raises(ValueError, match="equal length"):
        DirectedMultigraph(2, [0, 1], [1])
    with pytest.raises(ValueError, match="1-d"):
        DirectedMultigraph(3, [[0, 1], [1, 2]], [[1, 2], [0, 1]])
    with pytest.raises(ValueError, match="must be integers"):
        DirectedMultigraph(2, [0.7], [1.2])


def test_constructor_keeps_int32_edges_and_casts_the_rest():
    tails, heads = np.array([0, 1, 1], np.int32), np.array([1, 0, 1], np.int32)
    g = DirectedMultigraph(2, tails, heads)
    assert g.tails is tails and g.heads is heads
    for edges in ([[0, 1, 1], [1, 0, 1]], [tails.astype(np.int64), heads.astype(np.uint16)]):
        h = DirectedMultigraph(2, *edges)
        assert h.tails.dtype == h.heads.dtype == np.int32
        assert np.array_equal(h.tails, tails) and np.array_equal(h.heads, heads)
        assert np.array_equal(h.in_degree, g.in_degree) and np.array_equal(h.out_degree, g.out_degree)
    empty = DirectedMultigraph(3)
    assert empty.edge_count == 0 and empty.tails.dtype == empty.heads.dtype == np.int32
    assert list(empty.in_degree) == list(empty.out_degree) == [0, 0, 0]


def test_constructor_refuses_bad_node_counts_before_allocating():
    for make in (DirectedMultigraph, lambda count: DirectedMultigraph(count, [0], [0])):
        with pytest.raises(ValueError):
            make(-1)
        _, peak = traced_peak(lambda: make(NODE_BUDGET + 1), ResourceLimit)
        assert peak < 2**20


def test_to_binary_writes_the_arrays_without_copies(graphs_1m, tmp_path):
    g = graphs_1m[0]
    path = tmp_path / "graph.bin"
    _, peak = traced_peak(lambda: g.to_binary(path))
    assert peak < 2**20
    header = MAGIC + struct.pack("<IQQ", FORMAT_VERSION, g.node_count, g.edge_count)
    assert path.read_bytes() == header + g.tails.astype("<u4").tobytes() + g.heads.astype("<u4").tobytes()


def test_from_binary_counts_the_degrees_once(graphs_1m, tmp_path):
    # the read keeps 12 B per edge and peaks while np.bincount holds an
    # int64 copy of one endpoint array: 22 B per edge at 1e6 edges
    g = graphs_1m[0]
    path = tmp_path / "graph.bin"
    g.to_binary(path)
    h, peak = traced_peak(lambda: DirectedMultigraph.from_binary(path))
    assert peak < 22.5 * g.edge_count
    assert np.array_equal(h.in_degree, g.in_degree) and np.array_equal(h.out_degree, g.out_degree)
