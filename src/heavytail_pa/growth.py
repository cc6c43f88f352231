"""Directed multigraph growth by degree-preferential attachment.

One edge is added per step.  With probability alpha a new node sends an
edge to an existing node chosen by in-degree; with probability beta an
edge is drawn between two existing nodes chosen independently by out-
and in-degree; with probability gamma an existing node chosen by
out-degree sends an edge to a new node.  The attachment probability for
a node w by in-degree in a graph with n edges and N nodes is

    (D_in(w) + delta_in) / (n + delta_in * N)

and symmetrically for out-degree.  Self-loops and parallel edges are
allowed; node ids are dense integers in creation order.

Sampling uses the exact mixture identity: since the in-degrees sum to
n, picking a uniform edge and returning its head hits node w with
probability D_in(w)/n, so a coin with success n/(n + delta*N) between
"uniform edge endpoint" and "uniform node" reproduces the formula above
exactly, in O(1) per draw.

Every step consumes exactly five uniforms, (case, out-coin, out-index,
in-coin, in-index), used or not.  grow() is the only growth path: it
draws CHUNK_STEPS rows at a time and runs a chunk as array operations.
The edge count before a step is its index, the node count a cumulative
sum of the new-node cases, and an "endpoint of a uniform earlier edge"
points backwards, so references into the chunk resolve by pointer
jumping.  Once a chunk's uniforms and node counts are drawn, its tails
read only earlier tails and its heads only earlier heads, so grow()
resolves the two sides at the same time: the tails on the one worker
of an executor that lasts the whole call, the heads on the calling
thread.  Neither reads what the other writes, so a graph is
byte-identical on any number of cores.  The row-wise reference step()
in tests/oracles.py checks it draw for draw.  Edge endpoints and degrees
are int32 (node ids below 2**31); the binary format stores them as u32.

The RNG is numpy's PCG64 (via default_rng); a graph is fully determined
by (start graph, params, rng seed, target).
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import PAIR_BUDGET, InvalidSeed, ResourceLimit
from .params import ModelParams, validate

MAGIC = b"DPAG"
FORMAT_VERSION = 1
DRAWS_PER_STEP = 5
CHUNK_STEPS = 1 << 16
# Each node costs 8 B kept and 20 B while its degrees are counted.  Grown
# graphs hold their start graph's nodes plus at most one per edge; the
# budget lies below 2**31, so node ids and degrees fit int32.
NODE_BUDGET = 2 * PAIR_BUDGET


def _checked_node_count(node_count: int) -> int:
    if node_count < 0:
        raise ValueError("node_count must be nonnegative")
    if node_count > NODE_BUDGET:
        raise ResourceLimit(f"{node_count} nodes exceed the node budget {NODE_BUDGET}")
    return node_count


def _check_ids(node_count: int, *ids: np.ndarray) -> None:
    for a in ids:
        if a.size and (a.min() < 0 or a.max() >= node_count):
            raise ValueError("an edge references a missing node")


class DirectedMultigraph:
    """An int32 edge list with per-node int32 degree arrays, all of exact size.

    _set_edges is the only writer of tails, heads, in_degree and
    out_degree, so len(tails) == len(heads) == edge_count and
    sum(in_degree) == sum(out_degree) == edge_count always hold.
    """

    def __init__(self, node_count: int = 0, tails=(), heads=()):
        """A graph on node_count nodes with the given edges, as 1-d integer lists or arrays.

        The node count is checked before any array is made, and the ids
        once, in their given width, before the int32 cast could wrap an id
        into range.  int32 arrays are kept without a copy.
        """
        self.node_count = _checked_node_count(node_count)
        tails, heads = np.asarray(tails), np.asarray(heads)
        if tails.ndim != 1 or tails.shape != heads.shape:
            raise ValueError("tails and heads must be 1-d and of equal length")
        if tails.size and (tails.dtype.kind not in "iu" or heads.dtype.kind not in "iu"):
            raise ValueError("edge ids must be integers")
        _check_ids(self.node_count, tails, heads)
        self._set_edges(tails.astype(np.int32, copy=False), heads.astype(np.int32, copy=False))

    def _set_edges(self, tails: np.ndarray, heads: np.ndarray) -> None:
        """Take int32 edge arrays as they are and count the degrees."""
        self.tails, self.heads = tails, heads
        self.in_degree = np.bincount(heads, minlength=self.node_count).astype(np.int32)
        self.out_degree = np.bincount(tails, minlength=self.node_count).astype(np.int32)

    @property
    def edge_count(self) -> int:
        return self.tails.shape[0]

    def check_invariants(self) -> None:
        assert self.tails.shape == self.heads.shape == (self.edge_count,)
        assert int(self.in_degree.sum()) == self.edge_count
        assert int(self.out_degree.sum()) == self.edge_count
        assert np.array_equal(np.bincount(self.heads, minlength=self.node_count), self.in_degree)
        assert np.array_equal(np.bincount(self.tails, minlength=self.node_count), self.out_degree)

    # -- serialization -----------------------------------------------------

    def to_binary(self, path) -> None:
        """Little-endian binary: magic, u32 version, u64 N, u64 n, u32 arrays."""
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<IQQ", FORMAT_VERSION, self.node_count, self.edge_count))
            # a no-copy view of the int32 arrays on a little-endian host
            np.asarray(self.tails, "<i4").view("<u4").tofile(fh)
            np.asarray(self.heads, "<i4").view("<u4").tofile(fh)

    @classmethod
    def from_binary(cls, path) -> "DirectedMultigraph":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != MAGIC:
                raise ValueError(f"bad magic {magic!r}")
            version, node_count, edge_count = struct.unpack("<IQQ", fh.read(20))
            if version != FORMAT_VERSION:
                raise ValueError(f"unsupported format version {version}")
            # np.fromfile allocates the count it is given before reading
            if 8 * edge_count > os.fstat(fh.fileno()).st_size - fh.tell():
                raise ValueError("truncated graph file")
            _checked_node_count(node_count)
            # ids of 2**31 and above read as negative and fail the id check
            tails = np.fromfile(fh, dtype="<u4", count=edge_count).view("<i4")
            heads = np.fromfile(fh, dtype="<u4", count=edge_count).view("<i4")
        return cls(node_count, tails, heads)


def _endpoints(end, n0, n, N, coin, index, delta, new_node) -> np.ndarray:
    """One endpoint (tail or head) of each step of a chunk starting at edge n0.

    end is the tails or heads array, filled below n0; n and N are the
    edge and node counts before each step; new_node marks the steps
    whose endpoint is the node the step creates.  The result depends on
    end[:n0] alone and no input is written, so the tails and heads of
    one chunk can be resolved at the same time.
    """
    # ref: the step takes an endpoint of a uniform earlier edge, when
    # coin * (n + delta * N) < n, computed in place in float64 (an int
    # delta would make delta * N int64, which refuses the coin in place)
    ref = np.multiply(delta, N, dtype=np.float64)
    ref += n
    ref *= coin
    ref = np.less(ref, n)
    ref &= ~new_node
    # work is int64 scratch: the draw's range (N, or n for a reference),
    # then the terms of two multiply-add blends.  On masks this irregular,
    # boolean indexing and np.copyto(where=) cost several times as much.
    # The unsafe cast truncates index * work as astype(np.int64) does.
    work = n - N
    work *= ref
    work += N
    val = np.multiply(index, work, out=np.empty(work.shape, np.int64), casting="unsafe")
    work -= 1
    np.minimum(val, work, out=val)
    # a new-node step takes N
    np.subtract(N, val, out=work)
    work *= new_node
    val += work
    # a reference below n0 reads end; ref keeps the others
    before = np.less(val, n0)
    before &= ref
    ref ^= before
    np.subtract(end.take(val, mode="clip"), val, out=work)
    work *= before
    val += work
    del work, before
    # The rest point at earlier steps of this chunk: follow each chain to
    # a resolved step, doubling the jump length every pass.
    hops = np.flatnonzero(ref)
    jump = val.take(hops)
    jump -= n0
    ptr = np.arange(val.size)
    ptr.put(hops, jump)
    while True:
        nxt = ptr.take(jump)
        if np.array_equal(nxt, jump):
            break
        ptr.put(hops, nxt)
        jump = nxt
    val.put(hops, val.take(jump))
    return val


def grow(
    graph: DirectedMultigraph, target_edges: int, params: ModelParams, rng: np.random.Generator
) -> DirectedMultigraph:
    """Grow the graph in place until it has target_edges edges.

    One vectorised pass per rng.random((m, 5)) block of at most
    CHUNK_STEPS steps.  In each block the worker of a one-thread executor,
    made once per call, resolves the tails while the calling thread
    resolves the heads; the heads side's exception is raised first, then
    the tails side's, before the next block starts.  A target above
    PAIR_BUDGET raises ResourceLimit up front.

    Memory (tracemalloc, canonical parameters, grown from one node): the
    graph keeps 12 B per edge, the int32 tails and heads plus the two
    int32 degree arrays at about one node per two edges.  The peak comes
    when the degrees are counted, since np.bincount copies the endpoints
    to int64: 22 B per edge plus under 1 MiB (23.0 B per edge at 1e6
    edges, 22.0 at 4e6).  While the edges are drawn it holds the 8 B
    per edge of the endpoint arrays plus under 8 MiB of transients: one
    chunk's draws and the scratch of both its sides at once (14.9 to
    15.9 B per edge at 1e6 edges, as the two sides overlap).
    """
    from concurrent.futures import ThreadPoolExecutor  # loaded only where a graph grows

    params = validate(params)
    n0, N = graph.edge_count, graph.node_count
    if target_edges < n0:
        raise ValueError("target_edges is below the current edge count")
    if target_edges > PAIR_BUDGET:
        raise ResourceLimit(f"target {target_edges} exceeds the edge budget {PAIR_BUDGET}")
    if N < 1:
        raise InvalidSeed("the initial graph needs at least one node")
    if n0 == 0 and target_edges > 0 and (params.delta_in == 0 or params.delta_out == 0):
        raise InvalidSeed("growth from a zero-edge graph needs positive deltas")

    tails, heads = np.zeros(target_edges, np.int32), np.zeros(target_edges, np.int32)
    tails[:n0], heads[:n0] = graph.tails, graph.heads

    def fill_tails(start, stop, n, Ns, u, is_alpha):
        tails[start:stop] = _endpoints(tails, start, n, Ns, u[:, 1], u[:, 2], params.delta_out, is_alpha)

    with ThreadPoolExecutor(1) as helper:
        for start in range(n0, target_edges, CHUNK_STEPS):
            u = rng.random((min(CHUNK_STEPS, target_edges - start), DRAWS_PER_STEP))
            is_alpha = u[:, 0] < params.alpha
            is_gamma = u[:, 0] >= params.alpha + params.beta
            new_node = is_alpha | is_gamma
            stop = start + len(u)
            n = np.arange(start, stop)
            Ns = N + np.cumsum(new_node) - new_node
            tails_side = helper.submit(fill_tails, start, stop, n, Ns, u, is_alpha)
            heads[start:stop] = _endpoints(heads, start, n, Ns, u[:, 3], u[:, 4], params.delta_in, is_gamma)
            tails_side.result()  # re-raises what the tails side raised
            N = int(Ns[-1] + new_node[-1])
    graph.node_count = N
    graph._set_edges(tails, heads)
    return graph


def simulate(target_edges: int, params: ModelParams, seed: int) -> DirectedMultigraph:
    """Grow one node carrying a self-loop to target_edges edges on a fresh PCG64 stream.

    grow() takes any other start graph, such as DirectedMultigraph(n) for n
    isolated nodes.
    """
    graph = DirectedMultigraph(1, [0], [0])
    return grow(graph, target_edges, params, np.random.default_rng(seed))
