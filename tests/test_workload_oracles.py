"""The whole-array workload generators against their scalar oracles.

``repro.workloads.graphs``, ``build_round_kernels`` and the Mandelbrot
escape loop are numpy over whole arrays.  This module keeps the
per-vertex and masked loops they replaced, verbatim, as oracles, and
checks on random small inputs that both give the same arrays (values and
dtype) and the same :class:`~repro.sim.kernel.Application`, field for
field.
"""

from typing import List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.sim.kernel import Application, ChildRequest, KernelSpec
from repro.workloads import mandelbrot
from repro.workloads._traversal import EDGE_BYTES, TraversalCosts, build_round_kernels
from repro.workloads.base import AddressAllocator
from repro.workloads.graphs import (
    CSRGraph,
    _csr_from_edges,
    bfs_levels,
    citation_graph,
    coloring_rounds,
    sssp_rounds,
)

from tests.test_input_fingerprints import app_fingerprint

# --- Oracles: the scalar loops, as they were before vectorising -----------


def csr_from_edges_oracle(num_vertices: int, src: np.ndarray, dst: np.ndarray) -> CSRGraph:
    """Symmetrize, dedup, and pack an edge list into CSR."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    keys = all_src * np.int64(num_vertices) + all_dst
    keys = np.unique(keys)
    all_src = keys // num_vertices
    all_dst = keys % num_vertices
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    counts = np.bincount(all_src, minlength=num_vertices)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr=indptr, indices=all_dst.astype(np.int64))


def citation_graph_oracle(
    num_vertices: int = 6000, edges_per_vertex: int = 5, seed: int = 1
) -> CSRGraph:
    if num_vertices <= edges_per_vertex:
        raise WorkloadError("num_vertices must exceed edges_per_vertex")
    rng = np.random.default_rng(seed)
    m = edges_per_vertex
    # The repeated-endpoint pool: each inserted edge contributes both ends.
    pool = np.empty(2 * m * num_vertices, dtype=np.int64)
    pool_size = 0
    src_list = np.empty(m * num_vertices, dtype=np.int64)
    dst_list = np.empty(m * num_vertices, dtype=np.int64)
    edge_count = 0
    # Seed path v -> v-1 over the first m+1 vertices.
    for v in range(1, m + 1):
        src_list[edge_count] = v
        dst_list[edge_count] = v - 1
        pool[pool_size] = v
        pool[pool_size + 1] = v - 1
        pool_size += 2
        edge_count += 1
    for v in range(m + 1, num_vertices):
        picks = rng.integers(0, pool_size, size=m)
        targets = pool[picks]
        for t in targets:
            src_list[edge_count] = v
            dst_list[edge_count] = t
            pool[pool_size] = v
            pool[pool_size + 1] = t
            pool_size += 2
            edge_count += 1
    return csr_from_edges_oracle(
        num_vertices, src_list[:edge_count], dst_list[:edge_count]
    )


def bfs_levels_oracle(graph: CSRGraph, source: int = 0) -> list:
    if not 0 <= source < graph.num_vertices:
        raise WorkloadError("BFS source outside graph")
    visited = np.zeros(graph.num_vertices, dtype=bool)
    visited[source] = True
    frontier = np.array([source], dtype=np.int64)
    levels = [frontier]
    while True:
        nxt = []
        for v in frontier:
            nbrs = graph.neighbors(int(v))
            fresh = nbrs[~visited[nbrs]]
            if fresh.size:
                visited[fresh] = True
                nxt.append(np.unique(fresh))
        if not nxt:
            return levels
        frontier = np.unique(np.concatenate(nxt))
        levels.append(frontier)


def sssp_rounds_oracle(graph: CSRGraph, source: int = 0, seed: int = 1, max_rounds: int = 64) -> list:
    rng = np.random.default_rng(seed)
    # Deterministic per-edge weights.
    weights = rng.integers(1, 16, size=graph.num_edges).astype(np.int64)
    dist = np.full(graph.num_vertices, np.iinfo(np.int64).max // 2, dtype=np.int64)
    dist[source] = 0
    active = np.array([source], dtype=np.int64)
    rounds = [active]
    for _ in range(max_rounds):
        changed = []
        for v in active:
            v = int(v)
            lo, hi = graph.indptr[v], graph.indptr[v + 1]
            nbrs = graph.indices[lo:hi]
            cand = dist[v] + weights[lo:hi]
            better = cand < dist[nbrs]
            if better.any():
                upd = nbrs[better]
                # np.minimum.at handles duplicate neighbors correctly.
                np.minimum.at(dist, upd, cand[better])
                changed.append(np.unique(upd))
        if not changed:
            break
        active = np.unique(np.concatenate(changed))
        rounds.append(active)
    return rounds


def coloring_rounds_oracle(graph: CSRGraph, seed: int = 1) -> list:
    rng = np.random.default_rng(seed)
    priority = rng.permutation(graph.num_vertices)
    uncolored = np.ones(graph.num_vertices, dtype=bool)
    rounds = []
    while uncolored.any():
        remaining = np.flatnonzero(uncolored)
        rounds.append(remaining)
        to_color = []
        for v in remaining:
            nbrs = graph.neighbors(int(v))
            live = nbrs[uncolored[nbrs]]
            if live.size == 0 or priority[v] > priority[live].max():
                to_color.append(v)
        uncolored[np.array(to_color, dtype=np.int64)] = False
    return rounds


def build_round_kernels_oracle(
    app_name: str,
    graph: CSRGraph,
    rounds: Sequence[np.ndarray],
    *,
    dp: bool,
    min_offload: int,
    cta_threads: int,
    costs: TraversalCosts,
) -> Application:
    if not rounds:
        raise WorkloadError(f"{app_name}: no traversal rounds")
    alloc = AddressAllocator()
    edge_base = alloc.alloc(graph.num_edges * EDGE_BYTES)
    indptr = graph.indptr
    degrees = graph.degrees
    vpt = costs.vertices_per_thread
    kernels: List[KernelSpec] = []
    flat_items = 0
    for round_idx, active in enumerate(rounds):
        active = np.asarray(active, dtype=np.int64)
        if active.size == 0:
            continue
        deg = degrees[active]
        flat_items += int(deg.sum()) + costs.bookkeeping_items * active.size
        if not dp:
            kernels.append(
                KernelSpec(
                    name=f"{app_name}-round{round_idx}",
                    threads_per_cta=min(costs.threads_per_cta, active.size),
                    thread_items=costs.bookkeeping_items + deg,
                    regs_per_thread=costs.regs_per_thread,
                    cycles_per_item=costs.cycles_per_edge,
                    accesses_per_item=costs.accesses_per_edge,
                    mem_bases=edge_base + indptr[active] * EDGE_BYTES,
                    mem_stride=EDGE_BYTES,
                    header_items=costs.header_items,
                )
            )
            continue
        num_threads = -(-active.size // vpt)
        items = np.zeros(num_threads, dtype=np.int64)
        bases = np.zeros(num_threads, dtype=np.int64)
        requests: dict = {}
        for tid in range(num_threads):
            chunk = active[tid * vpt : (tid + 1) * vpt]
            chunk_deg = degrees[chunk]
            bases[tid] = edge_base + indptr[chunk[0]] * EDGE_BYTES
            serial_edges = 0
            reqs = []
            for k, v in enumerate(chunk):
                d = int(chunk_deg[k])
                if dp and d > min_offload:
                    reqs.append(
                        ChildRequest(
                            name=f"{app_name}-r{round_idx}-v{int(v)}",
                            items=d,
                            cta_threads=cta_threads,
                            regs_per_thread=costs.child_regs_per_thread,
                            cycles_per_item=costs.cycles_per_edge,
                            accesses_per_item=costs.accesses_per_edge,
                            mem_base=int(edge_base + indptr[v] * EDGE_BYTES),
                            mem_stride=EDGE_BYTES,
                            at_fraction=(k + 0.5) / len(chunk),
                        )
                    )
                else:
                    serial_edges += d
            items[tid] = costs.bookkeeping_items * len(chunk) + serial_edges
            if reqs:
                requests[tid] = reqs
        kernels.append(
            KernelSpec(
                name=f"{app_name}-round{round_idx}",
                threads_per_cta=min(costs.threads_per_cta, num_threads),
                thread_items=items,
                regs_per_thread=costs.regs_per_thread,
                cycles_per_item=costs.cycles_per_edge,
                accesses_per_item=costs.accesses_per_edge,
                mem_bases=bases,
                mem_stride=EDGE_BYTES,
                child_requests=requests,
                header_items=costs.header_items,
            )
        )
    return Application(name=app_name, kernels=kernels, flat_items=flat_items)


def escape_iterations_oracle(c: np.ndarray) -> np.ndarray:
    """The full-grid masked escape loop, over a 2-D grid ``c``."""
    z = np.zeros_like(c)
    iters = np.zeros(c.shape, dtype=np.int64)
    live = np.ones(c.shape, dtype=bool)
    for _ in range(mandelbrot.MAX_ITERS):
        z[live] = z[live] * z[live] + c[live]
        escaped = live & (np.abs(z) > 2.0)
        live &= ~escaped
        iters[live] += 1
        if not live.any():
            break
    return iters


# --- Comparisons ----------------------------------------------------------


def assert_same_arrays(expected, actual) -> None:
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def assert_same_graph(expected: CSRGraph, actual: CSRGraph) -> None:
    assert_same_arrays([expected.indptr, expected.indices], [actual.indptr, actual.indices])


def outcome(build, *args, **kwargs):
    """The built Application's fingerprint, or the error it raised."""
    try:
        return app_fingerprint(build(*args, **kwargs))
    except WorkloadError as exc:
        return repr(exc)


@st.composite
def edge_lists(draw):
    """(num_vertices, src, dst): self-loops, duplicate edges and, past the
    highest endpoint drawn, isolated vertices."""
    touched = draw(st.integers(min_value=1, max_value=24))
    isolated = draw(st.integers(min_value=0, max_value=4))
    ends = st.integers(min_value=0, max_value=touched - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=70))
    src = np.array([s for s, _ in pairs], dtype=np.int64)
    dst = np.array([d for _, d in pairs], dtype=np.int64)
    return touched + isolated, src, dst


graphs = edge_lists().map(lambda edges: csr_from_edges_oracle(*edges))


@st.composite
def graphs_and_rounds(draw):
    """A graph and 1-4 rounds of distinct active vertices in any order,
    empty rounds included."""
    graph = draw(graphs)
    vertex = st.integers(min_value=0, max_value=graph.num_vertices - 1)
    rounds = draw(
        st.lists(st.lists(vertex, unique=True, max_size=graph.num_vertices),
                 min_size=1, max_size=4)
    )
    return graph, [np.array(r, dtype=np.int64) for r in rounds]


@settings(max_examples=150, deadline=None)
@given(edge_lists())
def test_csr_from_edges_matches_oracle(edges):
    assert_same_graph(csr_from_edges_oracle(*edges), _csr_from_edges(*edges))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=2**32),
)
def test_citation_graph_matches_oracle(m, extra_vertices, seed):
    n = m + extra_vertices
    assert_same_graph(citation_graph_oracle(n, m, seed), citation_graph(n, m, seed))


@settings(max_examples=150, deadline=None)
@given(graphs, st.data())
def test_bfs_levels_match_oracle(graph, data):
    source = data.draw(st.integers(min_value=0, max_value=graph.num_vertices - 1))
    assert_same_arrays(bfs_levels_oracle(graph, source), bfs_levels(graph, source))


@settings(max_examples=150, deadline=None)
@given(graphs, st.data(), st.integers(min_value=0, max_value=2**16),
       st.integers(min_value=0, max_value=8))
def test_sssp_rounds_match_oracle(graph, data, seed, max_rounds):
    source = data.draw(st.integers(min_value=0, max_value=graph.num_vertices - 1))
    assert_same_arrays(
        sssp_rounds_oracle(graph, source, seed, max_rounds),
        sssp_rounds(graph, source, seed, max_rounds),
    )


@settings(max_examples=150, deadline=None)
@given(graphs, st.integers(min_value=0, max_value=2**16))
def test_coloring_rounds_match_oracle(graph, seed):
    assert_same_arrays(coloring_rounds_oracle(graph, seed), coloring_rounds(graph, seed))


@settings(max_examples=200, deadline=None)
@given(
    graphs_and_rounds(),
    st.booleans(),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([32, 64]),
)
def test_build_round_kernels_matches_oracle(graph_rounds, dp, min_offload, vpt, cta):
    graph, rounds = graph_rounds
    kwargs = dict(
        dp=dp,
        min_offload=min_offload,
        cta_threads=cta,
        costs=TraversalCosts(vertices_per_thread=vpt, threads_per_cta=8),
    )
    assert outcome(build_round_kernels, "g", graph, rounds, **kwargs) == outcome(
        build_round_kernels_oracle, "g", graph, rounds, **kwargs
    )


# Vertices 0-3 form a star around 0, 4-5 an edge, 6-7 are isolated.
STAR = csr_from_edges_oracle(
    8, np.array([0, 0, 0, 4], dtype=np.int64), np.array([1, 2, 3, 5], dtype=np.int64)
)


@pytest.mark.parametrize("dp", [True, False])
@pytest.mark.parametrize(
    "rounds,min_offload,vpt",
    [
        ([[0, 4, 5, 1, 2], [], [6, 7]], 0, 2),  # empty round, isolated vertices, 5 over 2 per thread
        ([[0, 1, 2, 3, 4, 5]], 0, 4),  # all heavy, 6 over 4 per thread
        ([[0, 1, 2, 3, 4, 5, 6, 7]], 3, 3),  # all light, 8 over 3 per thread
        ([[7, 0, 6], [3]], 2, 5),  # unsorted; one short chunk per round
        ([[], []], 0, 1),  # nothing active: no kernels
    ],
)
def test_build_round_kernels_edge_cases(dp, rounds, min_offload, vpt):
    rounds = [np.array(r, dtype=np.int64) for r in rounds]
    kwargs = dict(
        dp=dp,
        min_offload=min_offload,
        cta_threads=32,
        costs=TraversalCosts(vertices_per_thread=vpt),
    )
    assert outcome(build_round_kernels, "s", STAR, rounds, **kwargs) == outcome(
        build_round_kernels_oracle, "s", STAR, rounds, **kwargs
    )


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-2.0, max_value=0.6),
    st.floats(min_value=-1.2, max_value=1.2),
    st.floats(min_value=1e-3, max_value=1.5),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=24),
)
def test_escape_iterations_match_masked_loop(cx, cy, scale, width, height):
    xs = np.linspace(cx - scale, cx + scale, width)
    ys = np.linspace(cy - scale, cy + scale, height)
    c = xs[None, :] + 1j * ys[:, None]
    iters = mandelbrot._escape_iterations(c.ravel())
    assert iters.dtype == np.int64
    np.testing.assert_array_equal(iters.reshape(c.shape), escape_iterations_oracle(c))
