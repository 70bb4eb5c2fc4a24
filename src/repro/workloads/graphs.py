"""Synthetic graph generators standing in for the paper's graph inputs.

The paper uses the DIMACS-10 *Citation Network* and *Graph 500* inputs
[Sanders & Schulz 2012].  Neither ships with this reproduction, so we
generate graphs whose degree structure matches what the DP mechanism cares
about:

* ``citation_graph`` — a preferential-attachment graph: a moderate power-law
  tail, most vertices low-degree, some hubs.  Citation networks are the
  canonical preferential-attachment instance.
* ``graph500_graph`` — an RMAT/Kronecker graph with the Graph500 parameters
  (a=0.57, b=0.19, c=0.19), giving the much heavier-tailed, skewed degree
  distribution that makes BFS-graph500 launch tens of thousands of child
  kernels in the paper.

Both return CSR adjacency (``indptr``, ``indices``) over ``num_vertices``
vertices, deduplicated and symmetrized, ready for level-synchronous
traversals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError


@dataclass(frozen=True)
class CSRGraph:
    """Compressed sparse row adjacency."""

    indptr: np.ndarray  # int64, len = num_vertices + 1
    indices: np.ndarray  # int64, len = num_edges

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values, like ``np.unique``, found by sorting.

    numpy 2's ``np.unique`` hashes integer arrays: on one Graph 500
    edge-key array that is about 45x slower than this sort and grows peak
    RSS by about 20 MB.
    """
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _csr_from_edges(num_vertices: int, src: np.ndarray, dst: np.ndarray) -> CSRGraph:
    """Symmetrize, dedup, and pack an edge list into CSR."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    keys = _sorted_unique(all_src * np.int64(num_vertices) + all_dst)
    all_src = keys // num_vertices
    all_dst = keys % num_vertices
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    counts = np.bincount(all_src, minlength=num_vertices)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr=indptr, indices=all_dst.astype(np.int64))


def _gather(graph: CSRGraph, vertices: np.ndarray):
    """Concatenated adjacency lists of ``vertices`` and each list's length."""
    starts = graph.indptr[vertices]
    counts = graph.indptr[vertices + 1] - starts
    # Position j of the output reads indices[starts[i] + (j - offsets[i])]
    # for the list i it falls in.
    offsets = np.cumsum(counts) - counts
    positions = np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))
    return graph.indices[positions], counts


def citation_graph(
    num_vertices: int = 6000, edges_per_vertex: int = 5, seed: int = 1
) -> CSRGraph:
    """Preferential-attachment graph with citation-like degree skew.

    Vertices arrive one at a time and attach ``edges_per_vertex`` edges to
    earlier vertices, preferring high-degree targets (Barabasi-Albert via
    the repeated-endpoint trick: sampling uniformly from the running edge
    list is proportional to degree).
    """
    if num_vertices <= edges_per_vertex:
        raise WorkloadError("num_vertices must exceed edges_per_vertex")
    rng = np.random.default_rng(seed)
    m = edges_per_vertex
    # Row e is edge e as (source, target).  Read flat, the rows are the
    # repeated-endpoint pool: each inserted edge contributes both ends.
    num_edges = m * (num_vertices - m)
    edges = np.empty((num_edges, 2), dtype=np.int64)
    pool = edges.reshape(-1)
    # Seed the pool with the path 1->0, 2->1, ..., m->m-1.
    edges[:m, 0] = np.arange(1, m + 1)
    edges[:m, 1] = np.arange(m)
    # Vertex v >= m+1 owns rows m*(v-m) .. m*(v-m+1)-1.
    edges[m:, 0] = np.repeat(np.arange(m + 1, num_vertices, dtype=np.int64), m)
    for first in range(m, num_edges, m):
        # One draw per vertex, over the pool as it stands before the
        # vertex's own edges: a batched draw would consume the bit
        # stream differently and change every graph.
        picks = rng.integers(0, 2 * first, size=m)
        edges[first : first + m, 1] = pool[picks]
    return _csr_from_edges(num_vertices, edges[:, 0], edges[:, 1])


def graph500_graph(
    scale: int = 13,
    edge_factor: int = 16,
    seed: int = 1,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> CSRGraph:
    """RMAT graph with the Graph500 generator parameters.

    ``2**scale`` vertices and ``edge_factor * 2**scale`` directed edge
    samples before dedup/symmetrization.  The recursive quadrant choice is
    vectorized: one random quadrant draw per (edge, bit).
    """
    if scale <= 0 or edge_factor <= 0:
        raise WorkloadError("scale and edge_factor must be positive")
    if not 0 < a + b + c < 1:
        raise WorkloadError("RMAT probabilities must sum below 1")
    rng = np.random.default_rng(seed)
    n = 1 << scale
    num_edges = edge_factor * n
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(num_edges)
        # Quadrant thresholds: a | b | c | d.
        go_right = (r >= a) & (r < a + b) | (r >= a + b + c)
        go_down = r >= a + b
        src = (src << 1) | go_down.astype(np.int64)
        dst = (dst << 1) | go_right.astype(np.int64)
    return _csr_from_edges(n, src, dst)


def bfs_levels(graph: CSRGraph, source: int = 0) -> list:
    """Level-synchronous BFS; returns a list of frontier vertex arrays.

    Level 0 is ``[source]``; traversal covers only the source's component
    (like the paper's benchmarks, which BFS from a fixed root).
    """
    if not 0 <= source < graph.num_vertices:
        raise WorkloadError("BFS source outside graph")
    visited = np.zeros(graph.num_vertices, dtype=bool)
    visited[source] = True
    frontier = np.array([source], dtype=np.int64)
    levels = [frontier]
    while True:
        nbrs, _counts = _gather(graph, frontier)
        # The next level is every neighbour unvisited when the level
        # starts, whichever frontier vertex reaches it first.
        fresh = nbrs[~visited[nbrs]]
        if not fresh.size:
            return levels
        frontier = _sorted_unique(fresh)
        visited[frontier] = True
        levels.append(frontier)


def sssp_rounds(graph: CSRGraph, source: int = 0, seed: int = 1, max_rounds: int = 64) -> list:
    """Bellman-Ford rounds; returns the active vertex set per round.

    Edge weights are deterministic pseudo-random ints in [1, 16).  A vertex
    is active in round ``k`` if its distance changed in round ``k-1`` —
    the standard GPU worklist formulation.  SSSP re-relaxes vertices, so
    the same vertex can appear in several rounds (more child launches than
    BFS, matching the paper's SSSP behaviour).
    """
    rng = np.random.default_rng(seed)
    # Deterministic per-edge weights.
    weights = rng.integers(1, 16, size=graph.num_edges).astype(np.int64)
    dist = np.full(graph.num_vertices, np.iinfo(np.int64).max // 2, dtype=np.int64)
    dist[source] = 0
    active = np.array([source], dtype=np.int64)
    rounds = [active]
    indptr = graph.indptr.tolist()
    for _ in range(max_rounds):
        # Vertices relax in order and read distances lowered earlier in
        # the same round, so this loop cannot become one gather.
        changed = []
        for v in active.tolist():
            lo, hi = indptr[v], indptr[v + 1]
            nbrs = graph.indices[lo:hi]
            cand = dist[v] + weights[lo:hi]
            better = cand < dist[nbrs]
            if better.any():
                upd = nbrs[better]
                # np.minimum.at handles duplicate neighbors correctly.
                np.minimum.at(dist, upd, cand[better])
                changed.append(upd)
        if not changed:
            break
        active = _sorted_unique(np.concatenate(changed))
        rounds.append(active)
    return rounds


def coloring_rounds(graph: CSRGraph, seed: int = 1) -> list:
    """Jones-Plassmann style greedy colouring rounds.

    Each round colours the vertices whose random priority beats all
    uncoloured neighbours; returns the list of per-round *remaining*
    (uncoloured, hence conflict-checking) vertex arrays — those are the
    threads that do degree-proportional work each round.
    """
    rng = np.random.default_rng(seed)
    priority = rng.permutation(graph.num_vertices)
    uncolored = np.ones(graph.num_vertices, dtype=bool)
    rounds = []
    while uncolored.any():
        remaining = np.flatnonzero(uncolored)
        rounds.append(remaining)
        # Every vertex compares against the state at the start of the
        # round: the highest priority among its uncoloured neighbours,
        # -1 (below every priority) when it has none.
        nbrs, counts = _gather(graph, remaining)
        rivals = np.where(uncolored[nbrs], priority[nbrs], -1)
        has_nbrs = counts > 0
        best = np.full(remaining.size, -1, dtype=priority.dtype)
        best[has_nbrs] = np.maximum.reduceat(
            rivals, (np.cumsum(counts) - counts)[has_nbrs]
        )
        uncolored[remaining[priority[remaining] > best]] = False
    return rounds
