"""Every registered benchmark in one table: the paper's Table I and three more.

One row per benchmark: its name, application, input set, builder, the
THRESHOLD of the unmodified DP source (Baseline-DP) and the THRESHOLDs
that Fig. 5 and Offline-Search sweep.  A builder is called as
``build(variant=, seed=, cta_threads=)``.  The row order is the order of
:func:`~repro.workloads.base.benchmark_names`, so of ``repro audit all``.

:data:`TABLE1_NAMES` is the paper's Table I, a closed list of 13
``<application, input>`` pairs, in the paper's order.  ``SA-elegans``
(Fig. 21) and the two self-similar workloads are rows outside it.

BFS, SSSP and GC differ only in data: a
:class:`~repro.workloads._traversal.Traversal` each and the graphs they
run on.  Every other application keeps its generator and builder in its
own module.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

import numpy as np

from repro.workloads import _traversal, amr, join, mandelbrot, matmul, selfsim, seqalign
from repro.workloads._traversal import Traversal, TraversalCosts
from repro.workloads.base import Benchmark
from repro.workloads.graphs import (
    bfs_levels,
    citation_graph,
    coloring_rounds,
    graph500_graph,
    sssp_rounds,
)

#: The input graphs, each a generator and its size arguments.  The graph
#: cache is keyed by them, so BFS and SSSP generate their two graphs once.
CITATION = (citation_graph, (12000, 6))  # vertices, edges per vertex
GRAPH500 = (graph500_graph, (14, 16))  # scale, edge factor
GC_CITATION = (citation_graph, (4000, 4))
GC_GRAPH500 = (graph500_graph, (12, 12))


def _hub(graph) -> int:
    """The highest-degree vertex, where BFS and SSSP start."""
    return int(np.argmax(graph.degrees))


# A child kernel over fewer edges than ``min_offload`` cannot fill a warp,
# so the DP source has no launch site there.
BFS = Traversal(
    TraversalCosts(cycles_per_edge=16.0, accesses_per_edge=1.0),
    min_offload=16,
    rounds=lambda graph, seed: bfs_levels(graph, _hub(graph)),
)
# Relaxation touches the neighbour's distance as well as the edge weight.
SSSP = Traversal(
    TraversalCosts(cycles_per_edge=20.0, accesses_per_edge=2.0),
    min_offload=16,
    rounds=lambda graph, seed: sssp_rounds(graph, _hub(graph), seed=seed),
)
# The conflict check reads the neighbour's colour and priority.  Only the
# first 16 rounds are simulated: later rounds are tiny and repeat the same
# behaviour while tripling simulation time.
GC = Traversal(
    TraversalCosts(cycles_per_edge=14.0, accesses_per_edge=2.0, vertices_per_thread=2),
    min_offload=24,
    rounds=lambda graph, seed: coloring_rounds(graph, seed=seed)[:16],
)

_GRAPH_SWEEP = (16, 32, 64, 128, 256, 512, 1024)
_GC_SWEEP = (24, 48, 96, 192, 384, 1024, 4096)

_ROWS = (
    # name, application, input set,
    #     builder, default THRESHOLD, swept THRESHOLDs
    #
    # Time-stepped AMR with nested refinement child kernels (amr.py).
    Benchmark("AMR", "Adaptive Mesh Refinement", "Combustion Simulation",
              amr.build, amr.MIN_OFFLOAD, (8, 32, 64, 128, 512, 1024, 2048)),
    # Level-synchronous BFS: the host launches one kernel per frontier
    # level; each thread owns one frontier vertex and traverses its
    # adjacency list.  In the DP variant, high-degree vertices launch a
    # child kernel over their edges (Fig. 3's code structure); the rest
    # loop serially.  The paper's motivating application (Fig. 1) and its
    # deep-dive subject (Figs. 6, 19, 20).
    Benchmark("BFS-citation", "Breadth-First Search", "Citation Network",
              partial(_traversal.build, "BFS-citation", BFS, CITATION),
              BFS.min_offload, _GRAPH_SWEEP),
    Benchmark("BFS-graph500", "Breadth-First Search", "Graph 500",
              partial(_traversal.build, "BFS-graph500", BFS, GRAPH500),
              BFS.min_offload, _GRAPH_SWEEP),
    # Jones-Plassmann greedy colouring: each round, every still-uncoloured
    # vertex checks its neighbours' states (degree-proportional work) and
    # colours itself if it wins the priority comparison.  Rounds shrink
    # slowly, so the same heavy vertices re-do conflict checks for many
    # rounds.  GC-citation launches few child kernels (< 2300 in the
    # paper) and parent threads retain substantial work, so Baseline-DP ~=
    # flat there (the paper's Observation 4 outlier).
    Benchmark("GC-citation", "Graph Coloring", "Citation Network",
              partial(_traversal.build, "GC-citation", GC, GC_CITATION),
              GC.min_offload, _GC_SWEEP),
    Benchmark("GC-graph500", "Graph Coloring", "Graph 500",
              partial(_traversal.build, "GC-graph500", GC, GC_GRAPH500),
              GC.min_offload, _GC_SWEEP),
    # Hash-join probe; child kernel per heavy bucket (join.py).
    Benchmark("JOIN-uniform", "Relational Join", "Uniform Data",
              partial(join.build, "uniform"),
              join.MIN_OFFLOAD, (64, 512, 1024, 1536, 2048, 4096)),
    Benchmark("JOIN-gaussian", "Relational Join", "Gaussian Data",
              partial(join.build, "gaussian"),
              join.MIN_OFFLOAD, (64, 512, 1024, 1536, 2048, 4096)),
    # Mariani-Silver subdivision; child kernel per boundary block
    # (mandelbrot.py).
    Benchmark("Mandel", "Mandelbrot Set", "N/A",
              mandelbrot.build,
              mandelbrot.MIN_OFFLOAD, (24, 48, 96, 256, 512, 1024, 4096)),
    # Sparse row x dense matrix; heavyweight child kernel per row (matmul.py).
    Benchmark("MM-small", "Matrix Multiplication", "Small sparse matrix",
              partial(matmul.build, "small"),
              matmul.MIN_OFFLOAD, (64, 256, 1024, 4096, 16384)),
    Benchmark("MM-large", "Matrix Multiplication", "Large sparse matrix",
              partial(matmul.build, "large"),
              matmul.MIN_OFFLOAD, (64, 256, 1024, 4096, 16384)),
    # Binary multiplicative cascades; child kernel per hot segment
    # (selfsim.py): mild skew (dense), few towering hot spots (sparse).
    Benchmark("SelfSim-dense", "Self-Similar Density", "Cascade c=0.45",
              partial(selfsim.build, "dense"),
              selfsim.MIN_OFFLOAD, (64, 128, 256, 512, 1024, 2048)),
    Benchmark("SelfSim-sparse", "Self-Similar Density", "Cascade c=0.15",
              partial(selfsim.build, "sparse"),
              selfsim.MIN_OFFLOAD, (64, 128, 256, 512, 1024, 2048)),
    # Read mapping; child kernel per repetitive read (seqalign.py).
    Benchmark("SA-thaliana", "Sequence Alignment", "Arabidopsis Thaliana",
              partial(seqalign.build, "thaliana"),
              seqalign.MIN_OFFLOAD, (2, 4, 8, 16, 32, 64, 128)),
    Benchmark("SA-elegans", "Sequence Alignment", "Caenorhabditis Elegans",
              partial(seqalign.build, "elegans"),
              seqalign.MIN_OFFLOAD, (2, 4, 8, 16, 32, 64, 128)),
    # Worklist Bellman-Ford: each round relaxes the out-edges of every
    # vertex whose distance changed in the previous round, so vertices
    # re-activate and the total number of (potential) child launches well
    # exceeds BFS on the same graph.  SSSP launches *many small* child
    # kernels — the regime where launch overhead dominates, which is why
    # DTBL beats SPAWN here in the paper's Fig. 21 and why SPAWN's
    # bootstrap mispredicts on graph500 (Section V-B).
    Benchmark("SSSP-citation", "Single Source Shortest Path", "Citation Network",
              partial(_traversal.build, "SSSP-citation", SSSP, CITATION),
              SSSP.min_offload, _GRAPH_SWEEP),
    Benchmark("SSSP-graph500", "Single Source Shortest Path", "Graph 500",
              partial(_traversal.build, "SSSP-graph500", SSSP, GRAPH500),
              SSSP.min_offload, _GRAPH_SWEEP),
)

#: Name -> row, in table order.
BENCHMARKS: Dict[str, Benchmark] = {row.name: row for row in _ROWS}

#: The 13 benchmarks of Table I, in the paper's order.
TABLE1_NAMES = (
    "AMR",
    "BFS-citation",
    "BFS-graph500",
    "SSSP-citation",
    "SSSP-graph500",
    "JOIN-uniform",
    "JOIN-gaussian",
    "GC-citation",
    "GC-graph500",
    "Mandel",
    "MM-small",
    "MM-large",
    "SA-thaliana",
)
