"""Tests for graph generators and the Table I benchmark suite."""

from pathlib import Path

import numpy as np
import pytest

from repro.errors import HarnessError, WorkloadError
from repro.sim.config import GPUConfig
from repro.sim.kernel import uses_dynamic_parallelism
from repro.workloads import TABLE1_NAMES, benchmark_names, get_benchmark, graphs
from repro.workloads.base import AddressAllocator
from repro.workloads.graphs import (
    bfs_levels,
    citation_graph,
    coloring_rounds,
    graph500_graph,
    sssp_rounds,
)


class TestAddressAllocator:
    def test_regions_disjoint_and_aligned(self):
        alloc = AddressAllocator(alignment=128)
        a = alloc.alloc(100)
        b = alloc.alloc(300)
        assert a == 0
        assert b == 128
        assert alloc.alloc(1) == 128 + 384

    def test_rejects_bad_sizes(self):
        with pytest.raises(WorkloadError):
            AddressAllocator().alloc(0)
        with pytest.raises(WorkloadError):
            AddressAllocator(alignment=0)


class TestGraphGenerators:
    def test_citation_graph_structure(self):
        graph = citation_graph(num_vertices=500, edges_per_vertex=3, seed=1)
        assert graph.num_vertices == 500
        assert graph.num_edges > 0
        assert len(graph.indptr) == 501
        assert graph.indptr[-1] == graph.num_edges
        # Neighbour ids in range.
        assert graph.indices.min() >= 0
        assert graph.indices.max() < 500

    def test_citation_graph_is_symmetric(self):
        graph = citation_graph(num_vertices=300, edges_per_vertex=3, seed=2)
        edges = set()
        for v in range(graph.num_vertices):
            for u in graph.neighbors(v):
                edges.add((v, int(u)))
        assert all((u, v) in edges for (v, u) in edges)

    def test_citation_graph_has_hub_skew(self):
        graph = citation_graph(num_vertices=2000, edges_per_vertex=4, seed=1)
        degrees = graph.degrees
        assert degrees.max() > 8 * degrees.mean()

    def test_graph500_heavier_tail_than_citation(self):
        rmat = graph500_graph(scale=11, edge_factor=8, seed=1)
        pa = citation_graph(num_vertices=2048, edges_per_vertex=4, seed=1)
        rmat_skew = rmat.degrees.max() / max(rmat.degrees.mean(), 1)
        pa_skew = pa.degrees.max() / max(pa.degrees.mean(), 1)
        assert rmat_skew > pa_skew

    def test_graph500_deterministic_per_seed(self):
        a = graph500_graph(scale=10, edge_factor=4, seed=5)
        b = graph500_graph(scale=10, edge_factor=4, seed=5)
        assert np.array_equal(a.indices, b.indices)

    def test_graph_generator_validation(self):
        with pytest.raises(WorkloadError):
            citation_graph(num_vertices=3, edges_per_vertex=5)
        with pytest.raises(WorkloadError):
            graph500_graph(scale=0)


class TestTraversals:
    @pytest.fixture(scope="class")
    def graph(self):
        return citation_graph(num_vertices=800, edges_per_vertex=3, seed=3)

    def test_bfs_levels_partition_component(self, graph):
        levels = bfs_levels(graph, source=0)
        seen = np.concatenate(levels)
        assert len(seen) == len(np.unique(seen))
        assert levels[0].tolist() == [0]

    def test_bfs_levels_are_adjacent(self, graph):
        levels = bfs_levels(graph, source=0)
        for prev, cur in zip(levels, levels[1:]):
            prev_set = set(prev.tolist())
            for v in cur:
                assert any(int(u) in prev_set for u in graph.neighbors(int(v)))

    def test_bfs_source_validation(self, graph):
        with pytest.raises(WorkloadError):
            bfs_levels(graph, source=-1)

    def test_sssp_rounds_start_at_source(self, graph):
        rounds = sssp_rounds(graph, source=0, seed=1)
        assert rounds[0].tolist() == [0]
        assert len(rounds) >= 2

    def test_sssp_reactivates_vertices(self, graph):
        rounds = sssp_rounds(graph, source=0, seed=1)
        total = sum(len(r) for r in rounds)
        unique = len(np.unique(np.concatenate(rounds)))
        assert total >= unique  # re-relaxation happens

    def test_coloring_rounds_shrink_to_empty(self, graph):
        rounds = coloring_rounds(graph, seed=1)
        sizes = [len(r) for r in rounds]
        assert sizes[0] == graph.num_vertices
        assert all(a > b for a, b in zip(sizes, sizes[1:]))


class TestRegistry:
    def test_table1_has_13_benchmarks(self):
        assert len(TABLE1_NAMES) == 13
        for name in TABLE1_NAMES:
            assert name in benchmark_names()

    def test_fig21_extra_benchmark_registered(self):
        assert get_benchmark("SA-elegans") is not None

    def test_unknown_benchmark_raises(self):
        with pytest.raises(HarnessError):
            get_benchmark("nope")

    def test_names_are_the_table_rows_in_order(self):
        """One name per row, in the order ``repro audit all`` prints."""
        assert benchmark_names() == (
            "AMR",
            "BFS-citation",
            "BFS-graph500",
            "GC-citation",
            "GC-graph500",
            "JOIN-uniform",
            "JOIN-gaussian",
            "Mandel",
            "MM-small",
            "MM-large",
            "SelfSim-dense",
            "SelfSim-sparse",
            "SA-thaliana",
            "SA-elegans",
            "SSSP-citation",
            "SSSP-graph500",
        )


@pytest.mark.parametrize("name", TABLE1_NAMES)
class TestBenchmarkBuilds:
    def test_dp_variant_valid(self, name):
        bench = get_benchmark(name)
        app = bench.dp(seed=1)
        app.validate(GPUConfig())
        assert uses_dynamic_parallelism(app)
        assert app.flat_items > 0

    def test_flat_variant_valid(self, name):
        bench = get_benchmark(name)
        app = bench.flat(seed=1)
        app.validate(GPUConfig())
        assert not uses_dynamic_parallelism(app)

    def test_flat_and_dp_agree_on_total_work(self, name):
        bench = get_benchmark(name)
        assert bench.flat(seed=1).flat_items == bench.dp(seed=1).flat_items

    def test_cta_resize_applies(self, name):
        bench = get_benchmark(name)
        app = bench.dp(seed=1, cta_threads=128)
        sizes = {
            req.cta_threads
            for spec in app.kernels
            for reqs in spec.child_requests.values()
            for req in reqs
        }
        assert sizes == {128}

    def test_default_threshold_within_sweep_range(self, name):
        bench = get_benchmark(name)
        assert bench.default_threshold <= max(bench.sweep_thresholds)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def sims(monkeypatch):
    """The benchmark's simulation module, whose set-up clears input caches."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import sims

    return sims


@pytest.fixture
def generated(monkeypatch):
    """The vertex count of each graph generated from here on.

    Every graph generator packs its edge list into CSR exactly once.
    """
    counts = []
    pack = graphs._csr_from_edges

    def counting(num_vertices, src, dst):
        counts.append(num_vertices)
        return pack(num_vertices, src, dst)

    monkeypatch.setattr(graphs, "_csr_from_edges", counting)
    return counts


class TestInputCaches:
    @pytest.mark.parametrize(
        "graph,vertices", [("citation", 12000), ("graph500", 1 << 14)]
    )
    def test_bfs_and_sssp_generate_their_graph_once(
        self, sims, generated, graph, vertices
    ):
        sims.clear_input_caches()
        get_benchmark(f"BFS-{graph}").flat(1)
        get_benchmark(f"SSSP-{graph}").flat(1)
        assert generated == [vertices]

    def test_perfbench_clearing_reaches_the_graph_cache(self, sims, generated):
        """The benchmark times set-up from cold; a cache its clearing rule
        cannot reach would make ``setup_s`` time warm inputs."""
        bench = get_benchmark("GC-citation")
        bench.flat(1)
        del generated[:]
        bench.flat(1)
        assert generated == []
        sims.clear_input_caches()
        bench.flat(1)
        assert generated == [4000]
