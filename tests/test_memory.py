"""Unit tests for the L2 cache model and memory system."""

import numpy as np
import pytest

from repro.check.reference import ReferenceMemorySystem
from repro.errors import ConfigError
from repro.sim.config import CacheConfig, MemoryConfig
from repro.sim.memory import MemorySystem, SetAssociativeCache


def tiny_cache(sets=4, assoc=2, line=128) -> SetAssociativeCache:
    return SetAssociativeCache(
        CacheConfig(size_bytes=sets * assoc * line, line_bytes=line, associativity=assoc)
    )


class TestSetAssociativeCache:
    def test_first_access_misses_second_hits(self):
        cache = tiny_cache()
        assert cache.access_line(7) is False
        assert cache.access_line(7) is True
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_within_set(self):
        cache = tiny_cache(sets=1, assoc=2)
        cache.access_line(0)
        cache.access_line(1)
        cache.access_line(2)  # evicts 0
        assert cache.access_line(0) is False
        assert cache.contains_line(2)

    def test_lru_refresh_on_hit(self):
        cache = tiny_cache(sets=1, assoc=2)
        cache.access_line(0)
        cache.access_line(1)
        cache.access_line(0)  # 1 becomes LRU
        cache.access_line(2)  # evicts 1
        assert cache.contains_line(0)
        assert not cache.contains_line(1)

    def test_different_sets_do_not_conflict(self):
        cache = tiny_cache(sets=4, assoc=1)
        for line in range(4):
            cache.access_line(line)
        for line in range(4):
            assert cache.contains_line(line)

    def test_capacity_never_exceeded(self):
        cache = tiny_cache(sets=2, assoc=2)
        for line in range(100):
            cache.access_line(line)
        total = sum(len(s) for s in cache._sets)
        assert total <= 4

    def test_access_lines_returns_hit_miss_counts(self):
        cache = tiny_cache()
        hits, misses = cache.access_lines([1, 2, 1, 2, 3])
        assert (hits, misses) == (2, 3)

    def test_flush_preserves_counters(self):
        cache = tiny_cache()
        cache.access_line(5)
        cache.flush()
        assert not cache.contains_line(5)
        assert cache.misses == 1

    def test_reset_counters(self):
        cache = tiny_cache()
        cache.access_line(5)
        cache.reset_counters()
        assert cache.accesses == 0

    def test_hit_rate_empty_is_zero(self):
        assert tiny_cache().hit_rate == 0.0

    def test_line_of(self):
        cache = tiny_cache(line=128)
        assert cache.line_of(0) == 0
        assert cache.line_of(127) == 0
        assert cache.line_of(128) == 1


def make_memory(**kwargs) -> MemorySystem:
    return MemorySystem(MemoryConfig(), **kwargs)


class TestMemorySystem:
    def test_region_lines_spans_lines(self):
        mem = make_memory()
        lines = mem.region_lines([(0, 256)])  # two 128B lines
        assert lines == [0, 1]

    def test_region_lines_collapses_consecutive_duplicates(self):
        mem = make_memory()
        lines = mem.region_lines([(0, 64), (64, 64)])
        assert lines == [0]

    def test_region_lines_skips_empty_regions(self):
        mem = make_memory()
        assert mem.region_lines([(0, 0), (128, -4)]) == []

    def test_region_lines_sampled_when_too_long(self):
        mem = make_memory(max_lines_per_cta=10)
        lines = mem.region_lines([(0, 128 * 1000)])
        assert len(lines) == 10

    def test_array_and_tuple_paths_agree(self):
        mem_a = make_memory()
        mem_b = make_memory()
        bases = np.array([0, 512, 4096], dtype=np.int64)
        extents = np.array([256, 128, 300], dtype=np.int64)
        regions = list(zip(bases.tolist(), extents.tolist()))
        assert mem_a.region_lines(regions) == mem_b.region_lines_arrays(bases, extents)

    @pytest.mark.parametrize("regions", [
        [(-128, 128)],
        [(-1, 1)],
        [(-129, 2)],
        [(-256, 384)],
        [(-128, 64), (-64, 64)],
        [(-128, 128), (0, 128)],
        [(0, 128), (-128, 128)],
        [(-384, 128), (-128, 0), (-128, 128)],
    ])
    def test_line_minus_one_is_a_real_line(self, regions):
        bases = np.array([b for b, _ in regions], dtype=np.int64)
        extents = np.array([e for _, e in regions], dtype=np.int64)
        lines = make_memory().region_lines(regions)
        assert -1 in lines
        assert lines == make_memory().region_lines_arrays(bases, extents)
        # A fresh L2 misses every line, whichever path streams them.
        results = {
            make_memory().cta_access(regions),
            ReferenceMemorySystem(MemoryConfig()).cta_access(regions),
            make_memory().cta_access_arrays(bases, extents),
        }
        assert len(results) == 1 and results.pop()[1] == 0.0

    def test_access_cta_reports_hit_rate(self):
        mem = make_memory()
        hits, misses, rate = mem.access_cta([(0, 256)])
        assert (hits, misses, rate) == (0, 2, 0.0)
        hits, misses, rate = mem.access_cta([(0, 256)])
        assert (hits, misses, rate) == (2, 0, 1.0)

    def test_access_cta_empty_is_perfect(self):
        assert make_memory().access_cta([]) == (0, 0, 1.0)

    def test_access_cta_arrays_matches_tuples(self):
        mem_a = make_memory()
        mem_b = make_memory()
        bases = np.array([0, 1024], dtype=np.int64)
        extents = np.array([512, 512], dtype=np.int64)
        res_a = mem_a.access_cta(list(zip(bases.tolist(), extents.tolist())))
        res_b = mem_b.access_cta_arrays(bases, extents)
        assert res_a == res_b

    def test_eviction_degrades_reuse(self):
        """A working set larger than the L2 loses its reuse."""
        small = MemorySystem(
            MemoryConfig(l2=CacheConfig(size_bytes=4 * 1024, line_bytes=128, associativity=2))
        )
        footprint = [(0, 32 * 1024)]  # 8x the cache
        small.access_cta(footprint)
        _, _, rate = small.access_cta(footprint)
        assert rate == 0.0

    def test_rejects_bad_sampling_cap(self):
        with pytest.raises(ConfigError):
            make_memory(max_lines_per_cta=0)

    def test_stall_cycles_delegates_to_config(self):
        mem = make_memory()
        assert mem.stall_cycles(1.0) == mem.config.stall_cycles(1.0)
