"""Memory-system model: a shared set-associative L2 in front of DRAM.

The paper's Fig. 17 attributes part of SPAWN's win to cache behaviour: when
child kernels execute long after the parent threads that spawned them, the
parent->child temporal locality is lost, and a storm of concurrent child
kernels thrashes the L2.  To expose those effects we model the L2 as a real
set-associative LRU cache and stream every CTA's line-granularity footprint
through it *in dispatch order* — so delay and interleaving directly translate
into extra misses.

Below the L2 sits DRAM: fixed-latency by default (per-access stall cycles
derived from the observed hit rate via
:meth:`repro.sim.config.MemoryConfig.stall_cycles`, divided by an MLP
factor), optionally with the bandwidth-congestion model of
:mod:`repro.sim.dram`.  Per-SMX L1 D-caches (Table II) are built when
``MemoryConfig.l1_enabled`` is set.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.sim.config import CacheConfig, MemoryConfig
from repro.sim.dram import DramBandwidthModel

#: (base_address_bytes, extent_bytes) — one contiguous region touched by a thread.
Region = Tuple[int, int]


class SetAssociativeCache:
    """LRU set-associative cache operating on line addresses."""

    __slots__ = ("config", "num_sets", "associativity", "line_bytes", "_sets",
                 "hits", "misses")

    def __init__(self, config: CacheConfig):
        self.config = config
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self.line_bytes = config.line_bytes
        # Each set is an insertion-ordered dict of tags, most-recently-used
        # last — dict lookup/delete makes every access O(1) instead of the
        # O(associativity) list scan (this is the simulator's hottest loop).
        self._sets: List[Dict[int, None]] = [{} for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    def flush(self) -> None:
        """Invalidate all lines (counters are preserved)."""
        self._sets = [{} for _ in range(self.num_sets)]

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def line_of(self, address: int) -> int:
        return address // self.line_bytes

    def access_line(self, line: int) -> bool:
        """Access one cache line; returns True on hit."""
        ways = self._sets[line % self.num_sets]
        if ways.pop(line, None) is not None:
            self.hits += 1
            ways[line] = True  # re-insert at MRU position
            return True
        self.misses += 1
        if len(ways) >= self.associativity:
            del ways[next(iter(ways))]  # evict LRU (oldest insertion)
        ways[line] = True
        return False

    def access_lines(self, lines: Iterable[int]) -> Tuple[int, int]:
        """Access a stream of lines; returns (hits, misses) for the stream."""
        hits = 0
        total = 0
        sets = self._sets
        num_sets = self.num_sets
        associativity = self.associativity
        for line in lines:
            total += 1
            ways = sets[line % num_sets]
            if ways.pop(line, None) is not None:
                hits += 1
                ways[line] = True
            else:
                if len(ways) >= associativity:
                    del ways[next(iter(ways))]
                ways[line] = True
        self.hits += hits
        self.misses += total - hits
        return hits, total - hits

    def contains_line(self, line: int) -> bool:
        """Non-mutating lookup (no LRU update, no counter update)."""
        return line in self._sets[line % self.num_sets]


class MemorySystem:
    """The shared L2 (plus optional per-SMX L1s) and the stall-time model."""

    #: Cache implementation; overridable so :mod:`repro.check` can swap in
    #: a naive reference LRU for differential validation.
    cache_cls = SetAssociativeCache

    def __init__(
        self,
        config: MemoryConfig,
        *,
        max_lines_per_cta: int = 4096,
        num_smx: int = 0,
    ):
        if max_lines_per_cta <= 0:
            raise ConfigError("max_lines_per_cta must be positive")
        self.config = config
        self.l2 = self.cache_cls(config.l2)
        self.l1s: List[SetAssociativeCache] = []
        if config.l1_enabled:
            if num_smx <= 0:
                raise ConfigError("l1_enabled requires num_smx > 0")
            self.l1s = [self.cache_cls(config.l1) for _ in range(num_smx)]
        self.dram = None
        if config.dram_peak_lines_per_cycle is not None:
            self.dram = DramBandwidthModel(
                config.dram_peak_lines_per_cycle, config.dram_window_cycles
            )
        self.max_lines_per_cta = max_lines_per_cta

    def region_lines(self, regions: Sequence[Region]) -> List[int]:
        """Line-granularity footprint of a CTA, in thread order.

        Consecutive duplicate lines (a warp walking within one line) are
        collapsed, mirroring intra-warp coalescing.  If the stream exceeds
        ``max_lines_per_cta`` it is stride-sampled — a heavyweight serial
        parent thread still exerts proportional cache pressure without
        dominating simulation cost.
        """
        line_bytes = self.l2.line_bytes
        lines: List[int] = []
        previous = None  # no line yet; any int, even -1, is a real line
        for base, extent in regions:
            if extent <= 0:
                continue
            first = base // line_bytes
            last = (base + extent - 1) // line_bytes
            for line in range(first, last + 1):
                if line != previous:
                    lines.append(line)
                    previous = line
        if len(lines) > self.max_lines_per_cta:
            step = len(lines) / self.max_lines_per_cta
            lines = [lines[int(i * step)] for i in range(self.max_lines_per_cta)]
        return lines

    def region_lines_arrays(
        self, bases: np.ndarray, extents: np.ndarray
    ) -> List[int]:
        """Vectorized :meth:`region_lines` for per-thread region arrays."""
        mask = extents > 0
        if not mask.all():
            bases = bases[mask]
            extents = extents[mask]
        if bases.size == 0:
            return []
        line_bytes = self.l2.line_bytes
        first = bases // line_bytes
        last = (bases + extents - 1) // line_bytes
        counts = (last - first + 1).astype(np.int64)
        total = int(counts.sum())
        # Expand [first_i .. last_i] ranges: repeat each first, then add a
        # per-region ramp built from a global arange minus segment offsets.
        starts = np.zeros(counts.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        ramp = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        lines = np.repeat(first, counts) + ramp
        # Collapse consecutive duplicates (intra-warp coalescing).
        if lines.size > 1:
            keep = np.empty(lines.size, dtype=bool)
            keep[0] = True
            np.not_equal(lines[1:], lines[:-1], out=keep[1:])
            lines = lines[keep]
        result = lines.tolist()
        if len(result) > self.max_lines_per_cta:
            step = len(result) / self.max_lines_per_cta
            result = [result[int(i * step)] for i in range(self.max_lines_per_cta)]
        return result

    def access_cta_arrays(
        self, bases: np.ndarray, extents: np.ndarray
    ) -> Tuple[int, int, float]:
        """Array-based :meth:`access_cta`."""
        lines = self.region_lines_arrays(bases, extents)
        if not lines:
            return 0, 0, 1.0
        hits, misses = self.l2.access_lines(lines)
        return hits, misses, hits / (hits + misses)

    def access_cta(self, regions: Sequence[Region]) -> Tuple[int, int, float]:
        """Stream a CTA's footprint through the L2.

        Returns ``(hits, misses, hit_rate)`` for this CTA's stream; the
        hit rate feeds the CTA's per-access stall time.
        """
        lines = self.region_lines(regions)
        if not lines:
            return 0, 0, 1.0
        hits, misses = self.l2.access_lines(lines)
        return hits, misses, hits / (hits + misses)

    def stall_cycles(self, hit_rate: float) -> float:
        return self.config.stall_cycles(hit_rate)

    # ------------------------------------------------------------------
    # Combined access + stall (the engine's entry points)
    # ------------------------------------------------------------------
    def cta_access(
        self, regions: Sequence[Region], smx_index: int = -1, now: float = 0.0
    ) -> Tuple[float, float]:
        """Stream a CTA's footprint; returns (stall per access, L2 hit rate).

        With L1s enabled and a valid ``smx_index``, lines first probe that
        SMX's L1; only L1 misses reach the shared L2 (so the reported L2
        hit rate is over L1 misses, as hardware counters report it).

        A single region (every contiguous child CTA, serial fallback and
        launch header) is fed to the caches as a ``range``: a lone region
        has no consecutive duplicates to collapse, and stride sampling
        indexes the arithmetic sequence directly, so the line stream is
        the one :meth:`region_lines` would build.
        """
        if len(regions) != 1:
            return self._access_lines(self.region_lines(regions), smx_index, now)
        base, extent = regions[0]
        if extent <= 0:
            return self._access_lines((), smx_index, now)
        line_bytes = self.l2.line_bytes
        first = base // line_bytes
        count = (base + extent - 1) // line_bytes - first + 1
        max_lines = self.max_lines_per_cta
        if count > max_lines:
            step = count / max_lines
            lines = [first + int(i * step) for i in range(max_lines)]
        else:
            lines = range(first, first + count)
        return self._access_lines(lines, smx_index, now)

    def cta_access_arrays(
        self, bases, extents, smx_index: int = -1, now: float = 0.0
    ) -> Tuple[float, float]:
        """Array-based :meth:`cta_access`."""
        return self._access_lines(
            self.region_lines_arrays(bases, extents), smx_index, now
        )

    def _access_lines(
        self, lines: Sequence[int], smx_index: int, now: float = 0.0
    ) -> Tuple[float, float]:
        if not lines:
            return self.config.stall_cycles(1.0), 1.0
        if self.l1s and 0 <= smx_index < len(self.l1s):
            l1 = self.l1s[smx_index]
            l1_hits = 0
            l2_lines = []
            for line in lines:
                if l1.access_line(line):
                    l1_hits += 1
                else:
                    l2_lines.append(line)
            l1_rate = l1_hits / len(lines)
            if l2_lines:
                h2, m2 = self.l2.access_lines(l2_lines)
                l2_rate = h2 / (h2 + m2)
                dram_factor = self._dram_factor(now, m2)
            else:
                l2_rate = 1.0
                dram_factor = 1.0
            return (
                self.config.stall_cycles_two_level(l1_rate, l2_rate, dram_factor),
                l2_rate,
            )
        hits, misses = self.l2.access_lines(lines)
        rate = hits / (hits + misses)
        dram_factor = self._dram_factor(now, misses)
        return self.config.stall_cycles(rate, dram_factor), rate

    def _dram_factor(self, now: float, misses: int) -> float:
        if self.dram is None:
            return 1.0
        return self.dram.record(now, misses)

    @property
    def hit_rate(self) -> float:
        return self.l2.hit_rate

    @property
    def l1_hit_rate(self) -> float:
        hits = sum(c.hits for c in self.l1s)
        total = sum(c.accesses for c in self.l1s)
        return hits / total if total else 0.0
