"""Benchmark abstraction: one row of the paper's Table I.

Every benchmark is an ``<application, input>`` pair that can materialize

* a **flat** variant — the non-DP implementation: one thread per work unit,
  all of the unit's work done serially in that thread (the paper's
  normalization baseline); and
* a **dp** variant — parent kernels whose heavy threads carry
  :class:`~repro.sim.kernel.ChildRequest` launch candidates.  Which
  candidates actually launch is the runtime policy's business
  (Baseline-DP / Offline-Search thresholds, SPAWN, DTBL).

A builder's offload minimum is the *structural* lower bound below which
the DP source simply has no launch site (offloading a handful of items
cannot fill a warp — Section III-A2's intra-warp inefficiency note); the
swept THRESHOLD of Fig. 5 sits on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import HarnessError, WorkloadError
from repro.sim.kernel import Application


class AddressAllocator:
    """Hands out disjoint byte ranges of the simulated address space.

    Workloads allocate one region per data structure (vertex array, edge
    array, matrix, ...) so the L2 model sees realistic, non-overlapping
    footprints with genuine parent<->child sharing inside each region.
    """

    def __init__(self, *, alignment: int = 128):
        if alignment <= 0:
            raise WorkloadError("alignment must be positive")
        self.alignment = alignment
        self._next = 0

    def alloc(self, nbytes: int) -> int:
        """Reserve ``nbytes`` and return the region's base address."""
        if nbytes <= 0:
            raise WorkloadError("allocation must be positive")
        base = self._next
        padded = -(-nbytes // self.alignment) * self.alignment
        self._next = base + padded
        return base

    @property
    def allocated_bytes(self) -> int:
        return self._next


@dataclass(frozen=True)
class Benchmark:
    """One row of the benchmark table (:mod:`repro.workloads.table`)."""

    name: str  # e.g. "BFS-graph500"
    application: str  # e.g. "Breadth-First Search"
    input_name: str  # e.g. "Graph 500"
    #: ``build(variant=, seed=, cta_threads=)``: the flat or dp Application.
    build: Callable[..., Application]
    #: THRESHOLD used by the unmodified (Baseline-DP) source code.
    default_threshold: int
    #: THRESHOLD values swept for Fig. 5 / Offline-Search.
    sweep_thresholds: Tuple[int, ...]

    def flat(self, seed: int = 1) -> Application:
        return self.build(variant="flat", seed=checked_seed(seed), cta_threads=None)

    def dp(self, seed: int = 1, cta_threads: Optional[int] = None) -> Application:
        return self.build(
            variant="dp", seed=checked_seed(seed), cta_threads=cta_threads
        )


def checked_seed(seed: int) -> int:
    """``seed``, or :class:`WorkloadError` for a negative one.

    numpy's generators reject a negative seed with a bare ``ValueError``,
    and some builders add an offset first, which would hide it.
    """
    if seed < 0:
        raise WorkloadError(f"seed must be >= 0, got {seed}")
    return seed


def get_benchmark(name: str) -> Benchmark:
    """The table row called ``name``."""
    table = _ensure_loaded()
    try:
        return table[name]
    except KeyError:
        known = ", ".join(table)
        raise HarnessError(f"unknown benchmark {name!r}; known: {known}") from None


def benchmark_names() -> Tuple[str, ...]:
    """Every registered benchmark, in table order."""
    return tuple(_ensure_loaded())


def _ensure_loaded() -> Dict[str, Benchmark]:
    """The benchmark table, which imports every workload module.

    Imported here, not at the top, because the workload modules import
    this one.
    """
    from repro.workloads.table import BENCHMARKS

    return BENCHMARKS
