"""Kernel, CTA, and per-thread work descriptions.

The simulator models GPU work at the granularity the paper's mechanism
operates on: kernels are grids of CTAs, CTAs are groups of warps, and every
thread carries an integer number of *work items* (edges to traverse, columns
to multiply, candidate locations to score, ...).  A work item costs
``cycles_per_item`` compute cycles plus ``accesses_per_item`` memory accesses
whose stall time depends on the L2 behaviour at execution time.

Dynamic parallelism enters through :class:`ChildRequest`: a parent thread may
carry a description of the child kernel it *would* launch for its local
workload.  Whether the launch actually happens is decided at runtime by the
active :class:`~repro.core.policies.LaunchPolicy` (Baseline-DP always
launches above a static THRESHOLD; SPAWN consults the CCQS model).  When the
launch is declined, the thread performs the same ``items`` serially — one
item per loop iteration, which is why the paper's Equation 2 estimates the
serial time as ``workload x t_warp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ResourceError, WorkloadError
from repro.sim.config import WARP_SIZE, GPUConfig


@dataclass
class ChildRequest:
    """A potential device-side kernel launch attached to one parent thread.

    ``items`` is the amount of offloadable work.  If launched, the child
    kernel has ``ceil(items / items_per_thread)`` threads organised into CTAs
    of ``cta_threads`` threads.  If declined, the parent thread executes the
    same ``items`` serially at the child's per-item cost.

    ``nested`` maps child-thread indices to their own :class:`ChildRequest`
    lists, which is how nested launching applications (AMR) are expressed.

    ``at_fraction`` places the launch *call* within the parent thread's
    execution: 0.0 means the thread evaluates the launch as soon as its CTA
    starts (the BFS pattern — read workload, compare, launch), while a
    grid-stride parent that processes many units sequentially spreads its
    calls across (0, 1).  This is what spaces launch decisions out in time
    and lets SPAWN's monitored metrics converge mid-run (Section IV-A,
    "Accuracy").
    """

    name: str
    items: int
    cta_threads: int
    items_per_thread: int = 1
    regs_per_thread: int = 16
    shmem_per_cta: int = 0
    cycles_per_item: float = 20.0
    accesses_per_item: float = 1.0
    mem_base: int = 0
    mem_stride: int = 4
    at_fraction: float = 0.0
    nested: Dict[int, List["ChildRequest"]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.items <= 0:
            raise WorkloadError(f"child request {self.name!r} with items <= 0")
        if self.cta_threads <= 0 or self.items_per_thread <= 0:
            raise WorkloadError("child CTA dimensions must be positive")
        if self.cycles_per_item < 0 or self.accesses_per_item < 0:
            raise WorkloadError("per-item costs must be non-negative")
        if not 0.0 <= self.at_fraction <= 1.0:
            raise WorkloadError("at_fraction must be within [0, 1]")
        self.nested = normalize_requests(self.nested)
        for tid in self.nested:
            if tid < 0 or tid >= self.num_threads:
                raise WorkloadError(
                    f"nested request bound to thread {tid} outside child grid"
                )

    @property
    def num_threads(self) -> int:
        return math.ceil(self.items / self.items_per_thread)

    @property
    def num_ctas(self) -> int:
        return math.ceil(self.num_threads / self.cta_threads)


def check_cta_fits(name: str, shape, config: GPUConfig) -> None:
    """Raise :class:`ResourceError` if a CTA of ``shape`` (threads,
    registers, shared-memory bytes) can never fit on one empty SMX."""
    threads, regs, shmem = shape
    if threads > config.max_threads_per_smx:
        raise ResourceError(
            f"kernel {name!r}: {threads} threads/CTA "
            f"exceeds SMX thread limit {config.max_threads_per_smx}"
        )
    if regs > config.registers_per_smx:
        raise ResourceError(
            f"kernel {name!r}: CTA needs {regs} registers, SMX has "
            f"{config.registers_per_smx}"
        )
    if shmem > config.shared_mem_per_smx:
        raise ResourceError(
            f"kernel {name!r}: CTA needs {shmem}B shared "
            f"memory, SMX has {config.shared_mem_per_smx}B"
        )


def normalize_requests(mapping) -> Dict[int, List[ChildRequest]]:
    """Accept {tid: request} or {tid: [requests...]} and return the latter."""
    normalized: Dict[int, List[ChildRequest]] = {}
    for tid, value in mapping.items():
        if isinstance(value, ChildRequest):
            normalized[tid] = [value]
        else:
            reqs = list(value)
            if not reqs or not all(isinstance(r, ChildRequest) for r in reqs):
                raise WorkloadError(
                    f"thread {tid}: child requests must be ChildRequest instances"
                )
            normalized[tid] = reqs
    return normalized


@dataclass
class KernelSpec:
    """Static description of one kernel grid.

    ``thread_items[t]`` is the work thread ``t`` always performs itself
    (reading its vertex record, comparing against THRESHOLD, the serial loop
    for small workloads in a flat variant, ...).  ``child_requests`` attaches
    offloadable work to individual threads.
    """

    name: str
    threads_per_cta: int
    thread_items: np.ndarray
    regs_per_thread: int = 24
    shmem_per_cta: int = 0
    cycles_per_item: float = 20.0
    accesses_per_item: float = 1.0
    mem_bases: Optional[np.ndarray] = None
    mem_stride: int = 4
    child_requests: Dict[int, List[ChildRequest]] = field(default_factory=dict)
    #: Items of the offloadable range the parent touches even when it
    #: launches a child (frontier/header reads) — the source of the
    #: parent<->child locality the paper's Fig. 17 discussion relies on.
    header_items: int = 2
    #: Nesting depth: 0 for host-launched kernels, >=1 for device-launched.
    depth: int = 0
    #: True when per-thread regions tile one contiguous range in thread
    #: order (child grids materialized from a ChildRequest).  Lets the
    #: engine hand the cache model one region instead of one per thread.
    contiguous_footprint: bool = False

    def __post_init__(self) -> None:
        self.thread_items = np.asarray(self.thread_items, dtype=np.int64)
        if self.thread_items.ndim != 1 or self.thread_items.size == 0:
            raise WorkloadError(f"kernel {self.name!r} needs a 1-D non-empty grid")
        if self.thread_items.min() < 0:
            raise WorkloadError("thread_items must be non-negative")
        if self.threads_per_cta <= 0:
            raise WorkloadError("threads_per_cta must be positive")
        if self.cycles_per_item < 0 or self.accesses_per_item < 0:
            raise WorkloadError("per-item costs must be non-negative")
        if self.mem_bases is not None:
            self.mem_bases = np.asarray(self.mem_bases, dtype=np.int64)
            if self.mem_bases.shape != self.thread_items.shape:
                raise WorkloadError("mem_bases must align with thread_items")
        self.child_requests = normalize_requests(self.child_requests)
        for tid in self.child_requests:
            if tid < 0 or tid >= self.num_threads:
                raise WorkloadError(
                    f"child request bound to thread {tid} outside kernel grid"
                )

    @property
    def num_threads(self) -> int:
        return int(self.thread_items.size)

    @property
    def num_ctas(self) -> int:
        return math.ceil(self.num_threads / self.threads_per_cta)

    @property
    def warps_per_cta(self) -> int:
        return math.ceil(self.threads_per_cta / WARP_SIZE)

    def cta_thread_range(self, cta_index: int) -> range:
        """Global thread indices covered by CTA ``cta_index``."""
        if not 0 <= cta_index < self.num_ctas:
            raise WorkloadError(
                f"CTA index {cta_index} outside grid of {self.num_ctas}"
            )
        start = cta_index * self.threads_per_cta
        stop = min(start + self.threads_per_cta, self.num_threads)
        return range(start, stop)

    def check_fits(self, config: GPUConfig) -> None:
        """Raise :class:`ResourceError` if a CTA can never fit on one SMX."""
        check_cta_fits(
            self.name,
            (
                self.threads_per_cta,
                self.threads_per_cta * self.regs_per_thread,
                self.shmem_per_cta,
            ),
            config,
        )

    def total_child_items(self) -> int:
        """Offloadable work items attached to this kernel's threads."""
        return sum(
            req.items for reqs in self.child_requests.values() for req in reqs
        )

    def num_child_requests(self) -> int:
        return sum(len(reqs) for reqs in self.child_requests.values())

    def total_items(self) -> int:
        """All work items: unconditional plus offloadable."""
        return int(self.thread_items.sum()) + self.total_child_items()


@dataclass
class Application:
    """A host program: kernels launched sequentially with host sync between.

    ``flat_items`` lets a workload report the total amount of real work so
    the harness can compute the fraction executed inside child kernels
    (the x-axis of the paper's Fig. 5).
    """

    name: str
    kernels: Sequence[KernelSpec]
    flat_items: int = 0

    def __post_init__(self) -> None:
        if not self.kernels:
            raise WorkloadError(f"application {self.name!r} has no kernels")
        if self.flat_items < 0:
            raise WorkloadError("flat_items must be non-negative")

    def validate(self, config: GPUConfig) -> None:
        for spec in self.kernels:
            spec.check_fits(config)


def uses_dynamic_parallelism(app: Application) -> bool:
    """True if any kernel in the application can launch children."""
    return any(spec.child_requests for spec in app.kernels)
