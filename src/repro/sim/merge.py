"""Merged child-kernel construction for consolidate / aggregate schemes.

Both merging schemes buffer admitted :class:`~repro.sim.kernel.ChildRequest`
launches and submit them later as one coarser kernel.  This module builds
that kernel's :class:`~repro.sim.kernel.KernelSpec`.

**CTA conservation.**  The merged grid must contain exactly as many CTAs as
the constituents would have launched individually (the conformance checker
enforces this), so each constituent's thread block is zero-padded to a
multiple of the CTA size before concatenation:

* ``n_i >= cta_threads``: the constituent's own spec uses
  ``threads_per_cta == cta_threads`` too, so padding to a multiple keeps
  ``ceil(n_i / cta_threads)`` CTAs exactly;
* ``n_i < cta_threads``: the constituent's own spec shrinks its CTA to
  ``n_i`` threads (one CTA); padded to ``cta_threads`` it still occupies
  exactly one CTA of the merged grid.

Zero-item pad threads are inert: they contribute no work items, and their
zero-extent memory regions are masked out of the footprint model
(:meth:`repro.sim.memory.MemorySystem.region_lines_arrays` skips
``extents <= 0``).

The engine never builds these arrays: it launches the closed form of the
merged grid, :class:`repro.sim.engine.MergedGridPlan`, which plans each
merged CTA as one constituent's child CTA plus pad threads.  The
:class:`KernelSpec` built here is what the reference simulator runs, and
what the engine runs under the test-only ``merge_bug="unpadded"``.  It
sets ``contiguous_footprint=False``, so its dispatch plan
(:class:`repro.sim.engine.GridPlan`) finds each CTA's exact per-warp
maxima and checks whether its positive-extent regions tile one range.
A padded merged CTA holds the threads of one constituent, whose regions
tile, plus zero-extent pads, so every such CTA streams its footprint as
one ``(base, extent)`` range.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.sim.kernel import ChildRequest, KernelSpec


def merge_key(req: ChildRequest) -> Tuple:
    """Compatibility key: requests merge only when these fields agree.

    A merged kernel has a single CTA geometry and per-item cost model, so
    requests that disagree on any of them go into separate merged kernels
    (mirroring the real constraint that aggregated launches share one
    kernel function and block shape).
    """
    return (
        req.cta_threads,
        req.items_per_thread,
        req.regs_per_thread,
        req.shmem_per_cta,
        req.cycles_per_item,
        req.accesses_per_item,
        req.mem_stride,
    )


def build_merged_spec(
    requests: Sequence[ChildRequest],
    *,
    depth: int,
    unpadded: bool = False,
) -> KernelSpec:
    """One :class:`KernelSpec` covering every request in ``requests``.

    All requests must share a :func:`merge_key` (the caller groups by it).
    The CTA width, per-item costs, registers and shared memory are the
    first request's; each constituent keeps its own ``items_per_thread``.
    A group whose strides differ, or a request changed after construction
    into one that describes no grid, raises
    :class:`~repro.errors.WorkloadError`.

    ``unpadded=True`` is a TEST-ONLY seeded bug: constituents are
    concatenated without the conservation padding, so the merged grid can
    repack threads across CTA boundaries and launch *fewer* CTAs than the
    constituents — exactly the error the checker's conservation invariant
    exists to catch.  Never set outside tests.
    """
    if not requests:
        raise WorkloadError("cannot merge zero requests")
    first = requests[0]
    name = f"{first.name}+merge{len(requests)}"
    tpc = first.cta_threads
    if tpc <= 0:
        raise WorkloadError("child CTA dimensions must be positive")
    items_parts: List[np.ndarray] = []
    bases_parts: List[np.ndarray] = []
    child_requests = {}
    offset = 0
    for req in requests:
        if req.items_per_thread <= 0:
            raise WorkloadError("child CTA dimensions must be positive")
        if req.mem_stride != first.mem_stride:
            # Bases step by the request's stride, extents by the first's.
            raise WorkloadError("merged requests must share one mem_stride")
        n = req.num_threads
        if n <= 0:
            raise WorkloadError(f"kernel {name!r} needs a 1-D non-empty grid")
        items = np.full(n, req.items_per_thread, dtype=np.int64)
        items[-1] = req.items - (n - 1) * req.items_per_thread
        bases = (
            req.mem_base
            + np.arange(n, dtype=np.int64)
            * req.items_per_thread
            * req.mem_stride
        )
        pad = 0 if unpadded else (-n) % tpc
        if pad:
            items = np.concatenate([items, np.zeros(pad, dtype=np.int64)])
            bases = np.concatenate([bases, np.zeros(pad, dtype=np.int64)])
        items_parts.append(items)
        bases_parts.append(bases)
        for tid, reqs in req.nested.items():
            child_requests[offset + tid] = reqs  # KernelSpec normalizes
        offset += n + pad
    thread_items = (
        np.concatenate(items_parts) if len(items_parts) > 1 else items_parts[0]
    )
    mem_bases = (
        np.concatenate(bases_parts) if len(bases_parts) > 1 else bases_parts[0]
    )
    return KernelSpec(
        name=name,
        threads_per_cta=min(tpc, int(thread_items.size)),
        thread_items=thread_items,
        regs_per_thread=first.regs_per_thread,
        shmem_per_cta=first.shmem_per_cta,
        cycles_per_item=first.cycles_per_item,
        accesses_per_item=first.accesses_per_item,
        mem_bases=mem_bases,
        mem_stride=first.mem_stride,
        child_requests=child_requests,
        depth=depth,
        contiguous_footprint=False,
    )
