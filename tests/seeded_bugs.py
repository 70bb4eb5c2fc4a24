"""Seeded bugs: simulator parts with one guarded behaviour broken.

The conformance tests run these in place of the real parts to prove that
the invariant checker and the golden-trace diff are live: each class
overrides one method of :class:`~repro.sim.gmu.GMU` or
:class:`~repro.sim.engine.GPUSimulator`, and the matching clean run must
stay free of violations.

* :class:`LIFOBindGMU` binds the most recently waiting SWQ first,
  breaking the FCFS binding of the paper's GMU (Section II-C).
* :class:`ReversedRoundRobinGMU` scans bound streams in reverse
  round-robin order.  It is a fairness bug that breaks no local
  invariant, so only the trace diff sees it.
* :class:`UnguardedACSGMU` reverses a stream's kernel FIFO when ACS binds
  it, dropping the same-stream order ACS must keep (arXiv:2401.12377).
* :class:`UnpaddedMergeSimulator` concatenates a merged kernel's
  constituents without the zero-pad, so threads repack across CTA
  boundaries and the merged grid can launch fewer CTAs than its
  constituents: CTA conservation breaks.
* :class:`CrossWarpMergeSimulator` groups warp-scope aggregation by
  merge key alone, so requests of different warps merge: the scope bound
  breaks.
"""

from collections import deque

import numpy as np

from repro.check.reference import spec_from_request
from repro.sim.engine import GPUSimulator
from repro.sim.gmu import GMU
from repro.sim.instances import KernelState
from repro.sim.kernel import KernelSpec
from repro.sim.merge import merge_key


class LIFOBindGMU(GMU):
    def _fcfs_select(self) -> int:
        return self._wait_order.popitem()[0]


class ReversedRoundRobinGMU(GMU):
    def _scan_heads(self, skip):
        bound = self._bound_list
        if not bound:
            return
        n = len(bound)
        start = self._rr_cursor % n
        for offset in range(n - 1, -1, -1):
            index = (start + offset) % n
            queue = self._streams.get(bound[index])
            if not queue:
                continue
            head = queue[0]
            if (head.state is KernelState.EXECUTING
                    and head.next_cta_index < head.num_ctas):
                self._rr_cursor = (index + 1) % n
                if head.shape in skip:
                    continue
                yield head


class UnguardedACSGMU(GMU):
    def _acs_select(self) -> int:
        swq = super()._acs_select()
        queue = self._streams.get(swq)
        if queue and len(queue) > 1:
            self._streams[swq] = deque(reversed(queue))
        return swq


def unpadded_merged_spec(requests, *, depth: int) -> KernelSpec:
    """``build_merged_spec(requests)`` without the zero-pad: the
    constituents' child grids concatenated thread for thread."""
    parts = [spec_from_request(req, depth=depth) for req in requests]
    child_requests = {}
    offset = 0
    for part in parts:
        for tid, reqs in part.child_requests.items():
            child_requests[offset + tid] = reqs
        offset += part.num_threads
    first = requests[0]
    return KernelSpec(
        name=f"{first.name}+merge{len(requests)}",
        threads_per_cta=min(first.cta_threads, offset),
        thread_items=np.concatenate([part.thread_items for part in parts]),
        regs_per_thread=first.regs_per_thread,
        shmem_per_cta=first.shmem_per_cta,
        cycles_per_item=first.cycles_per_item,
        accesses_per_item=first.accesses_per_item,
        mem_bases=np.concatenate([part.mem_bases for part in parts]),
        mem_stride=first.mem_stride,
        child_requests=child_requests,
        depth=depth,
        contiguous_footprint=False,
    )


class UnpaddedMergeSimulator(GPUSimulator):
    def _merged_grid(self, reqs, depth):
        return unpadded_merged_spec(reqs, depth=depth)


class CrossWarpMergeSimulator(GPUSimulator):
    def _buffer_merge(self, cta, decision, req, now, warp_groups):
        if self._merge_scope == "warp":
            entry = (cta, decision, req)
            warp_groups.setdefault((0, merge_key(req)), []).append(entry)
            return
        super()._buffer_merge(cta, decision, req, now, warp_groups)
