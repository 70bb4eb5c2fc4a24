"""Grid Management Unit: pending kernel pool, SWQ->HWQ binding, dispatch.

Semantics reproduced from the paper's Section II-C:

* Kernels carry a software work queue (SWQ / ``c_stream``) ID.  Kernels in
  the same SWQ execute **sequentially**; kernels in different SWQs may run
  concurrently.
* There are 32 hardware work queues (HWQs), so at most 32 kernels execute
  concurrently.  A SWQ with pending work must be *bound* to a free HWQ
  before its head kernel's CTAs can be dispatched; binding is FCFS
  (``bind_policy="acs"`` reorders it, see :meth:`GMU._acs_select`).
* Time a kernel spends in the GMU before its first CTA dispatches is the
  paper's *queuing latency*.

The GMU does not pick SMXs itself — the engine walks the executing kernels
round-robin and places CTAs wherever resources allow (RR CTA scheduler,
Table II).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Container, Deque, Dict, Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.tracer import HWQ_BIND, HWQ_RELEASE, NULL_TRACER, Tracer
from repro.sim.config import GPUConfig
from repro.sim.instances import KernelInstance, KernelState


class GMU:
    """Pending-kernel pool and HWQ occupancy tracking."""

    def __init__(
        self,
        config: GPUConfig,
        *,
        tracer: Tracer = NULL_TRACER,
        bind_policy: str = "fcfs",
    ):
        self.config = config
        #: Observability sink; events are stamped with the tracer's bound
        #: clock (the GMU has no clock of its own).
        self.tracer = tracer
        #: SWQ→HWQ binding order.  ``"fcfs"`` is the paper's hardware
        #: (strict arrival order); ``"acs"`` reorders binding by a
        #: dependency-aware priority (ACS-style concurrent-kernel
        #: scheduling, arXiv:2401.12377) while keeping within-stream FIFO
        #: semantics untouched.
        if bind_policy not in ("fcfs", "acs"):
            raise SimulationError(f"unknown bind_policy {bind_policy!r}")
        self.bind_policy = bind_policy
        #: SWQ id -> FIFO of kernels submitted to that stream.
        self._streams: Dict[int, Deque[KernelInstance]] = {}
        #: SWQ ids currently bound to a HWQ (insertion ordered).
        self._bound: Dict[int, None] = {}
        #: SWQ ids waiting for a HWQ, in arrival order (insertion ordered,
        #: so membership is one lookup and FCFS binds the first key).
        self._wait_order: Dict[int, None] = {}
        #: ACS binding order: one ``(-depth, CTAs, arrival, swq)`` entry per
        #: waiting stream, pushed when it starts waiting (None under FCFS);
        #: the arrival is ``kernels_submitted`` at that moment.
        self._acs_heap: Optional[List[Tuple[int, int, int, int]]] = (
            [] if bind_policy == "acs" else None
        )
        #: Round-robin cursor over bound streams for CTA dispatch.
        self._rr_cursor = 0
        #: Cache of self._bound keys; rebuilt when bindings change.
        self._bound_list: List[int] = []
        #: Bound-stream heads in EXECUTING state that still have
        #: undispatched CTAs, as far as the GMU has been told: a head
        #: enters on PENDING -> EXECUTING and leaves when the engine
        #: reports its last CTA taken (:meth:`note_cta_taken`).  Never
        #: below the true count, so zero means a dispatch scan would
        #: yield nothing.
        self._dispatchable = 0
        # Telemetry.
        self.peak_pending_kernels = 0
        self.kernels_submitted = 0
        self._pending_count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_bound(self) -> int:
        return len(self._bound)

    @property
    def num_waiting_streams(self) -> int:
        return len(self._wait_order)

    @property
    def pending_kernels(self) -> int:
        return self._pending_count

    def executing_kernels(self) -> List[KernelInstance]:
        """Head kernels of every bound stream (the <=32 running kernels)."""
        heads = []
        for swq in self._bound:
            queue = self._streams.get(swq)
            if queue:
                heads.append(queue[0])
        return heads

    # ------------------------------------------------------------------
    # Submission / binding
    # ------------------------------------------------------------------
    def submit(self, kernel: KernelInstance) -> None:
        """A kernel arrives in the pending pool (post launch overhead)."""
        swq = kernel.stream_id
        queue = self._streams.setdefault(swq, deque())
        queue.append(kernel)
        self.kernels_submitted += 1
        self._pending_count += 1
        if self._pending_count > self.peak_pending_kernels:
            self.peak_pending_kernels = self._pending_count
        if swq in self._bound:
            self._refresh_head(swq)
        elif swq not in self._wait_order:
            # The stream was empty: ``kernel`` is its head while it waits.
            self._wait_order[swq] = None
            heap = self._acs_heap
            if heap is not None:
                heappush(
                    heap,
                    (-kernel.spec.depth, kernel.unfinished_ctas,
                     self.kernels_submitted, swq),
                )
            self._bind_waiting_streams()

    def _bind_waiting_streams(self) -> None:
        select = (
            self._acs_select if self.bind_policy == "acs" else self._fcfs_select
        )
        while self._wait_order and len(self._bound) < self.config.num_hwq:
            swq = select()
            if not self._streams.get(swq):
                continue
            self._bound[swq] = None
            self._bound_list.append(swq)
            if self.tracer.enabled:
                self.tracer.emit(HWQ_BIND, swq=swq, bound=len(self._bound))
            self._refresh_head(swq)

    def _fcfs_select(self) -> int:
        """Pop the longest-waiting SWQ (the paper's FCFS binding)."""
        swq = next(iter(self._wait_order))
        del self._wait_order[swq]
        return swq

    def _acs_select(self) -> int:
        """Pop the highest-priority waiting SWQ (ACS binding order).

        Deeper head kernels are descendants that suspended ancestors are
        waiting on (their completion unblocks device-synchronized parents),
        so they bind first; among equals the stream whose head has the
        fewest remaining CTAs wins (shortest-job-first drains HWQs
        fastest); FCFS arrival position breaks remaining ties.  Only
        cross-stream binding order changes — within a stream the kernel
        FIFO is untouched.

        A waiting stream's head is the kernel that started the wait: only
        a bound stream's head retires, so it stays the head and keeps
        every CTA undispatched until the stream binds.  Its rank is
        therefore fixed when the wait starts, and binding is a heap pop.
        """
        swq = heappop(self._acs_heap)[3]
        del self._wait_order[swq]
        return swq

    def _refresh_head(self, swq: int) -> None:
        queue = self._streams.get(swq)
        if queue and queue[0].state is KernelState.PENDING:
            head = queue[0]
            head.state = KernelState.EXECUTING
            if head.next_cta_index < head.num_ctas:
                self._dispatchable += 1

    def note_cta_taken(self, kernel: KernelInstance) -> None:
        """Engine hook: a CTA index of a yielded head was just consumed."""
        if kernel.next_cta_index >= kernel.num_ctas:
            self._dispatchable -= 1

    # ------------------------------------------------------------------
    # Dispatch iteration
    # ------------------------------------------------------------------
    def can_dispatch(self) -> bool:
        """False only when no bound head has a CTA left to dispatch.

        The engine skips a whole dispatch pass on False: the scan
        :meth:`dispatchable_kernels` would make yields nothing then.
        """
        return self._dispatchable > 0

    def dispatchable_kernels(
        self, skip: Container[tuple] = ()
    ) -> Iterator[KernelInstance]:
        """Bound-stream head kernels with undispatched CTAs, round-robin.

        The cursor persists across calls so successive dispatch rounds
        rotate fairly over streams, like the RR CTA scheduler in Table II.
        When no head can dispatch (the steady state) the scan is skipped
        without touching the cursor, which is also what a fruitless scan
        leaves behind.

        ``skip`` holds CTA shapes the caller already knows cannot fit (a
        dispatch pass's failed shapes, a set that may grow between
        yields).  A head of such a shape moves the cursor exactly as a
        yielded head the caller fails to place would, but is not yielded.
        """
        if self._dispatchable <= 0:
            return iter(())
        return self._scan_heads(skip)

    def _scan_heads(self, skip: Container[tuple]) -> Iterator[KernelInstance]:
        # The dispatch loop's inner scan: the head checks are plain
        # attribute reads (no property dispatch).
        bound = self._bound_list
        if not bound:
            return
        n = len(bound)
        start = self._rr_cursor % n
        streams = self._streams
        executing = KernelState.EXECUTING
        for offset in range(n):
            index = start + offset
            if index >= n:
                index -= n
            queue = streams.get(bound[index])
            if not queue:
                continue
            head = queue[0]
            if head.state is executing and head.next_cta_index < head.num_ctas:
                self._rr_cursor = (index + 1) % n
                if head.shape in skip:
                    continue
                yield head

    # ------------------------------------------------------------------
    # Completion / suspension
    # ------------------------------------------------------------------
    def on_kernel_complete(self, kernel: KernelInstance) -> None:
        """Retire the head kernel of its stream; rebind HWQs as needed."""
        self._retire(kernel, KernelState.COMPLETE)

    def on_kernel_suspended(self, kernel: KernelInstance) -> None:
        """A kernel's CTAs all finished computing but descendants live.

        It no longer executes anything, so it stops occupying a HWQ (the
        Kepler GMU suspends such grids back to the pending pool).  Without
        this, nested dynamic parallelism deadlocks: 32 waiting parents
        would starve the grandchildren they are waiting on.
        """
        self._retire(kernel, KernelState.PENDING)

    def _retire(self, kernel: KernelInstance, state: KernelState) -> None:
        swq = kernel.stream_id
        queue = self._streams.get(swq)
        if not queue or queue[0] is not kernel:
            raise SimulationError(
                f"kernel {kernel.spec.name!r} retired but is not the head "
                f"of stream {swq}"
            )
        queue.popleft()
        self._pending_count -= 1
        kernel.state = state
        if queue:
            self._refresh_head(swq)
        else:
            del self._streams[swq]
            if swq in self._bound:
                del self._bound[swq]
                self._bound_list.remove(swq)
                if self.tracer.enabled:
                    self.tracer.emit(HWQ_RELEASE, swq=swq, bound=len(self._bound))
                self._bind_waiting_streams()

    def drained(self) -> bool:
        return not self._streams and not self._wait_order
