"""Runtime state for kernels and CTAs inside the simulator.

:class:`KernelSpec` (static description) becomes a :class:`KernelInstance`
when submitted to the GPU; each dispatched CTA becomes a
:class:`CTAInstance`.  These objects carry the mutable bookkeeping the GMU,
SMXs, and SPAWN metrics operate on.

CTA progress model: a CTA's *consumed* work advances uniformly (all its
warps progress together under processor sharing); warp ``w`` finishes when
``consumed >= warp_total[w]``, so the CTA's compute completes at
``max(warp_total)``.  Launch decisions are *pending events on the progress
axis*: decision ``d`` fires when ``consumed`` crosses ``d.at_consumed``.
A decision that keeps the work in the parent (SERIAL) extends its warp's
``warp_total``, lengthening the CTA exactly the way a serial fallback loop
lengthens a real parent thread.
"""

from __future__ import annotations

import enum
from operator import attrgetter
from typing import List, Optional

from repro.errors import SimulationError
from repro.sim.kernel import ChildRequest, KernelSpec
from repro.sim.stats import KernelRecord

#: Completion slack on the progress axis.
EPSILON = 1e-6

_AT_CONSUMED = attrgetter("at_consumed")


class KernelState(enum.Enum):
    PENDING = "pending"  # in the GMU but its stream not yet bound to a HWQ
    EXECUTING = "executing"  # head of a bound stream; CTAs dispatchable
    COMPLETE = "complete"


class CTAState(enum.Enum):
    RUNNING = "running"  # resident on an SMX
    WAITING_CHILDREN = "waiting"  # compute done, resources relinquished
    DONE = "done"


class KernelInstance:
    """One submitted kernel grid and its dispatch/completion bookkeeping."""

    __slots__ = (
        "kernel_id",
        "spec",
        "stream_id",
        "is_child",
        "parent_cta",
        "state",
        "num_ctas",
        "next_cta_index",
        "unfinished_ctas",
        "record",
        "items_per_thread",
        "via_dtbl",
        "computing_ctas",
        "hwq_released",
        "merged_parents",
        "shape",
    )

    def __init__(
        self,
        kernel_id: int,
        spec: KernelSpec,
        stream_id: int,
        *,
        is_child: bool,
        parent_cta: Optional["CTAInstance"] = None,
        items_per_thread: int = 1,
    ):
        self.kernel_id = kernel_id
        self.spec = spec
        self.stream_id = stream_id
        self.is_child = is_child
        self.parent_cta = parent_cta
        self.state = KernelState.PENDING
        self.num_ctas = spec.num_ctas  # cached: hot in the dispatch loop
        #: CTA resource shape (threads, registers, shared memory), the key
        #: a dispatch pass remembers for shapes that failed to fit.
        self.shape = (
            spec.threads_per_cta,
            spec.threads_per_cta * spec.regs_per_thread,
            spec.shmem_per_cta,
        )
        self.next_cta_index = 0
        self.unfinished_ctas = self.num_ctas
        self.items_per_thread = items_per_thread
        #: True when the kernel's CTAs were coalesced via DTBL and never
        #: entered the GMU / a hardware work queue.
        self.via_dtbl = False
        #: CTAs still executing compute (not merely waiting on children).
        self.computing_ctas = self.num_ctas
        #: True once the kernel released its HWQ (completed or suspended).
        self.hwq_released = False
        #: Merged kernels (consolidate/aggregate) track every contributing
        #: parent CTA with its request count here; ``parent_cta`` stays
        #: None because no single CTA owns the kernel.
        self.merged_parents: Optional[List[tuple]] = None
        self.record = KernelRecord(
            kernel_id, spec.name, is_child, spec.depth, self.num_ctas, stream_id
        )

    @property
    def has_undispatched_ctas(self) -> bool:
        return self.next_cta_index < self.num_ctas

    def take_next_cta_index(self) -> int:
        if not self.has_undispatched_ctas:
            raise SimulationError(
                f"kernel {self.spec.name!r} has no CTAs left to dispatch"
            )
        index = self.next_cta_index
        self.next_cta_index += 1
        return index

    def cta_finished(self) -> bool:
        """Mark one CTA fully done; True if the whole kernel completed."""
        if self.unfinished_ctas <= 0:
            raise SimulationError(
                f"kernel {self.spec.name!r} finished more CTAs than it has"
            )
        self.unfinished_ctas -= 1
        return self.unfinished_ctas == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KernelInstance(id={self.kernel_id}, name={self.spec.name!r}, "
            f"state={self.state.value})"
        )


class PendingDecision:
    """A launch call that fires when the CTA's progress crosses a point."""

    __slots__ = ("at_consumed", "warp", "tid", "request")

    def __init__(
        self, at_consumed: float, warp: int, tid: int, request: ChildRequest
    ):
        self.at_consumed = at_consumed
        self.warp = warp
        self.tid = tid  # global thread index within the kernel grid
        self.request = request

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PendingDecision(at_consumed={self.at_consumed}, "
            f"warp={self.warp}, tid={self.tid})"
        )


class CTAInstance:
    """One CTA resident on (or relinquished from) an SMX."""

    __slots__ = (
        "kernel",
        "cta_index",
        "num_threads",
        "num_warps",
        "regs",
        "shmem",
        "_consumed",
        "_host",
        "warp_total",
        "warp_issue",
        "demand",
        "state",
        "smx_index",
        "dispatch_time",
        "compute_done_time",
        "outstanding_children",
        "decisions",
        "next_decision",
        "next_target",
        "total_work",
        "warp_base_total",
        "warp_base_issue",
        "_thread_extra",
        "_warp_extra",
        "demand_scale",
    )

    def __init__(
        self,
        kernel: KernelInstance,
        cta_index: int,
        num_threads: int,
        num_warps: int,
        regs: int,
        shmem: int,
        warp_total: List[float],
        warp_issue: List[float],
        decisions: Optional[List[PendingDecision]] = None,
        demand_scale: float = 1.0,
    ):
        if len(warp_total) != num_warps or len(warp_issue) != num_warps:
            raise SimulationError("warp arrays must match num_warps")
        if warp_total and min(warp_total) <= 0:
            raise SimulationError("warp_total entries must be positive")
        self.kernel = kernel
        self.cta_index = cta_index
        self.num_threads = num_threads
        self.num_warps = num_warps
        self.regs = regs
        self.shmem = shmem
        self._consumed = 0.0
        #: The SMX holding this CTA's progress while it is resident.
        self._host = None
        self.warp_total = warp_total
        self.warp_issue = warp_issue
        # Decision-time extensions: serial fallbacks within one thread
        # accumulate (the thread loops), but across threads of a warp they
        # overlap in SIMT lockstep, so a warp's extension is the MAX over
        # its threads.  warp_total = warp_base_total + that max.  The base
        # snapshots and per-thread maps are materialized lazily on the first
        # ``extend_thread`` call — most CTAs (all pure children) are never
        # extended, and until then warp_total is the base.
        self.warp_base_total = warp_total
        self.warp_base_issue = warp_issue
        self._thread_extra: Optional[dict] = None  # tid -> [total, issue]
        self._warp_extra: Optional[dict] = None  # warp -> [max total, issue]
        #: Inter-warp latency hiding: only this fraction of a warp's issue
        #: occupancy contends for SMX issue slots (stalled warps yield).
        self.demand_scale = demand_scale
        self.demand = self._compute_demand()
        self.state = CTAState.RUNNING
        self.smx_index = -1
        self.dispatch_time = 0.0
        self.compute_done_time: Optional[float] = None
        self.outstanding_children = 0
        self.decisions = sorted(decisions, key=_AT_CONSUMED) if decisions else []
        self.next_decision = 0
        #: Critical-path length in cycles; maintained by ``extend_thread``.
        self.total_work = max(warp_total)
        # Sorted ascending, so the last decision point is the furthest.
        last = self.decisions[-1].at_consumed if self.decisions else 0.0
        if last > self.total_work + EPSILON:
            raise SimulationError(
                "decision point beyond the CTA's base critical path"
            )
        #: The progress point of the CTA's next event: its first unfired
        #: decision if any remain, else the critical-path end.  Maintained
        #: by ``pop_fired_decisions`` / ``extend_thread`` so the SMX event
        #: horizon is a plain attribute read per resident CTA.
        self.next_target = (
            self.decisions[0].at_consumed if self.decisions else self.total_work
        )

    # -- progress geometry ------------------------------------------------
    @property
    def consumed(self) -> float:
        """Work done along the critical path, in cycles.

        While the CTA is resident, its SMX keeps this value in a column
        (see :class:`repro.sim.smx.SMX`) and only the SMX advances it.
        """
        host = self._host
        return self._consumed if host is None else host.consumed_of(self)

    @consumed.setter
    def consumed(self, value: float) -> None:
        if self._host is not None:
            raise SimulationError("a resident CTA's progress belongs to its SMX")
        self._consumed = value

    @property
    def remaining(self) -> float:
        return max(0.0, self.total_work - self.consumed)

    def _compute_demand(self) -> float:
        demand = 0.0
        for total, issue in zip(self.warp_total, self.warp_issue):
            if total > 0:
                share = issue / total
                demand += share if share < 1.0 else 1.0
            else:
                demand += 1.0
        return max(demand * self.demand_scale, 1e-3)

    def refresh_demand(self) -> float:
        """Recompute demand after warp work changed; returns the new value."""
        self.demand = self._compute_demand()
        return self.demand

    def extend_thread(
        self, warp: int, tid: int, total_cycles: float, issue_cycles: float
    ) -> None:
        """Add serial-fallback / header work to one thread's timeline.

        The warp's critical path grows to the max extended thread (SIMT
        lockstep: divergent serial loops overlap across the warp's lanes).
        """
        if total_cycles < 0 or issue_cycles < 0:
            raise SimulationError("cannot extend a thread by negative work")
        if self._thread_extra is None:
            # First extension: snapshot the (still pristine) base timelines.
            self._thread_extra = {}
            self._warp_extra = {}
            self.warp_base_total = list(self.warp_total)
            self.warp_base_issue = list(self.warp_issue)
        extra = self._thread_extra.setdefault(tid, [0.0, 0.0])
        extra[0] += total_cycles
        extra[1] += issue_cycles
        warp_extra = self._warp_extra.setdefault(warp, [0.0, 0.0])
        if extra[0] > warp_extra[0]:
            warp_extra[0] = extra[0]
            warp_extra[1] = extra[1]
            self.warp_total[warp] = self.warp_base_total[warp] + warp_extra[0]
            self.warp_issue[warp] = self.warp_base_issue[warp] + warp_extra[1]
            if self.warp_total[warp] > self.total_work:
                self.total_work = self.warp_total[warp]
                if self.next_decision >= len(self.decisions):
                    self.next_target = self.total_work

    # -- decision iteration ------------------------------------------------
    @property
    def next_decision_point(self) -> Optional[float]:
        if self.next_decision < len(self.decisions):
            return self.decisions[self.next_decision].at_consumed
        return None

    def pop_fired_decisions(self) -> List[PendingDecision]:
        """Decisions whose progress point has been crossed."""
        fired: List[PendingDecision] = []
        decisions = self.decisions
        n = len(decisions)
        threshold = self.consumed + EPSILON
        while self.next_decision < n:
            decision = decisions[self.next_decision]
            if decision.at_consumed <= threshold:
                fired.append(decision)
                self.next_decision += 1
            else:
                break
        if fired:
            self.next_target = (
                decisions[self.next_decision].at_consumed
                if self.next_decision < n
                else self.total_work
            )
        return fired

    @property
    def compute_finished(self) -> bool:
        return (
            self.consumed >= self.total_work - EPSILON
            and self.next_decision >= len(self.decisions)
        )

    @property
    def is_child(self) -> bool:
        return self.kernel.is_child

    @property
    def exec_time(self) -> float:
        if self.compute_done_time is None:
            raise SimulationError("CTA exec_time read before compute completed")
        return self.compute_done_time - self.dispatch_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CTAInstance({self.kernel.spec.name!r}#{self.cta_index}, "
            f"consumed={self.consumed:.0f}/{self.total_work:.0f}, "
            f"state={self.state.value})"
        )
