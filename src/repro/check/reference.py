"""Naive reference implementations for differential engine validation.

Each optimized part of the simulator has a deliberately naive counterpart
here with *identical semantics*:

* :class:`ReferenceEventQueue` — a linear-scan event list with eager
  removal, against the calendar-bucket :class:`~repro.sim.events.EventQueue`;
* :class:`ReferenceSMX` — scalar per-CTA progress with the event horizon
  recomputed from scratch on every query, against the columnar
  :class:`~repro.sim.smx.SMX` with its cached horizon and pending-decision
  counter;
* :class:`ReferenceGMU` — a dispatch scan that always runs and yields
  every dispatchable head, against the GMU's dispatchable-head counter
  (which also lets the engine skip a pass with nothing to place) and its
  skipping of heads whose shape already failed to fit; and ACS binding by
  a scan of every waiting stream's head, against the heap of ranks fixed
  when each stream starts waiting;
* :class:`ReferenceLRUCache` / :class:`ReferenceMemorySystem` — list-based
  LRU sets and a materialized line list for every footprint, against the
  dict LRU and the range-fed single-region path;
* :class:`ReferenceSimulator` — per-CTA dispatch from the arrays: it
  slices ``thread_items`` / ``mem_bases``, takes warp maxima with
  ``np.maximum.reduceat``, streams every non-contiguous footprint through
  ``cta_access_arrays``, materializes child specs with
  :func:`~repro.sim.kernel.spec_from_request` and merged specs with
  :func:`~repro.sim.merge.build_merged_spec`, and builds CTAs with
  :class:`~repro.sim.instances.CTAInstance`, against the per-spec plans
  and the closed-form child and merged grids of :mod:`repro.sim.engine`.

:func:`run_differential` runs the same application through the simulator
and the reference and asserts the event streams are identical
event-for-event and the final stats are bit-identical, which is how an
ordering bug in an optimization surfaces even when the makespan happens to
cancel out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.check.golden import GoldenMismatch, canonical_events, diff_traces
from repro.errors import SimulationError
from repro.obs.tracer import KERNEL_FIRST_DISPATCH, Tracer
from repro.sim.config import WARP_SIZE
from repro.sim.engine import GPUSimulator
from repro.sim.events import Event
from repro.sim.gmu import GMU
from repro.sim.instances import (
    EPSILON,
    CTAInstance,
    KernelInstance,
    KernelState,
    PendingDecision,
)
from repro.sim.kernel import Application, ChildRequest, spec_from_request
from repro.sim.memory import MemorySystem, SetAssociativeCache
from repro.sim.merge import build_merged_spec
from repro.sim.smx import SMX, SMXResources


class ReferenceEventQueue:
    """List-based event queue: linear min-scan, eager removal.

    Same contract as :class:`repro.sim.events.EventQueue` (stable FIFO
    among same-time events via the sequence number, monotone clock), none
    of the bucket/compaction machinery.  O(n) per pop — only for tests.
    """

    def __init__(self) -> None:
        self._events: List[Event] = []
        self._next_seq = 0
        self.now: float = 0.0

    def __len__(self) -> int:
        return sum(1 for e in self._events if not e.cancelled)

    def schedule(self, time: float, callback: Callable[[], None]) -> Event:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        event = Event(time, self._next_seq, callback)
        self._next_seq += 1
        event._queue = self
        self._events.append(event)
        return event

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> Event:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self.now + delay, callback)

    def _note_cancelled(self) -> None:
        """Eagerly drop cancelled events (the naive strategy)."""
        self._events = [e for e in self._events if not e.cancelled]

    def pop(self) -> Optional[Event]:
        events = self._events
        if not events:
            return None
        best = min(events, key=lambda e: (e.time, e.seq))
        events.remove(best)
        self.now = best.time
        return best

    def peek_time(self) -> Optional[float]:
        events = self._events
        if not events:
            return None
        return min(events, key=lambda e: (e.time, e.seq)).time

    def run(self, max_events: Optional[int] = None) -> int:
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                raise SimulationError(
                    f"event budget exhausted after {executed} events "
                    "(likely a livelock in the simulated system)"
                )
            event = self.pop()
            if event is None:
                return executed
            event.callback()
            executed += 1


def _recomputed_target(cta: CTAInstance) -> float:
    """A CTA's next progress target, derived from scratch.

    The optimized :class:`SMX` trusts the incrementally maintained
    ``next_target``; the reference re-derives it every time from the
    decision list and the warp critical paths.
    """
    if cta.next_decision < len(cta.decisions):
        return cta.decisions[cta.next_decision].at_consumed
    return max(cta.warp_total)


class ReferenceSMX(SMXResources):
    """Scalar per-CTA progress; the event horizon recomputed each query."""

    def advance(self, now: float) -> None:
        last = self._last_update
        if now <= last:
            if now - last < -EPSILON:
                raise self._backwards(now)
            return
        if self.resident:
            step = self.scale * (now - last)
            for cta in self.resident:
                consumed = cta.consumed + step
                total = cta.total_work
                cta.consumed = consumed if consumed < total else total
        self._last_update = now

    def add(self, cta: CTAInstance, now: float) -> None:
        self._check_fits(cta)
        self.advance(now)
        self._occupy(cta)

    def remove(self, cta: CTAInstance, now: float) -> None:
        self.advance(now)
        try:
            self.resident.remove(cta)
        except ValueError:
            raise SimulationError(
                f"CTA {cta!r} not resident on SMX {self.index}"
            ) from None
        self._release(cta)

    def refresh_demand(self, cta: CTAInstance, now: float) -> None:
        self.advance(now)
        self._shift_demand(cta)

    def next_event_time(self, now: float) -> Optional[float]:
        if not self.resident:
            return None
        self.advance(now)
        slack = min(_recomputed_target(c) - c.consumed for c in self.resident)
        if slack <= 0.0:
            return now
        return now + slack / self.scale

    def ctas_with_fired_decisions(self) -> List[CTAInstance]:
        return [
            c
            for c in self.resident
            if c.next_decision < len(c.decisions)
            and _recomputed_target(c) <= c.consumed + EPSILON
        ]

    def pop_finished(self, now: float) -> List[CTAInstance]:
        self.advance(now)
        finished = [c for c in self.resident if c.compute_finished]
        for cta in finished:
            self.remove(cta, now)
        return finished


class ReferenceGMU(GMU):
    """GMU whose dispatch scan always runs (no dispatchable-head count).

    It never lets the engine skip a dispatch pass, ignores ``skip`` and
    yields every dispatchable head, so the differential compares the
    skipping scan against the engine's own failed-shape check.  ACS binds
    by ranking every waiting stream's head at bind time, with no heap.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._acs_heap = None

    def _acs_select(self) -> int:
        """The waiting stream whose head ranks highest right now, the
        first in arrival order among equals."""
        best = None
        best_rank = None
        for swq in self._wait_order:
            queue = self._streams.get(swq)
            if not queue:
                continue
            head = queue[0]
            rank = (head.spec.depth, -head.unfinished_ctas)
            if best_rank is None or rank > best_rank:
                best_rank = rank
                best = swq
        if best is None:
            best = next(iter(self._wait_order))
        del self._wait_order[best]
        return best

    def can_dispatch(self) -> bool:
        return True

    def dispatchable_kernels(self, skip=()) -> Iterator[KernelInstance]:
        bound = self._bound_list
        if not bound:
            return
        n = len(bound)
        start = self._rr_cursor % n
        offsets = range(n - 1, -1, -1) if self.reverse_rr else range(n)
        for offset in offsets:
            index = (start + offset) % n
            queue = self._streams.get(bound[index])
            if not queue:
                continue
            head = queue[0]
            if head.state is KernelState.EXECUTING and head.has_undispatched_ctas:
                self._rr_cursor = (index + 1) % n
                yield head


class ReferenceLRUCache(SetAssociativeCache):
    """Set-associative LRU with list-based sets (O(ways) scans).

    Same replacement semantics as the dict-based optimized cache: a list
    ordered LRU-first, hits move the line to the tail (MRU), misses evict
    the head when the set is full.
    """

    def __init__(self, config) -> None:
        super().__init__(config)
        self._sets = [[] for _ in range(self.num_sets)]

    def flush(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]

    def access_line(self, line: int) -> bool:
        ways = self._sets[line % self.num_sets]
        if line in ways:
            self.hits += 1
            ways.remove(line)
            ways.append(line)
            return True
        self.misses += 1
        if len(ways) >= self.associativity:
            ways.pop(0)
        ways.append(line)
        return False

    def access_lines(self, lines) -> Tuple[int, int]:
        # access_line maintains the hit/miss counters; only tally the
        # per-stream return value here.
        hits = 0
        total = 0
        for line in lines:
            total += 1
            if self.access_line(line):
                hits += 1
        return hits, total - hits

    def contains_line(self, line: int) -> bool:
        return line in self._sets[line % self.num_sets]


class ReferenceMemorySystem(MemorySystem):
    """List-based LRU caches; every footprint materialized as a line list."""

    cache_cls = ReferenceLRUCache

    def cta_access(
        self, regions, smx_index: int = -1, now: float = 0.0
    ) -> Tuple[float, float]:
        return self._access_lines(self.region_lines(regions), smx_index, now)


class ReferenceSimulator(GPUSimulator):
    """The simulator with every optimized part swapped for its reference."""

    queue_factory = ReferenceEventQueue
    smx_factory = ReferenceSMX
    gmu_factory = ReferenceGMU
    memory_factory = ReferenceMemorySystem

    def _find_smx(self, shape) -> Optional[SMX]:
        threads, regs, shmem = shape
        n = len(self.smxs)
        for offset in range(n):
            smx = self.smxs[(self._smx_rr + offset) % n]
            if smx.can_fit(threads=threads, regs=regs, shmem=shmem):
                self._smx_rr = (self._smx_rr + offset + 1) % n
                return smx
        return None

    def _note_placement(self, smx: SMX) -> None:
        """Cancel and reschedule the SMX's event at every placement, where
        the engine schedules each placed-on SMX once per dispatch pass."""
        self._reschedule_smx(smx)

    def _dispatch_cta(self, kernel: KernelInstance, smx: SMX) -> None:
        """Per-CTA dispatch from the spec's per-thread arrays."""
        now = self.queue.now
        spec = kernel.spec
        cta_index = kernel.take_next_cta_index()
        threads = spec.cta_thread_range(cta_index)
        start, stop = threads.start, threads.stop
        if kernel.record.first_dispatch_time is None:
            kernel.record.first_dispatch_time = now
            if self.tracer.enabled:
                self.tracer.emit(
                    KERNEL_FIRST_DISPATCH,
                    ts=now,
                    kernel_id=kernel.kernel_id,
                    kernel=spec.name,
                    queuing_latency=kernel.record.queuing_latency,
                )
        items = spec.thread_items[start:stop]
        if spec.mem_bases is None:
            stall = self.memory.stall_cycles(1.0)
        elif spec.contiguous_footprint:
            base = int(spec.mem_bases[start])
            extent = (
                int(spec.mem_bases[stop - 1]) - base + int(items[-1]) * spec.mem_stride
            )
            stall, _ = self.memory.cta_access([(base, extent)], smx.index, now)
        else:
            stall, _ = self.memory.cta_access_arrays(
                spec.mem_bases[start:stop], items * spec.mem_stride, smx.index, now
            )
        cost_total = spec.cycles_per_item + spec.accesses_per_item * stall
        issue_frac = spec.cycles_per_item / cost_total if cost_total > 0 else 0.0
        n = stop - start
        init = self.cta_init_cycles
        if spec.contiguous_footprint:
            per_warp = int(items[0]) if n > 1 else int(items[-1])
            num_warps = (n + WARP_SIZE - 1) // WARP_SIZE
            warp_total = [init + per_warp * cost_total] * num_warps
            warp_issue = [init + per_warp * cost_total * issue_frac] * num_warps
        else:
            warp_max = np.maximum.reduceat(
                items * cost_total, np.arange(0, n, WARP_SIZE)
            )
            warp_total = (init + warp_max).tolist()
            warp_issue = (init + warp_max * issue_frac).tolist()
        decisions: List[PendingDecision] = []
        for tid in range(start, stop):
            warp = (tid - start) // WARP_SIZE
            for req in spec.child_requests.get(tid, ()):
                decisions.append(
                    PendingDecision(
                        at_consumed=req.at_fraction * warp_total[warp],
                        warp=warp,
                        tid=tid,
                        request=req,
                    )
                )
        cta = CTAInstance(
            kernel,
            cta_index,
            num_threads=spec.threads_per_cta,
            num_warps=len(warp_total),
            regs=spec.threads_per_cta * spec.regs_per_thread,
            shmem=spec.shmem_per_cta,
            warp_total=warp_total,
            warp_issue=warp_issue,
            decisions=decisions,
            demand_scale=self.latency_hiding,
        )
        if kernel.is_child:
            self.stats.items_in_child += int(items.sum())
        else:
            self.stats.items_in_parent += int(items.sum())
        self._place_on_smx(cta, smx, now)

    def _merged_grid(self, reqs: List[ChildRequest], depth: int):
        """Merged grids built as per-thread arrays."""
        return build_merged_spec(
            reqs, depth=depth, unpadded=self._merge_bug == "unpadded"
        )

    def _make_child_kernel(
        self, parent: KernelInstance, parent_cta: CTAInstance, req: ChildRequest
    ) -> KernelInstance:
        child = KernelInstance(
            next(self._kernel_ids),
            spec_from_request(req, depth=parent.spec.depth + 1),
            stream_id=self.stream_policy.stream_for(
                parent.kernel_id, parent_cta.cta_index
            ),
            is_child=True,
            parent_cta=parent_cta,
            items_per_thread=req.items_per_thread,
        )
        self._unfinished_kernels += 1
        return child


@dataclass
class DifferentialMismatch:
    """Where the optimized and reference runs diverged."""

    kind: str  # "events" or "stats"
    detail: str
    trace_divergence: Optional[GoldenMismatch] = None

    def __str__(self) -> str:
        return f"differential mismatch [{self.kind}]: {self.detail}"


def run_differential(
    app: Application,
    *,
    config=None,
    policy_factory: Optional[Callable[[], object]] = None,
    stream_policy_factory: Optional[Callable[[], object]] = None,
    sim_kwargs: Optional[Dict[str, object]] = None,
) -> Optional[DifferentialMismatch]:
    """Run ``app`` through the simulator and the reference and compare.

    Policies and stream policies are stateful across a run, so fresh
    instances are built per simulator via the factories (defaults: the
    simulator's own defaults).  Returns None when the event streams are
    identical and the final stats round-trip dicts are equal; otherwise a
    :class:`DifferentialMismatch` naming the first divergence.
    """
    kwargs = dict(sim_kwargs or {})

    def build(sim_cls):
        tracer = Tracer()
        sim = sim_cls(
            config=config,
            policy=policy_factory() if policy_factory else None,
            stream_policy=(
                stream_policy_factory() if stream_policy_factory else None
            ),
            tracer=tracer,
            **kwargs,
        )
        return sim, tracer

    optimized, opt_tracer = build(GPUSimulator)
    reference, ref_tracer = build(ReferenceSimulator)
    opt_result = optimized.run(app)
    ref_result = reference.run(app)

    divergence = diff_traces(
        canonical_events(ref_tracer.events()),
        canonical_events(opt_tracer.events()),
    )
    if divergence is not None:
        return DifferentialMismatch(
            kind="events",
            detail=str(divergence),
            trace_divergence=divergence,
        )
    opt_stats = opt_result.stats.to_dict()
    ref_stats = ref_result.stats.to_dict()
    if opt_stats != ref_stats:
        diffs = [
            key
            for key in sorted(set(opt_stats) | set(ref_stats))
            if opt_stats.get(key) != ref_stats.get(key)
        ]
        return DifferentialMismatch(
            kind="stats",
            detail=(
                "event streams match but SimStats differ in fields "
                f"{diffs} (optimized vs reference)"
            ),
        )
    return None
