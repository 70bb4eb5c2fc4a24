"""Structured event tracing for the simulator.

The simulator's components emit *typed events* — kernel lifecycle, CTA
dispatch/finish, HWQ occupancy changes, launch-unit batches, and every
launch decision — through a :class:`Tracer`.  Three properties drive the
design:

* **Zero overhead when off.**  The engine holds a :data:`NULL_TRACER` by
  default; every instrumentation site is guarded by ``tracer.enabled``, a
  plain attribute read, so an untraced run executes no tracing code and its
  event stream (and makespan) is bit-identical to the pre-instrumentation
  simulator.
* **Structured, not stringly.**  Events are ``(ts, kind, args)`` records
  with well-known kind constants (below), so downstream consumers — the
  JSONL/Chrome exporters of :mod:`repro.obs.export` and the SPAWN decision
  audit of :mod:`repro.obs.audit` — join and filter without parsing.
* **Every event kept.**  The default :class:`ListSink` holds the whole
  stream in memory, in emission order.

Components that have no clock of their own (the GMU) stamp events through
the tracer's bound ``clock`` callable, which the engine points at its event
queue at the start of every run.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional

# ---------------------------------------------------------------------------
# Event kind constants.  Dotted names group by emitting component.
# ---------------------------------------------------------------------------
KERNEL_LAUNCH_CALL = "kernel.launch_call"  # device/host launch API executed
KERNEL_ARRIVAL = "kernel.arrival"  # kernel reached the GMU pending pool
KERNEL_FIRST_DISPATCH = "kernel.first_dispatch"  # first CTA placed
KERNEL_SUSPEND = "kernel.suspend"  # grid suspension (waiting on descendants)
KERNEL_COMPLETE = "kernel.complete"

CTA_DISPATCH = "cta.dispatch"  # CTA placed on an SMX
CTA_FINISH = "cta.finish"  # CTA compute finished, resources released

HWQ_BIND = "gmu.hwq_bind"  # a SWQ acquired a hardware work queue
HWQ_RELEASE = "gmu.hwq_release"  # a SWQ released its hardware work queue

LAUNCH_BATCH_SUBMIT = "launch_unit.submit"  # one warp's launch burst arrives
LAUNCH_BATCH_SERVICE = "launch_unit.service"  # batch enters a service slot
LAUNCH_BATCH_ARRIVE = "launch_unit.arrive"  # batch's kernels reach the GMU

LAUNCH_DECISION = "launch.decision"  # policy verdict on one launch request
LAUNCH_MERGE = "launch.merge"  # buffered requests flushed as one merged kernel

# Fault-tolerant execution layer (repro.harness.parallel).  Unlike the
# simulator kinds above, these are stamped with wall-clock seconds
# (time.perf_counter), not simulated cycles — they describe the harness
# itself, not the modelled GPU.
HARNESS_RETRY = "harness.retry"  # a failed task got another attempt
HARNESS_TIMEOUT = "harness.timeout"  # a task exceeded the per-task timeout
HARNESS_WORKER_CRASH = "harness.worker_crash"  # the process pool broke
HARNESS_REQUEUE = "harness.requeue"  # a crash-lost task was re-dispatched
HARNESS_QUARANTINE = "harness.quarantine"  # a task failed permanently
HARNESS_POOL_REBUILD = "harness.pool_rebuild"  # a fresh pool replaced a broken one
HARNESS_SERIAL_FALLBACK = "harness.serial_fallback"  # degraded to in-process

# Simulation service layer (repro.service).  Wall-clock stamped, like the
# harness kinds: they describe the serving machinery, not the modelled GPU.
SERVICE_SUBMIT = "service.submit"  # a request entered the service
SERVICE_COALESCE = "service.coalesce"  # duplicate joined an in-flight job
SERVICE_CACHE_HIT = "service.cache_hit"  # answered from the result cache
SERVICE_ADMIT = "service.admit"  # queued for the batching scheduler
SERVICE_SHED = "service.shed"  # rejected at the queue cap (ServiceOverloaded)
SERVICE_BATCH = "service.batch"  # one batch dispatched to the pool
SERVICE_COMPLETE = "service.complete"  # a job resolved successfully
SERVICE_QUARANTINE = "service.quarantine"  # a job failed past its retries


class TraceEvent:
    """One structured event: a timestamp, a kind, and a flat args dict."""

    __slots__ = ("ts", "kind", "args")

    def __init__(self, ts: float, kind: str, args: Dict[str, object]):
        self.ts = ts
        self.kind = kind
        self.args = args

    def to_dict(self) -> Dict[str, object]:
        """Flat dict form used by the JSONL exporter."""
        out: Dict[str, object] = {"ts": self.ts, "kind": self.kind}
        out.update(self.args)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent(t={self.ts:.0f}, {self.kind}, {self.args})"


class ListSink:
    """Unbounded in-memory sink (the default)."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []

    def append(self, event: TraceEvent) -> None:
        self._events.append(event)

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)


class Tracer:
    """Collects :class:`TraceEvent` records from simulator components.

    ``enabled`` is the *only* thing instrumentation sites check; a tracer
    with ``enabled=False`` (see :class:`NullTracer`) costs one attribute
    read per site and allocates nothing.
    """

    enabled: bool = True

    def __init__(
        self,
        sink: Optional[object] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.sink = sink if sink is not None else ListSink()
        self.clock: Callable[[], float] = clock or (lambda: 0.0)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer at the live simulation clock (engine does this)."""
        self.clock = clock

    def emit(self, kind: str, ts: Optional[float] = None, **args: object) -> None:
        """Record one event, stamping the bound clock unless ``ts`` given."""
        self.sink.append(TraceEvent(self.clock() if ts is None else ts, kind, args))

    def events(self) -> List[TraceEvent]:
        return list(self.sink)

    def clear(self) -> None:
        self.sink.clear()

    @property
    def num_events(self) -> int:
        return len(self.sink)

    # NOTE: deliberately no __len__ — an empty tracer must stay truthy so
    # `tracer or NULL_TRACER` style defaults cannot silently disable it.


class NullTracer(Tracer):
    """The disabled tracer: every emit is a no-op.

    Instrumentation sites guard on ``tracer.enabled`` so ``emit`` is never
    even called on the hot path; the override is belt-and-braces for
    callers that skip the guard.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(sink=ListSink())

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Keep no clock: the shared instance must not pin a simulator."""

    def emit(self, kind: str, ts: Optional[float] = None, **args: object) -> None:
        return None


#: Shared disabled tracer used as every component's default.
NULL_TRACER = NullTracer()


class MultiTracer(Tracer):
    """Fans every event out to several tracers.

    Lets one run feed independent consumers — e.g. a caller's export
    tracer *and* a :class:`repro.check.ConformanceChecker` — without the
    components knowing.  The timestamp is stamped once here so every
    child records the identical ``ts`` even if their clocks drift.
    """

    def __init__(self, tracers: Iterable[Tracer]):
        super().__init__(sink=ListSink())
        self.tracers: List[Tracer] = list(tracers)
        self.enabled = any(t.enabled for t in self.tracers)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        super().bind_clock(clock)
        for tracer in self.tracers:
            tracer.bind_clock(clock)

    def emit(self, kind: str, ts: Optional[float] = None, **args: object) -> None:
        stamped = self.clock() if ts is None else ts
        for tracer in self.tracers:
            if tracer.enabled:
                tracer.emit(kind, ts=stamped, **args)

    def events(self) -> List[TraceEvent]:
        """Events of the first event-retaining child (they see the same)."""
        for tracer in self.tracers:
            if tracer.num_events:
                return tracer.events()
        return []

    @property
    def num_events(self) -> int:
        return max((t.num_events for t in self.tracers), default=0)


def filter_events(events: Iterable[TraceEvent], kind: str) -> List[TraceEvent]:
    """Events of one kind, in emission order."""
    return [e for e in events if e.kind == kind]
