"""Per-layer host-time accounting for the traced benchmark run.

The program is measured from outside: :func:`install_sim` and
:func:`install_serve` replace methods of ``repro`` classes (and functions
where a module binds them) with wrappers that record into a
:class:`Recorder`; :meth:`Recorder.uninstall` puts the originals back.
Nothing under ``src/`` is edited.

**Spans and self time.**  A span wrapper charges the host time since the
previous span boundary to the layer on top of the span stack, then pushes
its own layer.  Each layer therefore accumulates its *self* time: its
spans minus the spans nested inside them.  Time outside every span is
charged to ``other`` (the benchmark's own loop).  Spans are kept for the
single-threaded simulation workloads only; the serve workload runs code on
executor threads and records plain per-call durations instead.

**What runs where.**  Entry points are wrapped wherever control enters a
layer, including the engine callbacks the event queue and the launch
unit invoke, so callback time returns to the engine instead of being
billed to the event loop.  The GMU's ``dispatchable_kernels`` generator is
timed on every resumption, not only when it is created.  Names the engine
binds at import time (``build_merged_spec``, ``merge_key``) are patched in
``repro.sim.engine``, where they are looked up.  Code that belongs to no
wrapped layer (``repro.sim.instances``, ``repro.sim.kernel``,
``repro.runtime.streams``, ``SMX.can_fit`` during placement) is billed to
its caller, which is almost always the engine's dispatch and placement.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List

#: A stream of at least this many L2 lines counts as long (a batched L2
#: walk only pays off above roughly this length).
LONG_STREAM_LINES = 100

#: (layer, module, class or None, attributes).  Order does not matter.
SIM_SPANS = (
    ("events", "repro.sim.events", "EventQueue",
     ("schedule", "schedule_in", "pop", "peek_time", "_note_cancelled")),
    ("events", "repro.sim.events", "Event", ("cancel",)),
    # The engine is the remainder: only the places control re-enters it.
    ("engine", "repro.sim.engine", "GPUSimulator",
     ("run", "_on_smx_event", "_on_kernel_arrival", "_on_dtbl_arrival")),
    ("smx", "repro.sim.smx", "SMX",
     ("advance", "add", "remove", "refresh_demand", "next_event_time",
      "ctas_with_fired_decisions", "pop_finished")),
    ("memory", "repro.sim.memory", "MemorySystem",
     ("cta_access", "cta_access_arrays", "access_cta", "access_cta_arrays",
      "stall_cycles")),
    ("gmu", "repro.sim.gmu", "GMU",
     ("on_kernel_complete", "on_kernel_suspended", "executing_kernels",
      "drained")),
    ("launch", "repro.sim.launch", "LaunchUnit",
     ("_start_service", "_release_slot", "_arrive")),
    ("controller", "repro.core.metrics", "MetricsMonitor",
     ("on_ctas_admitted", "on_cta_started", "on_cta_finished", "advance")),
    ("merge", "repro.sim.engine", "GPUSimulator",
     ("_buffer_merge", "_flush_merge_group", "_flush_cta_merge",
      "_flush_grid_merge")),
    ("merge", "repro.sim.engine", None, ("build_merged_spec", "merge_key")),
    ("stats", "repro.sim.stats", "SimStats",
     ("record_state", "finalize", "summary", "to_dict")),
    ("inputs", "repro.workloads.base", "Benchmark", ("flat", "dp")),
    ("harness", "repro.harness.runner", "Runner", ("run",)),
)

#: Launch-policy methods; every LaunchPolicy subclass defining one is wrapped.
POLICY_METHODS = ("decide", "bind", "set_audit", "decision_audit")

SIM_LAYERS = ("events", "engine", "smx", "memory", "gmu", "launch",
              "controller", "merge", "stats", "inputs", "harness", "other")


class _SpanState:
    __slots__ = ("stack", "last")

    def __init__(self) -> None:
        self.stack: List[str] = ["other"]
        self.last = time.perf_counter_ns()


class Recorder:
    """Collects layer self times, call counts and duration samples."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._span = _SpanState()
        self._patches: List[tuple] = []

    def reset(self) -> None:
        """Drop everything recorded so far (the wrappers stay installed)."""
        self.self_ns.clear()
        self.counts.clear()
        for samples in self.samples.values():
            del samples[:]  # in place: wrappers hold these lists
        self._span.stack[:] = ["other"]
        self._span.last = time.perf_counter_ns()

    def close(self) -> None:
        """Charge the time since the last boundary to the open layer."""
        span = self._span
        now = time.perf_counter_ns()
        self.self_ns[span.stack[-1]] += now - span.last
        span.last = now

    # -- wrapper factories ---------------------------------------------
    def span(self, fn: Callable, layer: str) -> Callable:
        self_ns, span, clock = self.self_ns, self._span, time.perf_counter_ns
        stack = span.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            now = clock()
            self_ns[stack[-1]] += now - span.last
            stack.append(layer)
            span.last = now
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_ns[stack.pop()] += now - span.last
                span.last = now

        return wrapper

    def generator_span(self, fn: Callable, layer: str) -> Callable:
        """Time a generator on every resumption, never while it is parked."""
        self_ns, span, clock = self.self_ns, self._span, time.perf_counter_ns
        stack = span.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                now = clock()
                self_ns[stack[-1]] += now - span.last
                stack.append(layer)
                span.last = now
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    now = clock()
                    self_ns[stack.pop()] += now - span.last
                    span.last = now
                yield item

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, fn: Callable, name: str) -> Callable:
        """Per-call wall durations; safe on any thread."""
        samples = self.samples[name]
        clock = time.perf_counter

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    samples.append(clock() - start)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                samples.append(clock() - start)

        return wrapper

    # -- patching --------------------------------------------------------
    def patch(self, owner, name: str, factory: Callable[[Callable], Callable]):
        original = owner.__dict__[name]
        setattr(owner, name, factory(original))
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def _owner(module: str, cls):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


def install_sim(rec: Recorder) -> None:
    """Wrap every simulation layer (single-threaded span accounting)."""
    for layer, module, cls, names in SIM_SPANS:
        owner = _owner(module, cls)
        for name in names:
            rec.patch(owner, name, lambda fn, layer=layer: rec.span(fn, layer))

    from repro.core import policies
    from repro.sim.events import EventQueue
    from repro.sim.gmu import GMU
    from repro.sim.launch import LaunchUnit
    from repro.sim.memory import SetAssociativeCache

    for policy in vars(policies).values():
        if inspect.isclass(policy) and issubclass(policy, policies.LaunchPolicy):
            for name in POLICY_METHODS:
                if name in policy.__dict__ and not getattr(
                    policy.__dict__[name], "__isabstractmethod__", False
                ):
                    rec.patch(policy, name,
                              lambda fn: rec.span(fn, "controller"))

    rec.patch(GMU, "dispatchable_kernels",
              lambda fn: rec.generator_span(fn, "gmu"))
    rec.patch(GMU, "submit",
              lambda fn: rec.counted(rec.span(fn, "gmu"), "gmu.kernels"))
    rec.patch(LaunchUnit, "submit_batch",
              lambda fn: rec.counted(rec.span(fn, "launch"), "launch.batches"))
    rec.patch(EventQueue, "run", lambda fn: count_events(rec, rec.span(fn, "events")))
    rec.patch(SetAssociativeCache, "access_lines",
              lambda fn: _stream_lengths(rec, fn))


def count_events(rec: Recorder, fn: Callable) -> Callable:
    """Add ``EventQueue.run``'s return value (events delivered) to a count."""
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        executed = fn(*args, **kwargs)
        counts["events"] += executed
        return executed

    return wrapper


def install_event_count(rec: Recorder) -> None:
    """The one wrapper untraced runs carry: one call per simulation."""
    from repro.sim.events import EventQueue

    rec.patch(EventQueue, "run", lambda fn: count_events(rec, fn))


def _stream_lengths(rec: Recorder, fn: Callable) -> Callable:
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(self, lines):
        hits, misses = fn(self, lines)
        n = hits + misses
        counts["l2.lines"] += n
        if n >= LONG_STREAM_LINES:
            counts["l2.long_lines"] += n
        return hits, misses

    return wrapper


# ----------------------------------------------------------------------
# Serve workload: durations, counts, and what pool workers report back
# ----------------------------------------------------------------------
def install_serve(rec: Recorder, worker_dir: str) -> None:
    """Time the service, the store, and input building on both sides.

    Single-job batches run in this process; larger ones in pool workers
    forked after this runs, which inherit the wrapped ``Benchmark.flat``,
    ``Benchmark.dp`` and ``_simulate_payload``.  Each worker appends
    one JSON line per task to ``worker_dir``.
    """
    from repro.harness import parallel
    from repro.harness.store import ResultStore
    from repro.service.service import SimulationService
    from repro.workloads.base import Benchmark

    rec.patch(SimulationService, "submit", lambda fn: rec.timed(fn, "admit"))
    rec.patch(SimulationService, "_on_batch_done",
              lambda fn: _batch_sizes(rec, fn))
    rec.patch(ResultStore, "load", lambda fn: rec.timed(fn, "store.load"))
    rec.patch(ResultStore, "save", lambda fn: rec.timed(fn, "store.save"))
    for name in ("flat", "dp"):
        rec.patch(Benchmark, name, lambda fn: rec.timed(fn, "inputs"))
    rec.patch(parallel, "_simulate_payload",
              lambda fn: _worker_report(rec, fn, worker_dir))


def _batch_sizes(rec: Recorder, fn: Callable) -> Callable:
    samples = rec.samples

    @functools.wraps(fn)
    def wrapper(self, batch, report, elapsed):
        samples["batch.seconds"].append(elapsed)
        samples["batch.size"].append(len(batch))
        return fn(self, batch, report, elapsed)

    return wrapper


def _worker_report(rec: Recorder, fn: Callable, worker_dir: str) -> Callable:
    inputs = rec.samples["inputs"]

    @functools.wraps(fn)
    def wrapper(task):
        del inputs[:]  # this forked copy's samples, not the parent's
        payload = fn(task)
        line = {"inputs_s": sum(inputs)}
        path = os.path.join(worker_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")
        return payload

    return wrapper


def read_worker_reports(worker_dir: str) -> List[dict]:
    rows = []
    for name in sorted(os.listdir(worker_dir)):
        if name.startswith("worker-"):
            with open(os.path.join(worker_dir, name), encoding="utf-8") as f:
                rows.extend(json.loads(line) for line in f if line.strip())
    return rows
