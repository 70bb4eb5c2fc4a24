"""The GPU simulator engine.

Event-driven orchestration of the pieces in this package: root kernels enter
the :class:`~repro.sim.gmu.GMU`, CTAs are dispatched round-robin onto
processor-sharing :class:`~repro.sim.smx.SMX` units, device-side launch
calls fire as the parent CTA's execution crosses each request's
``at_fraction`` progress point, go through the active
:class:`~repro.core.policies.LaunchPolicy`, and (if approved) pay the
:class:`~repro.sim.launch.LaunchUnit`'s ``A*x + b`` latency before
re-entering the GMU as child kernels.  Parent CTAs that finish computing
while their children are alive relinquish SMX resources and wait — the
device-synchronization semantics of Section II-C.

Declined launches (SPAWN's throttling, or a static THRESHOLD) extend the
launching warp's timeline by the serial fallback loop, exactly the
work-redistribution effect the paper exploits; approved launches only add
the header reads and the asynchronous API call cost.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import deque
from functools import partial
from typing import Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.metrics import MetricsMonitor
from repro.core.policies import (
    AlwaysLaunchPolicy,
    DecisionKind,
    LaunchPolicy,
    LaunchRequest,
)
from repro.errors import SimulationError, WorkloadError
from repro.obs.tracer import (
    CTA_DISPATCH,
    CTA_FINISH,
    KERNEL_ARRIVAL,
    KERNEL_COMPLETE,
    KERNEL_FIRST_DISPATCH,
    KERNEL_LAUNCH_CALL,
    KERNEL_SUSPEND,
    LAUNCH_DECISION,
    LAUNCH_MERGE,
    NULL_TRACER,
    Tracer,
)
from repro.runtime.streams import PerChildStream, StreamPolicy
from repro.sim.config import WARP_SIZE, GPUConfig
from repro.sim.events import Event, EventQueue
from repro.sim.gmu import GMU
from repro.sim.instances import (
    CTAInstance,
    CTAState,
    KernelInstance,
    KernelState,
    PendingDecision,
)
from repro.sim.kernel import (
    Application,
    ChildRequest,
    KernelSpec,
    check_cta_fits,
    normalize_requests,
)
from repro.sim.launch import LaunchUnit
from repro.sim.memory import MemorySystem
# The engine never calls ``build_merged_spec`` (it runs ``MergedGridPlan``).
# The name stays bound here because perfbench's layer profiler patches it
# in this module and fails on a missing name.
from repro.sim.merge import build_merged_spec, merge_key  # noqa: F401
from repro.sim.smx import SMX
from repro.sim.stats import SimStats

#: Events one simulation may execute before it fails, for
#: :class:`GPUSimulator` and :class:`~repro.harness.runner.Runner` alike.
#: The result store's key hashes the runner's budget, so changing this
#: orphans every stored result.
DEFAULT_MAX_EVENTS = 50_000_000


# ----------------------------------------------------------------------
# Per-CTA dispatch plans
# ----------------------------------------------------------------------
# Dispatching a CTA needs its thread range, warp count, executed items,
# per-warp item maxima and, where the CTA's regions tile one range, its
# footprint's base and extent.  None of these depend on simulated time, so
# the engine reads them from a plan instead of slicing the spec's
# per-thread arrays for every CTA.  ``GridPlan`` derives them once from
# any spec's arrays and is cached on the spec (host-launched grids).  A
# launched child grid is a ``ChildGridPlan``: it stands in for the spec
# the reference simulator builds from the request
# (``repro.check.reference.spec_from_request``) and computes every CTA's
# plan in closed form from the request: all its threads carry
# ``items_per_thread`` items except the last, which carries the
# remainder, and thread t reads from ``mem_base + t * items_per_thread *
# mem_stride``.  A merged grid is a ``MergedGridPlan``: it stands in for
# ``build_merged_spec(reqs)``, whose every CTA is one constituent's child
# CTA padded with zero-item threads.
# Neither builds an array or keeps anything per CTA.  All three return,
# for CTA i, ``(start, stop, num_warps, executed, per_warp, base,
# extent)``.  ``per_warp`` is one int for a ``contiguous_footprint`` grid
# (its uniform per-thread count) and for a merged CTA whose warps share
# one maximum, and the list of exact per-warp maxima otherwise.  ``base``
# and ``extent`` are None only for a CTA whose regions do not tile one
# range (or a grid without ``mem_bases``).  Every value is the Python int
# that slicing ``thread_items`` and ``mem_bases`` yields.
CTAPlan = Tuple[
    int, int, int, int, Union[int, List[int]], Optional[int], Optional[int]
]


def _decision_tids(child_requests) -> Optional[List[int]]:
    """Sorted threads carrying launch requests, or None if there are none."""
    return sorted(child_requests) if child_requests else None


_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)


def _tiled_footprints(
    spec: KernelSpec, prefix: np.ndarray, starts: np.ndarray, executed: np.ndarray
) -> Tuple[List[Optional[int]], List[int]]:
    """Each CTA's ``(base, extent)``; base None where its regions do not tile.

    A CTA's regions tile when each positive-extent one starts where the
    previous one ended.  Adjacent regions share at most a boundary line,
    which the consecutive-duplicate collapse removes, so such a CTA streams
    exactly the lines of its one range.  Every padded merged CTA tiles: it
    holds one constituent plus zero-extent pads.
    """
    stride = spec.mem_stride
    if stride <= 0:  # no region has a positive extent
        return [0] * spec.num_ctas, [0] * spec.num_ctas
    # Thread t's key is its base less ``stride * prefix[t]``, the extent of
    # the regions before it: a CTA tiles iff its busy threads share a key.
    key = prefix[:-1] * -stride
    key += spec.mem_bases
    idle = spec.thread_items == 0
    np.putmask(key, idle, _INT64_MIN)
    first = np.maximum.reduceat(key, starts)
    np.putmask(key, idle, _INT64_MAX)
    tiles = first == np.minimum.reduceat(key, starts)
    bases = np.where(tiles, first + stride * prefix[starts], 0).tolist()
    for index in (~tiles & (executed > 0)).nonzero()[0].tolist():
        bases[index] = None
    return bases, (stride * executed).tolist()


class GridPlan:
    """Plan of an arbitrary grid, derived from its per-thread arrays."""

    __slots__ = ("tpc", "num_threads", "executed", "per_warp", "wpc", "bases",
                 "extents", "dec_tids")

    def __init__(self, spec: KernelSpec):
        tpc = spec.threads_per_cta
        num_threads = spec.num_threads
        num_ctas = spec.num_ctas
        items = spec.thread_items
        starts = np.arange(num_ctas, dtype=np.int64) * tpc
        stops = np.minimum(starts + tpc, num_threads)
        prefix = np.zeros(num_threads + 1, dtype=np.int64)
        items.cumsum(out=prefix[1:])
        self.tpc = tpc
        self.num_threads = num_threads
        executed = prefix[stops] - prefix[starts]
        self.executed: List[int] = executed.tolist()
        self.bases: Optional[List[Optional[int]]] = None
        self.extents: Optional[List[int]] = None
        #: Warps per full CTA when ``per_warp`` holds every warp's exact
        #: maximum (CTA i's from entry ``i * wpc``); 0 when it holds one
        #: uniform count per CTA.
        self.wpc = 0
        if spec.contiguous_footprint:
            # A uniform grid: every warp's max is the CTA's first thread's
            # count, except for a remainder thread alone in its CTA.
            self.per_warp = np.where(
                stops - starts > 1, items[starts], items[stops - 1]
            ).tolist()
            if spec.mem_bases is not None:
                first = spec.mem_bases[starts]
                self.bases = first.tolist()
                self.extents = (
                    spec.mem_bases[stops - 1] - first
                    + items[stops - 1] * spec.mem_stride
                ).tolist()
        else:
            self.wpc = wpc = -(-tpc // WARP_SIZE)
            tail = num_threads - (num_ctas - 1) * tpc  # the last CTA's threads
            cta, warp = np.divmod(
                np.arange((num_ctas - 1) * wpc + -(-tail // WARP_SIZE)), wpc
            )
            self.per_warp = np.maximum.reduceat(
                items, cta * tpc + warp * WARP_SIZE
            ).tolist()
            if spec.mem_bases is not None:
                self.bases, self.extents = _tiled_footprints(
                    spec, prefix, starts, executed
                )
        self.dec_tids = _decision_tids(spec.child_requests)

    def cta(self, index: int) -> CTAPlan:
        start = index * self.tpc
        stop = min(start + self.tpc, self.num_threads)
        num_warps = (stop - start + WARP_SIZE - 1) // WARP_SIZE
        wpc = self.wpc
        if wpc:
            per_warp = self.per_warp[index * wpc:index * wpc + num_warps]
        else:
            per_warp = self.per_warp[index]
        bases = self.bases
        base = None if bases is None else bases[index]
        return (
            start,
            stop,
            num_warps,
            self.executed[index],
            per_warp,
            base,
            None if base is None else self.extents[index],
        )


class ChildGridPlan:
    """A launched child grid in closed form: the spec that
    :func:`repro.check.reference.spec_from_request` builds as arrays for
    the reference simulator.

    It carries every field the engine reads from a child grid's spec
    (name, depth, CTA shape, per-item costs, stride, nested requests,
    ``header_items``, ``num_ctas``) and plans each CTA from the request's
    numbers, so launching a child builds no array.  The checks
    ``spec_from_request`` makes through ``KernelSpec.__post_init__`` are
    restated on the request: every request it rejects raises
    :class:`~repro.errors.WorkloadError` here.
    """

    __slots__ = ("name", "depth", "threads_per_cta", "regs_per_thread",
                 "shmem_per_cta", "cycles_per_item", "accesses_per_item",
                 "mem_base", "mem_stride", "child_requests", "num_threads",
                 "num_ctas", "items_per_thread", "last_items", "dec_tids")

    #: ``spec_from_request`` leaves both at KernelSpec's values for a
    #: child grid: the default header reads, and regions tiling one range.
    header_items = KernelSpec.header_items
    contiguous_footprint = True

    def __init__(self, req: ChildRequest, depth: int):
        ipt = req.items_per_thread
        if ipt <= 0 or req.cta_threads <= 0:
            raise WorkloadError("child CTA dimensions must be positive")
        num_threads = req.num_threads
        if num_threads <= 0:
            raise WorkloadError(f"kernel {req.name!r} needs a 1-D non-empty grid")
        # The remainder thread's items; every other thread carries ipt > 0.
        last = req.items - (num_threads - 1) * ipt
        if last < 0:
            raise WorkloadError("thread_items must be non-negative")
        if req.cycles_per_item < 0 or req.accesses_per_item < 0:
            raise WorkloadError("per-item costs must be non-negative")
        nested = normalize_requests(req.nested) if req.nested else {}
        for tid in nested:
            if tid < 0 or tid >= num_threads:
                raise WorkloadError(
                    f"child request bound to thread {tid} outside kernel grid"
                )
        tpc = min(req.cta_threads, num_threads)
        self.name = req.name
        self.depth = depth
        self.threads_per_cta = tpc
        self.regs_per_thread = req.regs_per_thread
        self.shmem_per_cta = req.shmem_per_cta
        self.cycles_per_item = req.cycles_per_item
        self.accesses_per_item = req.accesses_per_item
        self.mem_base = req.mem_base
        self.mem_stride = req.mem_stride
        self.child_requests = nested
        self.num_threads = num_threads
        self.num_ctas = math.ceil(num_threads / tpc)
        self.items_per_thread = ipt
        self.last_items = last
        self.dec_tids = _decision_tids(nested)

    def cta(self, index: int) -> CTAPlan:
        ipt = self.items_per_thread
        start = index * self.threads_per_cta
        stop = start + self.threads_per_cta
        if stop >= self.num_threads:  # the CTA holding the remainder thread
            stop = self.num_threads
            last = self.last_items
        else:
            last = ipt
        n = stop - start
        stride = self.mem_stride
        return (
            start,
            stop,
            (n + WARP_SIZE - 1) // WARP_SIZE,
            (n - 1) * ipt + last,
            ipt if n > 1 else last,
            self.mem_base + start * ipt * stride,
            (n - 1) * ipt * stride + last * stride,
        )


class MergedGridPlan:
    """A merged grid: ``build_merged_spec(reqs, depth=depth)`` in closed
    form.

    Each constituent request's threads are padded with zero-item threads
    to a multiple of the first request's ``cta_threads``, so merged CTA i
    is one constituent's local CTA j, found by a bisect over the
    constituents' first CTAs, plus pad threads.  The plan carries every
    field the engine reads from a merged grid's spec (the name, the first
    request's CTA shape and per-item costs, depth, stride, the nested
    requests at their merged thread offsets, ``header_items``,
    ``num_ctas``) and keeps five numbers per constituent.  The checks
    ``build_merged_spec`` makes through ``KernelSpec.__post_init__`` are
    restated on the requests: every group it rejects raises
    :class:`~repro.errors.WorkloadError` here.
    """

    __slots__ = ("name", "depth", "threads_per_cta", "regs_per_thread",
                 "shmem_per_cta", "cycles_per_item", "accesses_per_item",
                 "mem_stride", "child_requests", "num_threads", "num_ctas",
                 "dec_tids", "_wpc", "_first_ctas", "_parts")

    #: ``build_merged_spec`` leaves both at KernelSpec's values.
    header_items = KernelSpec.header_items
    contiguous_footprint = False

    def __init__(self, requests, depth: int):
        if not requests:
            raise WorkloadError("cannot merge zero requests")
        first = requests[0]
        tpc = first.cta_threads
        if tpc <= 0:
            raise WorkloadError("child CTA dimensions must be positive")
        if first.cycles_per_item < 0 or first.accesses_per_item < 0:
            raise WorkloadError("per-item costs must be non-negative")
        name = f"{first.name}+merge{len(requests)}"
        stride = first.mem_stride
        first_ctas: List[int] = []
        parts = []
        nested: Dict[int, object] = {}
        ctas = 0
        for req in requests:
            ipt = req.items_per_thread
            if ipt <= 0:
                raise WorkloadError("child CTA dimensions must be positive")
            n = req.num_threads
            if n <= 0:
                raise WorkloadError(f"kernel {name!r} needs a 1-D non-empty grid")
            # The remainder thread's items; every other thread carries ipt.
            last = req.items - (n - 1) * ipt
            if last < 0:
                raise WorkloadError("thread_items must be non-negative")
            if req.mem_stride != stride:
                raise WorkloadError("merged requests must share one mem_stride")
            if req.nested:
                offset = ctas * tpc
                for tid, reqs in req.nested.items():
                    nested[offset + tid] = reqs
            first_ctas.append(ctas)
            parts.append((n, ipt, last, req.mem_base, ctas))
            ctas += -(-n // tpc)
        num_threads = ctas * tpc
        if nested:
            nested = normalize_requests(nested)
            for tid in nested:
                if tid < 0 or tid >= num_threads:
                    raise WorkloadError(
                        f"child request bound to thread {tid} outside kernel grid"
                    )
        self.name = name
        self.depth = depth
        self.threads_per_cta = tpc
        self.regs_per_thread = first.regs_per_thread
        self.shmem_per_cta = first.shmem_per_cta
        self.cycles_per_item = first.cycles_per_item
        self.accesses_per_item = first.accesses_per_item
        self.mem_stride = stride
        self.child_requests = nested
        self.num_threads = num_threads
        self.num_ctas = ctas
        self.dec_tids = _decision_tids(nested)
        self._wpc = (tpc + WARP_SIZE - 1) // WARP_SIZE
        self._first_ctas = first_ctas
        self._parts = parts

    def cta(self, index: int) -> CTAPlan:
        n, ipt, last, mem_base, first_cta = self._parts[
            bisect_right(self._first_ctas, index) - 1
        ]
        tpc = self.threads_per_cta
        local = (index - first_cta) * tpc  # the constituent's first thread here
        m = n - local  # its threads in this CTA; the rest are pads
        if m > tpc:  # the remainder thread is in a later CTA
            m = tpc
            last = ipt
        executed = (m - 1) * ipt + last
        # Warps holding constituent threads carry ipt, the remainder thread
        # (never above ipt) only in a warp of its own; pad-only warps 0.
        wpc = self._wpc
        busy = (m + WARP_SIZE - 1) // WARP_SIZE
        tail = last if (m - 1) % WARP_SIZE == 0 else ipt
        if busy == wpc and (busy == 1 or tail == ipt):
            per_warp = tail
        else:
            per_warp = [ipt] * (busy - 1)
            per_warp.append(tail)
            if busy < wpc:
                per_warp += [0] * (wpc - busy)
        start = index * tpc
        stride = self.mem_stride
        if stride <= 0:  # no region has a positive extent
            return (start, start + tpc, wpc, executed, per_warp, 0, 0)
        return (
            start,
            start + tpc,
            wpc,
            executed,
            per_warp,
            mem_base + local * ipt * stride,
            stride * executed,
        )


def plan_of(spec):
    """The spec's dispatch plan; a host grid's is built on first use and
    kept on the spec, a child or merged grid is its own."""
    cls = spec.__class__
    if cls is ChildGridPlan or cls is MergedGridPlan:
        return spec
    plan = spec.__dict__.get("_dispatch_plan")
    if plan is None:
        plan = spec._dispatch_plan = GridPlan(spec)
    return plan


class SimResult:
    """Outcome of one simulated application run."""

    def __init__(self, app_name: str, policy_name: str, stats: SimStats):
        self.app_name = app_name
        self.policy_name = policy_name
        self.stats = stats

    @property
    def makespan(self) -> float:
        return self.stats.makespan

    def summary(self) -> Dict[str, float]:
        return self.stats.summary()

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable payload (see :meth:`from_dict`)."""
        return {
            "app_name": self.app_name,
            "policy_name": self.policy_name,
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SimResult":
        """Rebuild a result saved with :meth:`to_dict` (disk cache path)."""
        return cls(
            app_name=payload["app_name"],
            policy_name=payload["policy_name"],
            stats=SimStats.from_dict(payload["stats"]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimResult({self.app_name!r}, policy={self.policy_name!r}, "
            f"makespan={self.makespan:.0f})"
        )


class GPUSimulator:
    """Runs one :class:`~repro.sim.kernel.Application` under one policy."""

    #: Component factories, overridable for differential validation
    #: (:mod:`repro.check.reference` swaps in naive reference
    #: implementations) and for seeding deliberate bugs in conformance
    #: tests.  Production code never overrides these.
    queue_factory = EventQueue
    smx_factory = SMX
    gmu_factory = GMU
    memory_factory = MemorySystem

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        policy: Optional[LaunchPolicy] = None,
        stream_policy: Optional[StreamPolicy] = None,
        *,
        tracer: Optional[Tracer] = None,
        trace_interval: float = 1000.0,
        max_events: int = DEFAULT_MAX_EVENTS,
        api_call_cycles: float = 40.0,
        cta_init_cycles: float = 50.0,
        dtbl_coalesce_cycles: float = 150.0,
        max_lines_per_cta: int = 4096,
        latency_hiding: float = 0.35,
        bind_policy: str = "fcfs",
    ):
        self.config = config or GPUConfig()
        self.policy = policy or AlwaysLaunchPolicy()
        self.stream_policy = stream_policy or PerChildStream()
        #: Structured event tracer (repro.obs); the disabled default makes
        #: every instrumentation site a single attribute check.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.trace_interval = trace_interval
        self.max_events = max_events
        self.api_call_cycles = api_call_cycles
        self.cta_init_cycles = cta_init_cycles
        self.dtbl_coalesce_cycles = dtbl_coalesce_cycles
        self.max_lines_per_cta = max_lines_per_cta
        if not 0 < latency_hiding <= 1:
            raise SimulationError("latency_hiding must be in (0, 1]")
        self.latency_hiding = latency_hiding
        #: SWQ→HWQ binding policy forwarded to the GMU ("fcfs" or "acs").
        self.bind_policy = bind_policy
        # Per-run state, created in _reset().
        self.queue: EventQueue
        self.smxs: List[SMX]
        self.gmu: GMU
        self.launch_unit: LaunchUnit
        self.memory: MemorySystem
        self.metrics: MetricsMonitor
        self.stats: SimStats

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def run(self, app: Application) -> SimResult:
        app.validate(self.config)
        self._reset()
        self._app = app
        self._host_index = 0
        self._submit_next_root()
        self.queue.run(self.max_events)
        # The queue is drained: nothing calls back into this simulator any
        # more.  Dropping the callbacks that point back at it lets reference
        # counting free it, L2 model included, as soon as the caller lets
        # go, instead of leaving it to the cyclic garbage collector.
        self._smx_callbacks = []
        self.launch_unit.deliver = None
        if self._unfinished_kernels:
            raise SimulationError(
                f"simulation drained with {self._unfinished_kernels} kernels "
                "unfinished (deadlock in the modelled system)"
            )
        self.stats.finalize(self._last_completion)
        self.stats.l2_hits = self.memory.l2.hits
        self.stats.l2_misses = self.memory.l2.misses
        self.stats.peak_ccqs_depth = self.metrics.peak_n
        return SimResult(app.name, self.policy.describe(), self.stats)

    def _reset(self) -> None:
        cfg = self.config
        self.queue = self.queue_factory()
        self.tracer.bind_clock(lambda: self.queue.now)
        self.smxs = [self.smx_factory(i, cfg) for i in range(cfg.num_smx)]
        self.gmu = self.gmu_factory(
            cfg, tracer=self.tracer, bind_policy=self.bind_policy
        )
        self.launch_unit = LaunchUnit(
            cfg.launch, self.queue, self._on_kernel_arrival, tracer=self.tracer
        )
        self.memory = self.memory_factory(
            cfg.memory,
            max_lines_per_cta=self.max_lines_per_cta,
            num_smx=cfg.num_smx,
        )
        self.metrics = MetricsMonitor(window_cycles=cfg.metric_window_cycles)
        self.stats = SimStats(trace_interval=self.trace_interval)
        self.stats.set_capacity(
            warps=cfg.max_warps_per_smx * cfg.num_smx,
            regs=cfg.registers_per_smx * cfg.num_smx,
            shmem=cfg.shared_mem_per_smx * cfg.num_smx,
        )
        self.stream_policy.reset()
        self.policy.bind(self.metrics, cfg)
        self.policy.set_audit(self.tracer.enabled)
        self._kernel_ids = itertools.count()
        self._smx_events: List[Optional[Event]] = [None] * cfg.num_smx
        # One bound callback per SMX instead of a fresh closure per
        # reschedule (tens of thousands per run).
        self._smx_callbacks = [
            partial(self._on_smx_event, smx) for smx in self.smxs
        ]
        self._smx_rr = 0
        self._dtbl_pending: Deque[KernelInstance] = deque()
        # Merge buffering (consolidate / aggregate): the active policy
        # advertises its scope; non-merging policies leave it None and the
        # whole machinery stays dormant (one attribute check per hook).
        self._merge_scope: Optional[str] = getattr(
            self.policy, "merge_scope", None
        )
        self._merge_batch: Optional[int] = (
            getattr(self.policy, "batch_ctas", None)
            if self._merge_scope == "cta"
            else None
        )
        # (parent CTA -> compat key -> buffered entries) for cta/block
        # scopes; (parent kernel -> compat key -> entries) for grid scope.
        self._cta_merge: Dict[CTAInstance, Dict[tuple, list]] = {}
        self._grid_merge: Dict[KernelInstance, Dict[tuple, list]] = {}
        # Consolidate only: (parent CTA -> compat key -> child CTAs
        # buffered), the running total its batch_ctas flush compares.
        self._cta_merge_ctas: Dict[CTAInstance, Dict[tuple, int]] = {}
        self._unfinished_kernels = 0
        self._last_completion = 0.0
        self._res_parent_ctas = 0
        self._res_child_ctas = 0
        self._res_total_ctas = 0  # resident CTAs GPU-wide (free-slot math)
        self._res_warps = 0
        self._res_regs = 0
        self._res_shmem = 0
        self._dispatching = False
        # CTA shapes that failed placement this dispatch pass (cleared at
        # the top of every _dispatch call).
        self._failed_shapes: set = set()
        # SMXs placed on in this dispatch pass, one entry per placement;
        # their events are scheduled when the pass ends.
        self._placed: List[SMX] = []
        # The SMX whose event is being handled; ``_on_smx_event``
        # reschedules it itself, after every dispatch pass it runs.
        self._handled_smx: Optional[SMX] = None

    def _submit_next_root(self) -> None:
        spec = self._app.kernels[self._host_index]
        kernel = KernelInstance(
            next(self._kernel_ids), spec, stream_id=self._host_index, is_child=False
        )
        kernel.record.launch_call_time = self.queue.now
        if self.tracer.enabled:
            self.tracer.emit(
                KERNEL_LAUNCH_CALL,
                kernel_id=kernel.kernel_id,
                kernel=spec.name,
                is_child=False,
                num_ctas=kernel.num_ctas,
                stream=kernel.stream_id,
            )
        self._unfinished_kernels += 1
        self._on_kernel_arrival(kernel)

    # ------------------------------------------------------------------
    # Kernel arrival and dispatch
    # ------------------------------------------------------------------
    def _on_kernel_arrival(self, kernel: KernelInstance) -> None:
        kernel.record.arrival_time = self.queue.now
        self.stats.kernels[kernel.kernel_id] = kernel.record
        self.gmu.submit(kernel)
        if self.tracer.enabled:
            self.tracer.emit(
                KERNEL_ARRIVAL,
                kernel_id=kernel.kernel_id,
                kernel=kernel.spec.name,
                is_child=kernel.is_child,
                num_ctas=kernel.num_ctas,
                stream=kernel.stream_id,
                pending=self.gmu.pending_kernels,
            )
        self._dispatch()

    def _on_dtbl_arrival(self, kernel: KernelInstance) -> None:
        kernel.record.arrival_time = self.queue.now
        kernel.state = KernelState.EXECUTING
        kernel.via_dtbl = True
        self.stats.kernels[kernel.kernel_id] = kernel.record
        self._dtbl_pending.append(kernel)
        if self.tracer.enabled:
            self.tracer.emit(
                KERNEL_ARRIVAL,
                kernel_id=kernel.kernel_id,
                kernel=kernel.spec.name,
                is_child=kernel.is_child,
                num_ctas=kernel.num_ctas,
                stream=kernel.stream_id,
                via_dtbl=True,
            )
        self._dispatch()

    def _dispatch(self) -> None:
        """Place as many CTAs as resources allow (RR over kernels and SMXs)."""
        if self._dispatching:
            # Nested completion notifications re-enter here; the outer loop
            # picks up any newly dispatchable work.
            return
        if not self._dtbl_pending and not self.gmu.can_dispatch():
            # Nothing to place: a pass would change no state at all.
            return
        self._dispatching = True
        # Within one dispatch pass resources only shrink, so a CTA shape
        # that failed to fit once cannot fit later in the same pass.
        self._failed_shapes.clear()
        try:
            while self._dispatch_round():
                pass
            if self._placed:
                self._schedule_placed()
        finally:
            self._dispatching = False

    def _schedule_placed(self) -> None:
        """Schedule each SMX placed on in this pass once, in the order of
        its last placement.

        A pass schedules no event but SMX events, so every event scheduled
        before it keeps its rank, and these come after them in the order
        that rescheduling at every placement would have left them in.  The
        SMX being handled is skipped: its handler reschedules it last.
        """
        placed = self._placed
        self._placed = []
        if len(placed) > 1:
            placed = list(dict.fromkeys(reversed(placed)))
            placed.reverse()
        handled = self._handled_smx
        for smx in placed:
            if smx is not handled:
                self._reschedule_smx(smx)

    def _dispatch_round(self) -> bool:
        free_slots = (
            self.config.max_ctas_per_smx * len(self.smxs) - self._res_total_ctas
        )
        if free_slots == 0:
            return False
        placed = False
        gmu = self.gmu
        failed = self._failed_shapes
        for kernel in gmu.dispatchable_kernels(failed):
            shape = kernel.shape
            if shape in failed:
                continue
            smx = self._find_smx(shape)
            if smx is None:
                # A shape no empty SMX holds would wait forever.
                check_cta_fits(kernel.spec.name, shape, self.config)
                failed.add(shape)
                continue
            self._dispatch_cta(kernel, smx)
            gmu.note_cta_taken(kernel)
            placed = True
            free_slots -= 1
            if free_slots == 0:
                return placed
        pending = self._dtbl_pending
        while pending:
            head = pending[0]
            if head.next_cta_index >= head.num_ctas:
                pending.popleft()
                continue
            shape = head.shape
            if shape in failed:
                break
            smx = self._find_smx(shape)
            if smx is None:
                check_cta_fits(head.spec.name, shape, self.config)
                failed.add(shape)
                break
            self._dispatch_cta(head, smx)
            placed = True
        return placed

    def _find_smx(self, shape: Tuple[int, int, int]) -> Optional[SMX]:
        """Next SMX round-robin with room for a ``(threads, regs, shmem)``
        CTA shape (``can_fit``, inlined)."""
        threads, regs, shmem = shape
        smxs = self.smxs
        n = len(smxs)
        cfg = self.config
        max_ctas = cfg.max_ctas_per_smx
        max_threads = cfg.max_threads_per_smx
        max_regs = cfg.registers_per_smx
        max_shmem = cfg.shared_mem_per_smx
        rr = self._smx_rr
        for offset in range(n):
            index = rr + offset
            if index >= n:
                index -= n
            smx = smxs[index]
            if (
                len(smx.resident) < max_ctas
                and smx.used_threads + threads <= max_threads
                and smx.used_regs + regs <= max_regs
                and smx.used_shmem + shmem <= max_shmem
            ):
                self._smx_rr = (rr + offset + 1) % n
                return smx
        return None

    # ------------------------------------------------------------------
    # CTA dispatch: footprint, timing, decision points
    # ------------------------------------------------------------------
    def _dispatch_cta(self, kernel: KernelInstance, smx: SMX) -> None:
        now = self.queue.now
        spec = kernel.spec
        cta_index = kernel.next_cta_index
        if cta_index >= kernel.num_ctas:
            raise SimulationError(
                f"kernel {spec.name!r} has no CTAs left to dispatch"
            )
        kernel.next_cta_index = cta_index + 1
        cls = spec.__class__
        plan = (
            spec if cls is ChildGridPlan or cls is MergedGridPlan else plan_of(spec)
        )
        start, stop, num_warps, executed, per_warp, base, extent = plan.cta(
            cta_index
        )
        record = kernel.record
        if record.first_dispatch_time is None:
            record.first_dispatch_time = now
            if self.tracer.enabled:
                self.tracer.emit(
                    KERNEL_FIRST_DISPATCH,
                    ts=now,
                    kernel_id=kernel.kernel_id,
                    kernel=spec.name,
                    queuing_latency=record.queuing_latency,
                )

        # Memory footprint of the CTA's unconditional work.  A grid without
        # ``mem_bases`` plans every base as None, so the range test comes
        # first: a child grid has no per-thread arrays to look at.
        if base is not None:
            stall, _ = self.memory.cta_access([(base, extent)], smx.index, now)
        elif spec.mem_bases is None:
            stall = self.memory.stall_cycles(1.0)
        else:
            items = spec.thread_items[start:stop]
            stall, _ = self.memory.cta_access_arrays(
                spec.mem_bases[start:stop], items * spec.mem_stride, smx.index, now
            )

        # Per-warp critical path and issue occupancy.
        cost_total = spec.cycles_per_item + spec.accesses_per_item * stall
        issue_frac = spec.cycles_per_item / cost_total if cost_total > 0 else 0.0
        init = self.cta_init_cycles
        if isinstance(per_warp, list):
            # Exact per-warp item maxima.  Rounding a product by a
            # non-negative cost is monotonic, so max(items) * cost is
            # max(items * cost) bit for bit.
            warp_total = [init + m * cost_total for m in per_warp]
            warp_issue = [init + m * cost_total * issue_frac for m in per_warp]
        else:
            # Uniform grid: every warp carries the same per-thread count.
            wt = init + per_warp * cost_total
            wi = init + per_warp * cost_total * issue_frac
            warp_total = [wt] * num_warps
            warp_issue = [wi] * num_warps

        # Launch calls of the CTA's threads, in thread order.
        decisions: List[PendingDecision] = []
        dec_tids = plan.dec_tids
        if dec_tids is not None:
            child_requests = spec.child_requests
            for pos in range(bisect_left(dec_tids, start), len(dec_tids)):
                tid = dec_tids[pos]
                if tid >= stop:
                    break
                warp = (tid - start) // WARP_SIZE
                for req in child_requests[tid]:
                    decisions.append(
                        PendingDecision(
                            req.at_fraction * warp_total[warp], warp, tid, req
                        )
                    )

        cta = CTAInstance(
            kernel,
            cta_index,
            spec.threads_per_cta,
            num_warps,
            spec.threads_per_cta * spec.regs_per_thread,
            spec.shmem_per_cta,
            warp_total,
            warp_issue,
            decisions,
            self.latency_hiding,
        )
        if kernel.is_child:
            self.stats.items_in_child += executed
        else:
            self.stats.items_in_parent += executed
        self._place_on_smx(cta, smx, now)

    def _place_on_smx(self, cta: CTAInstance, smx: SMX, now: float) -> None:
        smx.add(cta, now)
        cta.dispatch_time = now
        kernel = cta.kernel
        if self.tracer.enabled:
            self.tracer.emit(
                CTA_DISPATCH,
                ts=now,
                kernel_id=kernel.kernel_id,
                kernel=kernel.spec.name,
                cta_index=cta.cta_index,
                smx=smx.index,
                is_child=kernel.is_child,
                warps=cta.num_warps,
                threads=cta.num_threads,
                regs=cta.regs,
                shmem=cta.shmem,
            )
        if kernel.is_child:
            self.metrics.on_cta_started(now)
            self._res_child_ctas += 1
        else:
            self._res_parent_ctas += 1
        self._res_total_ctas += 1
        self._res_warps += cta.num_warps
        self._res_regs += cta.regs
        self._res_shmem += cta.shmem
        self.stats.record_state(
            now,
            self._res_parent_ctas,
            self._res_child_ctas,
            self._res_warps,
            self._res_regs,
            self._res_shmem,
        )
        self._note_placement(smx)

    def _note_placement(self, smx: SMX) -> None:
        """Defer the placed-on SMX's reschedule to the end of the pass."""
        self._placed.append(smx)

    # ------------------------------------------------------------------
    # Launch decisions (fired on the progress axis)
    # ------------------------------------------------------------------
    def _process_decisions(self, cta: CTAInstance, smx: SMX, now: float) -> None:
        fired = cta.pop_fired_decisions()
        if not fired:
            return
        kernel = cta.kernel
        spec = kernel.spec
        batches: Dict[int, List[KernelInstance]] = {}
        # Warp-scope aggregation groups within ONE decision pass: requests
        # fired together by the same warp merge; nothing is buffered across
        # passes (a warp's lanes launch in lockstep or not at all).
        warp_groups: Dict[tuple, list] = {}
        for decision in fired:
            req = decision.request
            kind = self.policy.decide(
                LaunchRequest(
                    now,
                    req.items,
                    req.num_ctas,
                    req.items_per_thread,
                    spec.depth + 1,
                )
            )
            if kind is DecisionKind.SERIAL:
                if self.tracer.enabled:
                    self._trace_decision(kind, decision, req, cta, now, None)
                self._apply_serial(cta, decision, req)
                continue
            if kind is DecisionKind.REUSE:
                if self.tracer.enabled:
                    self._trace_decision(kind, decision, req, cta, now, None)
                self._apply_reuse(cta, req)
                continue
            if kind is DecisionKind.CONSOLIDATE or kind is DecisionKind.AGGREGATE:
                if self.tracer.enabled:
                    self._trace_decision(kind, decision, req, cta, now, None)
                if kind is DecisionKind.CONSOLIDATE:
                    self.stats.child_kernels_consolidated += 1
                else:
                    self.stats.child_kernels_aggregated += 1
                # The parent still pays the launch API cost and waits on
                # the eventual merged kernel; only kernel creation is
                # deferred to the flush point.
                cta.outstanding_children += 1
                self._apply_launch_cost(cta, decision, req)
                self._buffer_merge(cta, decision, req, now, warp_groups)
                continue
            child = self._make_child_kernel(kernel, cta, req)
            if self.tracer.enabled:
                self._trace_decision(kind, decision, req, cta, now, child)
            self.metrics.advance(now)
            self.metrics.on_ctas_admitted(child.num_ctas)
            self.stats.child_kernels_launched += 1
            self.stats.child_ctas_launched += child.num_ctas
            self.stats.launch_times.append(now)
            cta.outstanding_children += 1
            self._apply_launch_cost(cta, decision, req)
            if kind is DecisionKind.COALESCE:
                child.record.launch_call_time = now
                self.queue.schedule_in(
                    self.dtbl_coalesce_cycles,
                    lambda k=child: self._on_dtbl_arrival(k),
                )
            else:
                batches.setdefault(decision.warp, []).append(child)
        for (warp, _mkey), entries in warp_groups.items():
            merged = self._flush_merge_group(entries, now)
            batches.setdefault(warp, []).append(merged)
        for batch in batches.values():
            self.launch_unit.submit_batch(batch)
        smx.refresh_demand(cta, now)

    def _trace_decision(
        self,
        kind: DecisionKind,
        decision: PendingDecision,
        req: ChildRequest,
        cta: CTAInstance,
        now: float,
        child: Optional[KernelInstance],
    ) -> None:
        """Emit one launch-decision event, with the SPAWN audit payload.

        ``policy.decision_audit()`` contributes the monitored inputs
        (``n``, ``n_con``, ``t_cta``, ``t_warp``) and the Equation 1/2
        estimates when the active policy has a prediction model; the audit
        layer joins launched decisions with the child's completion event.
        """
        args: Dict[str, object] = {
            "verdict": kind.value,
            "items": req.items,
            "num_ctas": req.num_ctas,
            "depth": cta.kernel.spec.depth + 1,
            "parent_kernel_id": cta.kernel.kernel_id,
            "cta_index": cta.cta_index,
            "smx": cta.smx_index,
            "warp": decision.warp,
            "tid": decision.tid,
        }
        if child is not None:
            args["child_kernel_id"] = child.kernel_id
        audit = self.policy.decision_audit()
        if audit is not None:
            args.update(audit)
        self.tracer.emit(LAUNCH_DECISION, ts=now, **args)

    def _apply_serial(
        self, cta: CTAInstance, decision: PendingDecision, req: ChildRequest
    ) -> None:
        """The parent thread performs the offloadable work in a loop."""
        stall, _ = self.memory.cta_access(
            [(req.mem_base, req.items * req.mem_stride)],
            cta.smx_index,
            self.queue.now,
        )
        total = req.items * (req.cycles_per_item + req.accesses_per_item * stall)
        issue = req.items * req.cycles_per_item
        cta.extend_thread(decision.warp, decision.tid, total, issue)
        self.stats.items_in_parent += req.items
        self.stats.child_kernels_declined += 1

    def _apply_reuse(self, cta: CTAInstance, req: ChildRequest) -> None:
        """Free Launch: spread the child's work over the parent CTA's lanes.

        Every warp of the parent CTA picks up an equal share of the items;
        shares from successive reused children accumulate (the reuse queue
        drains work through the same resident threads).
        """
        stall, _ = self.memory.cta_access(
            [(req.mem_base, req.items * req.mem_stride)],
            cta.smx_index,
            self.queue.now,
        )
        per_lane = -(-req.items // cta.num_threads)  # ceil: SIMT lockstep
        total = per_lane * (req.cycles_per_item + req.accesses_per_item * stall)
        issue = per_lane * req.cycles_per_item
        for warp in range(cta.num_warps):
            # A per-warp sentinel "thread" accumulates reuse shares so that
            # successive reused children stack instead of overlapping.
            cta.extend_thread(warp, -(warp + 1), total, issue)
        self.stats.items_in_parent += req.items
        self.stats.child_kernels_reused += 1

    def _apply_launch_cost(
        self, cta: CTAInstance, decision: PendingDecision, req: ChildRequest
    ) -> None:
        """Header reads plus the asynchronous launch API call."""
        header = min(cta.kernel.spec.header_items, req.items)
        stall, _ = self.memory.cta_access(
            [(req.mem_base, header * req.mem_stride)],
            cta.smx_index,
            self.queue.now,
        )
        total = (
            header * (req.cycles_per_item + req.accesses_per_item * stall)
            + self.api_call_cycles
        )
        issue = header * req.cycles_per_item + self.api_call_cycles
        cta.extend_thread(decision.warp, decision.tid, total, issue)

    def _make_child_kernel(
        self, parent: KernelInstance, parent_cta: CTAInstance, req: ChildRequest
    ) -> KernelInstance:
        spec = ChildGridPlan(req, parent.spec.depth + 1)
        stream = self.stream_policy.stream_for(parent.kernel_id, parent_cta.cta_index)
        child = KernelInstance(
            next(self._kernel_ids),
            spec,
            stream_id=stream,
            is_child=True,
            parent_cta=parent_cta,
            items_per_thread=req.items_per_thread,
        )
        self._unfinished_kernels += 1
        return child

    # ------------------------------------------------------------------
    # Merged launches (consolidate / aggregate)
    # ------------------------------------------------------------------
    def _buffer_merge(
        self,
        cta: CTAInstance,
        decision: PendingDecision,
        req: ChildRequest,
        now: float,
        warp_groups: Dict[tuple, list],
    ) -> None:
        """Buffer one admitted request until its scope's flush point."""
        scope = self._merge_scope
        mkey = merge_key(req)
        entry = (cta, decision, req)
        if scope == "warp":
            warp_groups.setdefault((decision.warp, mkey), []).append(entry)
            return
        if scope == "grid":
            bucket = self._grid_merge.setdefault(cta.kernel, {})
            bucket.setdefault(mkey, []).append(entry)
            return
        # "cta" (consolidate) and "block" (aggregate:block) buffer per
        # parent CTA.  Consolidate additionally flushes a compat group the
        # moment it accumulates batch_ctas child CTAs, so the batch size
        # caps merged-kernel granularity.
        bucket = self._cta_merge.setdefault(cta, {})
        entries = bucket.setdefault(mkey, [])
        entries.append(entry)
        if self._merge_batch is not None:
            totals = self._cta_merge_ctas.setdefault(cta, {})
            total = totals.get(mkey, 0) + req.num_ctas
            if total >= self._merge_batch:
                del bucket[mkey]
                totals.pop(mkey, None)
                merged = self._flush_merge_group(entries, now)
                self.launch_unit.submit_batch([merged])
            else:
                totals[mkey] = total

    def _flush_merge_group(self, entries: list, now: float) -> KernelInstance:
        """Turn one compat group of buffered requests into a merged kernel."""
        reqs = [entry[2] for entry in entries]
        leader = entries[0][0]
        parent = leader.kernel
        spec = self._merged_grid(reqs, parent.spec.depth + 1)
        stream = self.stream_policy.stream_for(parent.kernel_id, leader.cta_index)
        child = KernelInstance(
            next(self._kernel_ids),
            spec,
            stream_id=stream,
            is_child=True,
            items_per_thread=reqs[0].items_per_thread,
        )
        counts: Dict[CTAInstance, int] = {}
        for parent_cta, _, _ in entries:
            counts[parent_cta] = counts.get(parent_cta, 0) + 1
        child.merged_parents = list(counts.items())
        self._unfinished_kernels += 1
        self.metrics.advance(now)
        self.metrics.on_ctas_admitted(child.num_ctas)
        self.stats.merged_kernels_launched += 1
        self.stats.child_ctas_launched += child.num_ctas
        self.stats.launch_times.append(now)
        if self.tracer.enabled:
            self.tracer.emit(
                LAUNCH_MERGE,
                ts=now,
                child_kernel_id=child.kernel_id,
                kernel=spec.name,
                scope=self._merge_scope,
                num_ctas=child.num_ctas,
                num_requests=len(reqs),
                stream=stream,
                src=[
                    [c.kernel.kernel_id, c.cta_index, d.warp, d.tid, r.num_ctas]
                    for c, d, r in entries
                ],
            )
        return child

    def _merged_grid(self, reqs: List[ChildRequest], depth: int):
        """A merged kernel's grid, in closed form."""
        return MergedGridPlan(reqs, depth)

    def _flush_cta_merge(self, cta: CTAInstance, now: float) -> None:
        self._cta_merge_ctas.pop(cta, None)
        bucket = self._cta_merge.pop(cta, None)
        if not bucket:
            return
        children = [
            self._flush_merge_group(entries, now) for entries in bucket.values()
        ]
        self.launch_unit.submit_batch(children)

    def _flush_grid_merge(self, kernel: KernelInstance, now: float) -> None:
        bucket = self._grid_merge.pop(kernel, None)
        if not bucket:
            return
        children = [
            self._flush_merge_group(entries, now) for entries in bucket.values()
        ]
        self.launch_unit.submit_batch(children)

    # ------------------------------------------------------------------
    # Completion handling
    # ------------------------------------------------------------------
    def _reschedule_smx(self, smx: SMX) -> None:
        events = self._smx_events
        i = smx.index
        event = events[i]
        if event is not None:
            event.cancel()
            events[i] = None
        queue = self.queue
        now = queue.now
        when = smx.next_event_time(now)
        if when is not None:
            events[i] = queue.schedule(
                when if when > now else now, self._smx_callbacks[i]
            )

    def _on_smx_event(self, smx: SMX) -> None:
        self._smx_events[smx.index] = None
        self._handled_smx = smx
        now = self.queue.now
        smx.advance(now)
        progressed = False
        for cta in smx.ctas_with_fired_decisions():
            self._process_decisions(cta, smx, now)
            progressed = True
        finished = smx.pop_finished(now)
        if finished:
            progressed = True
            tracing = self.tracer.enabled
            for cta in finished:
                # Detach: the CTA gives its resources back.
                if cta.kernel.is_child:
                    self._res_child_ctas -= 1
                else:
                    self._res_parent_ctas -= 1
                self._res_total_ctas -= 1
                self._res_warps -= cta.num_warps
                self._res_regs -= cta.regs
                self._res_shmem -= cta.shmem
                cta.compute_done_time = now
                if tracing:
                    self.tracer.emit(
                        CTA_FINISH,
                        ts=now,
                        kernel_id=cta.kernel.kernel_id,
                        cta_index=cta.cta_index,
                        smx=smx.index,
                        is_child=cta.is_child,
                        exec_time=now - cta.dispatch_time,
                    )
            self.stats.record_state(
                now,
                self._res_parent_ctas,
                self._res_child_ctas,
                self._res_warps,
                self._res_regs,
                self._res_shmem,
            )
            for cta in finished:
                self._on_cta_compute_done(cta, now)
            self._dispatch()
        self._handled_smx = None
        if progressed:
            self._reschedule_smx(smx)
        else:
            # Pure float drift: nudge strictly forward so we cannot spin.
            when = smx.next_event_time(now)
            if when is not None:
                self._smx_events[smx.index] = self.queue.schedule(
                    max(when, now + 1e-3), self._smx_callbacks[smx.index]
                )

    def _on_cta_compute_done(self, cta: CTAInstance, now: float) -> None:
        kernel = cta.kernel
        kernel.computing_ctas -= 1
        if kernel.is_child:
            exec_time = now - cta.dispatch_time
            self.stats.child_cta_exec_times.append(exec_time)
            self.metrics.on_cta_finished(now, exec_time, kernel.items_per_thread)
        if self._merge_scope is not None:
            # cta/block scopes flush this CTA's remaining buffers now (the
            # CTA can issue no further launches); grid scope flushes when
            # the whole grid has finished computing.
            self._flush_cta_merge(cta, now)
            if kernel.computing_ctas == 0:
                self._flush_grid_merge(kernel, now)
        if cta.outstanding_children == 0:
            self._cta_fully_done(cta)
        else:
            # Device-synchronization: resources already relinquished; the
            # CTA completes when its children (and their descendants) do.
            cta.state = CTAState.WAITING_CHILDREN
        if (
            kernel.computing_ctas == 0
            and kernel.unfinished_ctas > 0
            and not kernel.hwq_released
            and not kernel.via_dtbl
        ):
            # Every CTA is done computing; the kernel only waits on
            # descendants now, so it releases its HWQ (grid suspension).
            kernel.hwq_released = True
            if self.tracer.enabled:
                self.tracer.emit(
                    KERNEL_SUSPEND,
                    ts=now,
                    kernel_id=kernel.kernel_id,
                    kernel=kernel.spec.name,
                    stream=kernel.stream_id,
                )
            self.gmu.on_kernel_suspended(kernel)
            self._dispatch()

    def _cta_fully_done(self, cta: CTAInstance) -> None:
        cta.state = CTAState.DONE
        if cta.kernel.cta_finished():
            self._on_kernel_complete(cta.kernel)

    def _on_kernel_complete(self, kernel: KernelInstance) -> None:
        now = self.queue.now
        kernel.record.completion_time = now
        self._unfinished_kernels -= 1
        self._last_completion = now
        if self.tracer.enabled:
            self.tracer.emit(
                KERNEL_COMPLETE,
                ts=now,
                kernel_id=kernel.kernel_id,
                kernel=kernel.spec.name,
                is_child=kernel.is_child,
                stream=kernel.stream_id,
                via_dtbl=kernel.via_dtbl,
                suspended=kernel.hwq_released and not kernel.via_dtbl,
            )
        if kernel.via_dtbl:
            if kernel in self._dtbl_pending:
                self._dtbl_pending.remove(kernel)
            kernel.state = KernelState.COMPLETE
        elif kernel.hwq_released:
            kernel.state = KernelState.COMPLETE
        else:
            kernel.hwq_released = True
            self.gmu.on_kernel_complete(kernel)
        parent_cta = kernel.parent_cta
        if kernel.merged_parents is not None:
            # A merged kernel answers to every contributing parent CTA:
            # each sees as many completions as requests it contributed.
            for contributor, count in kernel.merged_parents:
                contributor.outstanding_children -= count
                if (
                    contributor.state is CTAState.WAITING_CHILDREN
                    and contributor.outstanding_children == 0
                ):
                    self._cta_fully_done(contributor)
        elif parent_cta is not None:
            parent_cta.outstanding_children -= 1
            if (
                parent_cta.state is CTAState.WAITING_CHILDREN
                and parent_cta.outstanding_children == 0
            ):
                self._cta_fully_done(parent_cta)
        elif self._host_index + 1 < len(self._app.kernels):
            self._host_index += 1
            self._submit_next_root()
        self._dispatch()
