"""Runtime invariant checking over the simulator's trace event stream.

The :class:`ConformanceChecker` is a :class:`~repro.obs.tracer.Tracer`: pass
it (alone, or fanned out next to another tracer via
:class:`~repro.obs.tracer.MultiTracer`) to :class:`~repro.sim.engine.GPUSimulator`
and it validates every event as it is emitted.  Detached, the engine pays
nothing — the usual ``tracer.enabled`` guard.

Checked invariants, with the paper sections they encode:

* **clock** — event timestamps never decrease (event-driven simulation
  sanity; harness wall-clock events are exempt).
* **conservation** — every kernel arrives at most once and completes
  exactly once; every CTA of a kernel is placed exactly once and finishes
  exactly once, on the SMX it was placed on (Section II-C's dispatch
  semantics: CTAs do not migrate).
* **residency** — per-SMX residency never exceeds the 16-CTA / 2048-thread
  / register-file / shared-memory caps of Table II (``GPUConfig``).
* **hwq** — at most ``num_hwq`` (32, Section II-C) software queues are
  concurrently bound to hardware work queues, and the emitted occupancy
  counters agree with a mirrored bound-set.
* **fcfs** — HWQ binding is FCFS over waiting software queues, and kernels
  within one software queue execute sequentially in submission order
  (Section II-C).
* **spawn** — every SPAWN decision matches an independent re-evaluation of
  Algorithm 1 (Section IV-B) from the traced monitor inputs: recomputed
  Equation 1/2 estimates must agree and the verdict must equal
  ``t_child <= t_parent and n + x <= max_pending_child_ctas`` (the CCQS
  bound of ``GPUConfig``; bootstrap launches unconditionally while
  ``t_cta == 0``).
* **stats** — counting identities between the event stream and the final
  :class:`~repro.sim.stats.SimStats` (``launched + serialized + reused ==
  decisions``, launch-time list length, makespan vs last completion), plus
  end-of-run completeness (no kernel arrived but never completed, no CTA
  dispatched but never finished, no HWQ still bound).
* **merge** — scheme-zoo invariants for consolidate/aggregate runs: a
  merged kernel launches exactly as many CTAs as its constituents total
  (conservation), every constituent comes from the merge scope's single
  context (one warp / one CTA / one grid), and consolidation never buffers
  past its batch bound before flushing.  Constructing the checker with
  ``scheme=`` pins the expected scope and batch; under ``acs`` the
  cross-stream FCFS binding checks are relaxed (ACS deliberately reorders
  binding) while the same-stream sequential-order checks — the invariant
  ACS must preserve — stay armed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import ConformanceError
from repro.obs.tracer import (
    CTA_DISPATCH,
    CTA_FINISH,
    HWQ_BIND,
    HWQ_RELEASE,
    KERNEL_ARRIVAL,
    KERNEL_COMPLETE,
    KERNEL_FIRST_DISPATCH,
    KERNEL_SUSPEND,
    LAUNCH_DECISION,
    LAUNCH_MERGE,
    TraceEvent,
    Tracer,
)
from repro.sim.config import WARP_SIZE, GPUConfig

#: Relative tolerance for re-derived Equation 1/2 estimates.  The checker
#: replays the controller's exact arithmetic, so agreement is normally
#: bit-exact; the epsilon only forgives benign last-bit differences.
_REL_TOL = 1e-9

#: Verdict strings a LAUNCH_DECISION may carry (DecisionKind values).
_VERDICTS = frozenset(
    {"launch", "serial", "coalesce", "reuse", "consolidate", "aggregate"}
)

#: Verdicts that actually put a child grid on the GPU.
_ADMITTING = frozenset({"launch", "coalesce"})


@dataclass
class Violation:
    """One broken invariant, tied to the event that exposed it."""

    invariant: str
    message: str
    ts: float = 0.0
    event_index: int = -1

    def __str__(self) -> str:
        where = f"event #{self.event_index} @ t={self.ts:.0f}"
        return f"[{self.invariant}] {where}: {self.message}"


class _KernelLedger:
    """Conservation bookkeeping for one kernel instance."""

    __slots__ = ("num_ctas", "stream", "via_dtbl", "is_child",
                 "dispatched", "finished", "completed")

    def __init__(self, num_ctas: int, stream: int, via_dtbl: bool, is_child: bool):
        self.num_ctas = num_ctas
        self.stream = stream
        self.via_dtbl = via_dtbl
        self.is_child = is_child
        self.dispatched = 0
        self.finished = 0
        self.completed = False


class _SmxLedger:
    """Residency bookkeeping for one SMX."""

    __slots__ = ("ctas", "threads", "regs", "shmem")

    def __init__(self) -> None:
        self.ctas = 0
        self.threads = 0
        self.regs = 0
        self.shmem = 0


class ConformanceChecker(Tracer):
    """A tracer that validates the event stream it records.

    Violations are *collected*, not raised, so one broken invariant does
    not mask the rest; call :meth:`raise_if_violations` (or inspect
    :attr:`violations`) after the run.  Events are also retained, so the
    same attached checker doubles as the event source for golden-trace
    capture.
    """

    def __init__(
        self,
        config: GPUConfig,
        *,
        scheme: Optional[str] = None,
        keep_events: bool = True,
    ):
        super().__init__()
        self.config = config
        self.keep_events = keep_events
        #: Scheme-aware expectations.  With no scheme the checker accepts
        #: whatever scope a merge event declares (still enforcing its
        #: internal consistency) and keeps strict FCFS binding checks.
        self.scheme = scheme
        self._acs = False
        self._merge_scope: Optional[str] = None
        self._merge_batch: Optional[int] = None
        if scheme is not None:
            # Deferred import: the checker is usable without the harness.
            from repro.harness.schemes import SchemeSpec

            spec = SchemeSpec.parse(scheme)
            self._acs = spec.bind_policy != "fcfs"
            if spec.batch_ctas is not None:
                self._merge_scope = "cta"
                self._merge_batch = spec.batch_ctas
            elif spec.granularity is not None:
                self._merge_scope = spec.granularity
        self.launch_overhead_cycles = float(config.launch.latency(1))
        self.violations: List[Violation] = []
        self.events_checked = 0
        # --- mirrored state -------------------------------------------
        self._last_ts = float("-inf")
        self._event_index = -1
        self._kernels: Dict[int, _KernelLedger] = {}
        #: (kernel_id, cta_index) -> (smx, threads, regs, shmem) at dispatch.
        self._ctas: Dict[Tuple[int, int], Tuple[int, int, int, int]] = {}
        self._ctas_finished: Set[Tuple[int, int]] = set()
        self._smxs: Dict[int, _SmxLedger] = {}
        self._bound: Set[int] = set()
        self._waiting: Deque[int] = deque()
        self._stream_fifo: Dict[int, Deque[int]] = {}
        # --- decision accounting --------------------------------------
        self._decision_counts = {v: 0 for v in _VERDICTS}
        self._admitted_ctas = 0
        self._decision_child_ids: Set[int] = set()
        # --- merged-launch accounting ----------------------------------
        self._merge_child_ids: Set[int] = set()
        self._merge_expected: Dict[int, int] = {}  # child id -> num_ctas
        self._merged_launches = 0
        self._merged_ctas = 0
        self._merged_requests = 0
        self._last_completion: Optional[float] = None
        self._handlers: Dict[str, Callable[[TraceEvent], None]] = {
            KERNEL_ARRIVAL: self._on_arrival,
            KERNEL_FIRST_DISPATCH: self._on_first_dispatch,
            KERNEL_SUSPEND: self._on_suspend,
            KERNEL_COMPLETE: self._on_complete,
            CTA_DISPATCH: self._on_cta_dispatch,
            CTA_FINISH: self._on_cta_finish,
            HWQ_BIND: self._on_hwq_bind,
            HWQ_RELEASE: self._on_hwq_release,
            LAUNCH_DECISION: self._on_decision,
            LAUNCH_MERGE: self._on_merge,
        }

    # ------------------------------------------------------------------
    # Tracer interface
    # ------------------------------------------------------------------
    def emit(self, kind: str, ts: Optional[float] = None, **args: object) -> None:
        event = TraceEvent(self.clock() if ts is None else ts, kind, args)
        if self.keep_events:
            self._events.append(event)
        self.check_event(event)

    def check_event(self, event: TraceEvent) -> None:
        """Validate one event against the mirrored machine state."""
        index = self.events_checked
        self.events_checked = index + 1
        if not event.kind.startswith("harness."):
            if event.ts < self._last_ts:
                self._fail(
                    "clock",
                    f"{event.kind} at t={event.ts} after t={self._last_ts}",
                    event,
                    index,
                )
            else:
                self._last_ts = event.ts
        handler = self._handlers.get(event.kind)
        if handler is not None:
            self._event_index = index
            handler(event)

    def check_trace(self, events) -> List[Violation]:
        """Validate a pre-recorded event stream (golden replay path)."""
        for event in events:
            self.check_event(event)
        return self.violations

    # ------------------------------------------------------------------
    # Outcome
    # ------------------------------------------------------------------
    def finalize(self, stats=None) -> List[Violation]:
        """End-of-run completeness and stats-identity checks.

        ``stats`` may be a :class:`~repro.sim.stats.SimStats`, a
        :class:`~repro.sim.engine.SimResult` (its ``.stats`` is used), or
        None to run only the trace-side completeness checks.
        """
        tail = TraceEvent(self._last_ts, "checker.finalize", {})
        index = self.events_checked
        for kid, ledger in self._kernels.items():
            if not ledger.completed:
                self._fail(
                    "stats", f"kernel {kid} arrived but never completed",
                    tail, index,
                )
            if ledger.finished != ledger.num_ctas:
                self._fail(
                    "stats",
                    f"kernel {kid}: {ledger.finished}/{ledger.num_ctas} "
                    "CTAs finished at end of run",
                    tail, index,
                )
        leaked = set(self._ctas) - self._ctas_finished
        if leaked:
            self._fail(
                "stats",
                f"{len(leaked)} CTAs dispatched but never finished "
                f"(e.g. {sorted(leaked)[:3]})",
                tail, index,
            )
        if self._bound:
            self._fail(
                "hwq", f"streams {sorted(self._bound)} still bound at end of run",
                tail, index,
            )
        if self._merge_expected:
            self._fail(
                "merge",
                f"merged kernels {sorted(self._merge_expected)[:3]} were "
                "flushed but never arrived at the GMU",
                tail, index,
            )
        if stats is not None:
            stats = getattr(stats, "stats", stats)  # accept SimResult
            self._check_stats_identities(stats, tail, index)
        return self.violations

    def _check_stats_identities(self, stats, tail: TraceEvent, index: int) -> None:
        counts = self._decision_counts
        launched = counts["launch"] + counts["coalesce"]
        buffered = counts["consolidate"] + counts["aggregate"]
        checks = [
            ("child_kernels_launched", stats.child_kernels_launched, launched),
            ("child_kernels_declined", stats.child_kernels_declined, counts["serial"]),
            ("child_kernels_reused", stats.child_kernels_reused, counts["reuse"]),
            ("child_kernels_consolidated", stats.child_kernels_consolidated,
             counts["consolidate"]),
            ("child_kernels_aggregated", stats.child_kernels_aggregated,
             counts["aggregate"]),
            ("merged_kernels_launched", stats.merged_kernels_launched,
             self._merged_launches),
            ("child_ctas_launched", stats.child_ctas_launched,
             self._admitted_ctas + self._merged_ctas),
            ("len(launch_times)", len(stats.launch_times),
             launched + self._merged_launches),
        ]
        for name, got, want in checks:
            if got != want:
                self._fail(
                    "stats", f"{name}={got} but the trace implies {want}",
                    tail, index,
                )
        if self._merged_requests != buffered:
            self._fail(
                "merge",
                f"{buffered} requests got a consolidate/aggregate verdict "
                f"but merge events account for {self._merged_requests} "
                "(some buffered launches never flushed)",
                tail, index,
            )
        decisions = sum(counts.values())
        accounted = (
            stats.child_kernels_launched
            + stats.child_kernels_declined
            + stats.child_kernels_reused
            + stats.child_kernels_consolidated
            + stats.child_kernels_aggregated
        )
        if accounted != decisions:
            self._fail(
                "stats",
                f"launched+serialized+reused+buffered = {accounted} but the "
                f"trace has {decisions} decisions",
                tail, index,
            )
        if self._last_completion is not None and stats.makespan != self._last_completion:
            self._fail(
                "stats",
                f"makespan={stats.makespan} but the last kernel completion "
                f"in the trace is at t={self._last_completion}",
                tail, index,
            )
        arrived_children = {
            kid for kid, ledger in self._kernels.items() if ledger.is_child
        }
        launched_children = self._decision_child_ids | self._merge_child_ids
        if launched_children != arrived_children:
            missing = launched_children - arrived_children
            phantom = arrived_children - launched_children
            self._fail(
                "stats",
                "launched child ids and arrived child ids differ "
                f"(launched-but-never-arrived={sorted(missing)[:3]}, "
                f"arrived-without-decision={sorted(phantom)[:3]})",
                tail, index,
            )

    def raise_if_violations(self) -> None:
        """Raise :class:`~repro.errors.ConformanceError` if anything broke."""
        if not self.violations:
            return
        head = "\n".join(str(v) for v in self.violations[:10])
        more = len(self.violations) - 10
        if more > 0:
            head += f"\n... and {more} more"
        raise ConformanceError(
            f"{len(self.violations)} invariant violation(s):\n{head}",
            violations=self.violations,
        )

    # ------------------------------------------------------------------
    # Per-kind handlers
    # ------------------------------------------------------------------
    def _fail(self, invariant: str, message: str, event: TraceEvent,
              index: Optional[int] = None) -> None:
        self.violations.append(
            Violation(
                invariant,
                message,
                ts=event.ts,
                event_index=self._event_index if index is None else index,
            )
        )

    def _on_arrival(self, event: TraceEvent) -> None:
        args = event.args
        kid = args["kernel_id"]
        if kid in self._kernels:
            self._fail("conservation", f"kernel {kid} arrived twice", event)
            return
        via_dtbl = bool(args.get("via_dtbl", False))
        stream = args["stream"]
        self._kernels[kid] = _KernelLedger(
            args["num_ctas"], stream, via_dtbl, bool(args.get("is_child", False))
        )
        promised = self._merge_expected.pop(kid, None)
        if promised is not None and args["num_ctas"] != promised:
            self._fail(
                "merge",
                f"merged kernel {kid} arrived with {args['num_ctas']} CTAs "
                f"but its merge event promised {promised}",
                event,
            )
        if not via_dtbl:
            # Mirror the GMU's SWQ bookkeeping.  NOTE the emission order in
            # the engine: an immediately-satisfiable bind's HWQ_BIND event
            # precedes the causing KERNEL_ARRIVAL (gmu.submit runs first),
            # so on arrival the stream may already sit in the bound set.
            if stream not in self._bound and stream not in self._waiting:
                self._waiting.append(stream)
            self._stream_fifo.setdefault(stream, deque()).append(kid)

    def _on_first_dispatch(self, event: TraceEvent) -> None:
        kid = event.args["kernel_id"]
        ledger = self._kernels.get(kid)
        if ledger is None or ledger.via_dtbl:
            return
        fifo = self._stream_fifo.get(ledger.stream)
        if not fifo or fifo[0] != kid:
            head = fifo[0] if fifo else None
            self._fail(
                "fcfs",
                f"kernel {kid} started dispatching on stream {ledger.stream} "
                f"but the stream head is kernel {head} (sequential-stream "
                "order violated)",
                event,
            )

    def _on_suspend(self, event: TraceEvent) -> None:
        self._retire_from_stream(event, event.args["kernel_id"])

    def _retire_from_stream(self, event: TraceEvent, kid: int) -> None:
        ledger = self._kernels.get(kid)
        if ledger is None:
            self._fail("conservation", f"unknown kernel {kid} retired", event)
            return
        fifo = self._stream_fifo.get(ledger.stream)
        if not fifo or fifo[0] != kid:
            head = fifo[0] if fifo else None
            self._fail(
                "fcfs",
                f"kernel {kid} retired from stream {ledger.stream} but the "
                f"stream head is kernel {head}",
                event,
            )
            if fifo and kid in fifo:
                fifo.remove(kid)
        else:
            fifo.popleft()
        if not fifo:
            self._stream_fifo.pop(ledger.stream, None)

    def _on_complete(self, event: TraceEvent) -> None:
        args = event.args
        kid = args["kernel_id"]
        ledger = self._kernels.get(kid)
        if ledger is None:
            self._fail("conservation", f"unknown kernel {kid} completed", event)
            return
        if ledger.completed:
            self._fail("conservation", f"kernel {kid} completed twice", event)
            return
        ledger.completed = True
        self._last_completion = event.ts
        if ledger.finished != ledger.num_ctas:
            self._fail(
                "conservation",
                f"kernel {kid} completed with {ledger.finished}/"
                f"{ledger.num_ctas} CTAs finished",
                event,
            )
        if not args.get("via_dtbl", False) and not args.get("suspended", False):
            # Still the head of its stream queue; completion retires it.
            self._retire_from_stream(event, kid)

    def _on_cta_dispatch(self, event: TraceEvent) -> None:
        args = event.args
        kid = args["kernel_id"]
        key = (kid, args["cta_index"])
        ledger = self._kernels.get(kid)
        if ledger is None:
            self._fail(
                "conservation",
                f"CTA {key} dispatched for a kernel that never arrived",
                event,
            )
        else:
            ledger.dispatched += 1
            if ledger.dispatched > ledger.num_ctas:
                self._fail(
                    "conservation",
                    f"kernel {kid} dispatched {ledger.dispatched} CTAs but "
                    f"has only {ledger.num_ctas}",
                    event,
                )
        if key in self._ctas:
            self._fail("conservation", f"CTA {key} dispatched twice", event)
            return
        smx_index = args["smx"]
        if not 0 <= smx_index < self.config.num_smx:
            self._fail(
                "residency", f"CTA {key} placed on nonexistent SMX {smx_index}",
                event,
            )
            return
        threads, regs, shmem = args["threads"], args["regs"], args["shmem"]
        self._ctas[key] = (smx_index, threads, regs, shmem)
        smx = self._smxs.setdefault(smx_index, _SmxLedger())
        smx.ctas += 1
        smx.threads += threads
        smx.regs += regs
        smx.shmem += shmem
        cfg = self.config
        caps = (
            (smx.ctas, cfg.max_ctas_per_smx, "CTAs"),
            (smx.threads, cfg.max_threads_per_smx, "threads"),
            (smx.regs, cfg.registers_per_smx, "registers"),
            (smx.shmem, cfg.shared_mem_per_smx, "shared-memory bytes"),
        )
        for used, cap, what in caps:
            if used > cap:
                self._fail(
                    "residency",
                    f"SMX {smx_index} holds {used} {what}, cap is {cap}",
                    event,
                )

    def _on_cta_finish(self, event: TraceEvent) -> None:
        args = event.args
        key = (args["kernel_id"], args["cta_index"])
        placement = self._ctas.get(key)
        if placement is None:
            self._fail(
                "conservation", f"CTA {key} finished without being dispatched",
                event,
            )
            return
        if key in self._ctas_finished:
            self._fail("conservation", f"CTA {key} finished twice", event)
            return
        self._ctas_finished.add(key)
        placed_on, threads, regs, shmem = placement
        smx_index = args["smx"]
        if smx_index != placed_on:
            self._fail(
                "conservation",
                f"CTA {key} finished on SMX {smx_index} but was placed on "
                f"SMX {placed_on}",
                event,
            )
        smx = self._smxs.get(placed_on)
        if smx is not None:
            smx.ctas -= 1
            smx.threads -= threads
            smx.regs -= regs
            smx.shmem -= shmem
        ledger = self._kernels.get(args["kernel_id"])
        if ledger is not None:
            ledger.finished += 1

    def _on_hwq_bind(self, event: TraceEvent) -> None:
        args = event.args
        swq = args["swq"]
        if swq in self._bound:
            self._fail("hwq", f"stream {swq} bound while already bound", event)
            return
        if self._acs:
            # ACS reorders cross-stream binding on purpose; keep the
            # waiting mirror coherent but skip the FCFS ordering checks.
            # Same-stream sequential order (checked at first-dispatch and
            # retirement) remains fully armed — that is ACS's contract.
            if swq in self._waiting:
                self._waiting.remove(swq)
        elif self._waiting:
            expected = self._waiting[0]
            if swq == expected:
                self._waiting.popleft()
            elif swq in self._waiting:
                self._fail(
                    "fcfs",
                    f"stream {swq} bound before stream {expected}, which has "
                    "been waiting longer (FCFS binding violated)",
                    event,
                )
                self._waiting.remove(swq)
            # A stream absent from the waiting mirror is an immediate bind
            # (the engine emits HWQ_BIND before the causing KERNEL_ARRIVAL);
            # that is only legal while nothing is waiting, because the GMU
            # binds waiting streams the moment a HWQ frees up.
            else:
                self._fail(
                    "fcfs",
                    f"stream {swq} bound immediately while stream {expected} "
                    "was waiting for a free HWQ",
                    event,
                )
        self._bound.add(swq)
        if len(self._bound) > self.config.num_hwq:
            self._fail(
                "hwq",
                f"{len(self._bound)} streams concurrently bound, only "
                f"{self.config.num_hwq} HWQs exist",
                event,
            )
        if args.get("bound") != len(self._bound):
            self._fail(
                "hwq",
                f"HWQ_BIND reports bound={args.get('bound')} but the mirror "
                f"holds {len(self._bound)}",
                event,
            )

    def _on_hwq_release(self, event: TraceEvent) -> None:
        args = event.args
        swq = args["swq"]
        if swq not in self._bound:
            self._fail("hwq", f"stream {swq} released but was not bound", event)
        else:
            self._bound.discard(swq)
        if args.get("bound") != len(self._bound):
            self._fail(
                "hwq",
                f"HWQ_RELEASE reports bound={args.get('bound')} but the "
                f"mirror holds {len(self._bound)}",
                event,
            )

    def _on_decision(self, event: TraceEvent) -> None:
        args = event.args
        verdict = args.get("verdict")
        if verdict not in _VERDICTS:
            self._fail("spawn", f"unknown decision verdict {verdict!r}", event)
            return
        self._decision_counts[verdict] += 1
        if verdict in _ADMITTING:
            self._admitted_ctas += args["num_ctas"]
            child = args.get("child_kernel_id")
            if child is None:
                self._fail(
                    "spawn", f"{verdict} decision carries no child_kernel_id",
                    event,
                )
            else:
                self._decision_child_ids.add(child)
        if "bootstrap" not in args:
            return  # no SPAWN audit payload (threshold/DTBL/free-launch)
        self._reevaluate_spawn(event)

    def _on_merge(self, event: TraceEvent) -> None:
        """Scheme-zoo invariants for one merged-kernel flush.

        ``src`` rows are ``[parent_kernel_id, cta_index, warp, tid,
        num_ctas]`` — one per buffered constituent request.
        """
        args = event.args
        scope = args.get("scope")
        if scope not in ("warp", "block", "cta", "grid"):
            self._fail("merge", f"unknown merge scope {scope!r}", event)
            return
        if self.scheme is not None and scope != self._merge_scope:
            self._fail(
                "merge",
                f"{scope}-scope merge under scheme {self.scheme!r} "
                f"(expected scope {self._merge_scope!r})",
                event,
            )
        src = args.get("src") or []
        if not src:
            self._fail("merge", "merge event with no source requests", event)
            return
        if args.get("num_requests") != len(src):
            self._fail(
                "merge",
                f"merge event reports num_requests={args.get('num_requests')} "
                f"but carries {len(src)} source rows",
                event,
            )
        total = sum(row[4] for row in src)
        if total != args["num_ctas"]:
            self._fail(
                "merge",
                f"merged kernel launches {args['num_ctas']} CTAs but its "
                f"{len(src)} constituents total {total} "
                "(CTA conservation violated)",
                event,
            )
        if scope == "grid":
            contexts = {row[0] for row in src}
        elif scope == "warp":
            contexts = {(row[0], row[1], row[2]) for row in src}
        else:  # "block" and "cta" both mean one parent CTA
            contexts = {(row[0], row[1]) for row in src}
        if len(contexts) > 1:
            self._fail(
                "merge",
                f"{scope}-scope merge spans {len(contexts)} distinct "
                f"{scope} contexts (e.g. {sorted(contexts)[:3]})",
                event,
            )
        if scope == "warp" and len({row[3] for row in src}) > WARP_SIZE:
            self._fail(
                "merge",
                f"warp-scope merge drew from more than {WARP_SIZE} lanes",
                event,
            )
        if self._merge_batch is not None and len(src) > 1:
            if total - src[-1][4] >= self._merge_batch:
                self._fail(
                    "merge",
                    f"consolidation overshot its batch bound: {total} child "
                    f"CTAs buffered although the bound of {self._merge_batch} "
                    "was already reached before the last constituent",
                    event,
                )
        child = args.get("child_kernel_id")
        if child is None:
            self._fail("merge", "merge event carries no child_kernel_id", event)
        else:
            if child in self._merge_child_ids:
                self._fail(
                    "conservation", f"merged kernel {child} launched twice",
                    event,
                )
            self._merge_child_ids.add(child)
            self._merge_expected[child] = args["num_ctas"]
        self._merged_launches += 1
        self._merged_ctas += args["num_ctas"]
        self._merged_requests += len(src)

    def _reevaluate_spawn(self, event: TraceEvent) -> None:
        """Replay Algorithm 1 from the traced monitor inputs.

        Mirrors :class:`repro.core.policies.SpawnPolicy` arithmetic
        exactly: ``T = max(n_con, 1) / t_cta``, ``t_child = overhead +
        (n + x) / T`` (Equation 1), ``t_parent = items * t_warp``
        (Equation 2); launch iff ``t_child <= t_parent`` and ``n + x <=
        config.max_pending_child_ctas``.
        """
        args = event.args
        verdict = args["verdict"]
        n = args["n"]
        x = args["num_ctas"]
        t_cta = args["t_cta"]
        if args["bootstrap"]:
            if t_cta != 0:
                self._fail(
                    "spawn",
                    f"bootstrap decision with t_cta={t_cta} (must be 0)",
                    event,
                )
            if verdict != "launch":
                self._fail(
                    "spawn",
                    f"bootstrap decision must launch, got {verdict!r}",
                    event,
                )
            return
        if t_cta <= 0:
            self._fail(
                "spawn",
                f"non-bootstrap decision with t_cta={t_cta} (no throughput "
                "estimate should take the bootstrap path)",
                event,
            )
            return
        throughput = max(args["n_con"], 1) / t_cta
        t_child = self.launch_overhead_cycles + (n + x) / throughput
        t_parent = args["items"] * args["t_warp"]
        for name, traced, derived in (
            ("t_child", args["t_child"], t_child),
            ("t_parent", args["t_parent"], t_parent),
        ):
            if abs(traced - derived) > _REL_TOL * max(abs(traced), abs(derived), 1.0):
                self._fail(
                    "spawn",
                    f"traced {name}={traced} but re-deriving Equation 1/2 "
                    f"from the traced inputs gives {derived}",
                    event,
                )
        bound = self.config.max_pending_child_ctas
        should_launch = args["t_child"] <= args["t_parent"] and n + x <= bound
        if should_launch != (verdict == "launch"):
            self._fail(
                "spawn",
                f"verdict {verdict!r} contradicts Algorithm 1: "
                f"t_child={args['t_child']:.1f} t_parent={args['t_parent']:.1f} "
                f"n+x={n + x} cap={bound}",
                event,
            )
