"""Launch policies: who decides whether a child kernel launch goes ahead.

The simulator routes every device-side launch call through a
:class:`LaunchPolicy`.  The schemes of the paper's evaluation map onto
policies as follows:

* **Baseline-DP** — :class:`StaticThresholdPolicy` at the application's
  native THRESHOLD (launch whenever the local workload exceeds it);
* **Offline-Search** — the best-performing :class:`StaticThresholdPolicy`
  over an exhaustive threshold sweep (done by the harness);
* **SPAWN** — :class:`SpawnPolicy`, Algorithm 1 over live CCQS metrics;
* **DTBL** (Wang et al., ISCA'15) — :class:`DTBLPolicy`: the child's CTAs
  are coalesced onto an already-running aggregated kernel, paying no
  per-kernel launch overhead and consuming no HWQ, but still queuing
  against the CTA concurrency limit;
* the **flat** scheme does not use a policy at all (the application has no
  child requests).
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.metrics import MetricsMonitor
from repro.errors import ConfigError
from repro.sim.config import GPUConfig


class DecisionKind(enum.Enum):
    LAUNCH = "launch"  # real device-side kernel launch (pays A*x + b)
    SERIAL = "serial"  # parent thread loops over the workload itself
    COALESCE = "coalesce"  # DTBL: CTAs appended to an aggregated kernel
    REUSE = "reuse"  # Free Launch: work spread over the parent CTA's threads
    CONSOLIDATE = "consolidate"  # buffered into a coarser merged kernel
    AGGREGATE = "aggregate"  # merged with co-scheduled requests at a granularity


@dataclass(frozen=True)
class LaunchRequest:
    """One thread's launch call, as seen by the policy."""

    time: float
    items: int  # the thread's local workload
    num_ctas: int  # x: CTAs the child kernel would have
    items_per_thread: int
    depth: int  # nesting depth of the would-be child


class LaunchPolicy(abc.ABC):
    """Decides the fate of each launch request during a run."""

    name: str = "abstract"

    def bind(self, metrics: MetricsMonitor, config: GPUConfig) -> None:
        """Called by the engine before a run; default needs nothing."""

    @abc.abstractmethod
    def decide(self, request: LaunchRequest) -> DecisionKind:
        """Classify one launch request."""

    def set_audit(self, enabled: bool) -> None:
        """Ask the policy to retain per-decision internals for auditing.

        Called by the engine once per run, after :meth:`bind`, with the
        tracer's enabled state — retaining internals costs an allocation
        per decision, so untraced runs keep it off.  Default: no-op.
        """

    def decision_audit(self) -> Optional[Dict[str, object]]:
        """Internals of the most recent :meth:`decide`, for the tracer.

        Policies with a prediction model (SPAWN) return the monitored
        inputs and both time estimates (when :meth:`set_audit` enabled
        retention); threshold-style policies have no model, so the default
        is ``None`` and the observability layer records only the verdict.
        """
        return None

    def describe(self) -> str:
        return self.name


class AlwaysLaunchPolicy(LaunchPolicy):
    """Launch every child request — the most aggressive DP behaviour."""

    name = "always-launch"

    def decide(self, request: LaunchRequest) -> DecisionKind:
        return DecisionKind.LAUNCH


class NeverLaunchPolicy(LaunchPolicy):
    """Decline everything: the DP source runs like its flat variant."""

    name = "never-launch"

    def decide(self, request: LaunchRequest) -> DecisionKind:
        return DecisionKind.SERIAL


class StaticThresholdPolicy(LaunchPolicy):
    """Launch iff the thread's local workload exceeds a fixed THRESHOLD.

    This is exactly the programmer-visible knob of Section II-B; sweeping it
    produces the x-axis of Fig. 5 and its best point is Offline-Search.
    """

    def __init__(self, threshold: int):
        if threshold < 0:
            raise ConfigError("threshold must be non-negative")
        self.threshold = threshold
        self.name = f"threshold-{threshold}"

    def decide(self, request: LaunchRequest) -> DecisionKind:
        if request.items > self.threshold:
            return DecisionKind.LAUNCH
        return DecisionKind.SERIAL


class SpawnPolicy(LaunchPolicy):
    """The paper's contribution: Algorithm 1 over live CCQS metrics.

    The Child CTA Queuing System (CCQS, Section IV-A) abstracts the GMU as
    a FCFS queue of child CTAs and the SMXs as a server of throughput
    ``n_con / t_cta``.  At every device-side launch call SPAWN estimates

    * ``t_child  = overhead + (n + x) * t_cta / n_con``   (Equation 1)
    * ``t_parent = workload * t_warp``                    (Equation 2)

    from the engine's :class:`MetricsMonitor` and launches the child only
    if ``t_child <= t_parent`` and the CCQS holds ``n + x`` CTAs within
    ``GPUConfig.max_pending_child_ctas``; otherwise the parent thread
    performs the workload serially.  ``overhead`` is the measured
    single-launch latency ``A*1 + b``; ``n_con`` is floored at 1.  Before
    any child CTA has completed (``t_cta == 0``) SPAWN always launches:
    the bootstrap path of Algorithm 1, lines 2-3, and the root cause of
    the paper's SSSP-graph500 pathology (all launches happen before the
    first metric update arrives).  The engine, not the policy, admits a
    launched child's CTAs to the monitor (Algorithm 1, line 8).
    """

    name = "spawn"

    def __init__(self) -> None:
        self.metrics: Optional[MetricsMonitor] = None
        self.launch_overhead_cycles = 0.0
        self.ccqs_bound = 0
        self._audit = False
        self._last: Optional[Dict[str, object]] = None

    def bind(self, metrics: MetricsMonitor, config: GPUConfig) -> None:
        self.metrics = metrics
        self.launch_overhead_cycles = float(config.launch.latency(1))
        self.ccqs_bound = config.max_pending_child_ctas
        self._last = None

    def set_audit(self, enabled: bool) -> None:
        self._audit = enabled

    def decide(self, request: LaunchRequest) -> DecisionKind:
        metrics = self.metrics
        if metrics is None:
            raise ConfigError("SpawnPolicy used before bind()")
        metrics.advance(request.time)
        t_cta = metrics.tcta
        if t_cta == 0:
            # No child CTA has finished yet, so there is no throughput
            # estimate: Algorithm 1 launches unconditionally.
            if self._audit:
                self._record(metrics, 0.0, 0.0, True)
            return DecisionKind.LAUNCH
        n_x = metrics.n + request.num_ctas
        t_child = self.launch_overhead_cycles + n_x / (max(metrics.ncon, 1) / t_cta)
        t_parent = request.items * metrics.twarp
        if self._audit:
            self._record(metrics, t_child, t_parent, False)
        if t_child <= t_parent and n_x <= self.ccqs_bound:
            return DecisionKind.LAUNCH
        return DecisionKind.SERIAL

    def _record(
        self, metrics: MetricsMonitor, t_child: float, t_parent: float, bootstrap: bool
    ) -> None:
        self._last = {
            "n": metrics.n,
            "n_con": metrics.ncon,
            "t_cta": metrics.tcta,
            "t_warp": metrics.twarp,
            "t_child": t_child,
            "t_parent": t_parent,
            "bootstrap": bootstrap,
        }

    def decision_audit(self) -> Optional[Dict[str, object]]:
        return self._last


class FreeLaunchPolicy(LaunchPolicy):
    """Free Launch (Chen & Shen, MICRO'15): child launches become thread reuse.

    The compiler transformation replaces every child kernel launch with code
    that distributes the child's work across the already-running parent
    threads: no launch overhead, no new CTAs, but the work competes for the
    parent kernel's own occupancy.  Cited by the paper as the prior
    software-only answer to launch overhead.
    """

    def __init__(self, threshold: int = 0):
        if threshold < 0:
            raise ConfigError("threshold must be non-negative")
        self.threshold = threshold
        self.name = f"free-launch-{threshold}"

    def decide(self, request: LaunchRequest) -> DecisionKind:
        if request.items > self.threshold:
            return DecisionKind.REUSE
        return DecisionKind.SERIAL


#: Merge scopes a merging policy may declare (narrowest to widest).
MERGE_SCOPES = ("warp", "block", "cta", "grid")


class ConsolidatePolicy(LaunchPolicy):
    """Workload consolidation: buffer tiny launches into coarser kernels.

    Requests above the application THRESHOLD are not launched one by one;
    the engine accumulates them per parent CTA and submits one merged
    kernel once ``batch_ctas`` child CTAs have been gathered (or when the
    parent CTA finishes computing).  One launch overhead is paid per
    *merged* kernel instead of per request — the trade is a later start
    for the first buffered children.
    """

    #: The engine reads this to pick its buffering/flush granularity.
    merge_scope = "cta"

    def __init__(self, threshold: int, batch_ctas: int = 8):
        if threshold < 0:
            raise ConfigError("threshold must be non-negative")
        if batch_ctas < 1:
            raise ConfigError("batch_ctas must be positive")
        self.threshold = threshold
        self.batch_ctas = batch_ctas
        self.name = f"consolidate-{threshold}-b{batch_ctas}"

    def decide(self, request: LaunchRequest) -> DecisionKind:
        if request.items > self.threshold:
            return DecisionKind.CONSOLIDATE
        return DecisionKind.SERIAL


class AggregatePolicy(LaunchPolicy):
    """Launch aggregation at warp/block/grid granularity (Olabi et al.).

    The DP compiler framework of arXiv:2201.02789 rewrites device-side
    launches so that all requests issued by one warp / thread block / grid
    are aggregated into a single child kernel.  Requests above the
    application THRESHOLD are merged by the engine with every other
    admitted request in the same scope; below it they serialize, exactly
    like ``threshold:<T>``.
    """

    def __init__(self, threshold: int, granularity: str):
        if threshold < 0:
            raise ConfigError("threshold must be non-negative")
        if granularity not in ("warp", "block", "grid"):
            raise ConfigError(
                f"aggregate granularity must be warp, block, or grid, "
                f"got {granularity!r}"
            )
        self.threshold = threshold
        self.granularity = granularity
        self.name = f"aggregate-{granularity}-{threshold}"

    @property
    def merge_scope(self) -> str:
        return self.granularity

    def decide(self, request: LaunchRequest) -> DecisionKind:
        if request.items > self.threshold:
            return DecisionKind.AGGREGATE
        return DecisionKind.SERIAL


class DTBLPolicy(LaunchPolicy):
    """Dynamic Thread Block Launch: coalesce child CTAs, skip kernel launch.

    DTBL requires the coalesced CTAs to match a running kernel's function
    and dimensions; within one application's child kernels that holds, so
    every request above the application THRESHOLD coalesces.
    """

    def __init__(self, threshold: int):
        if threshold < 0:
            raise ConfigError("threshold must be non-negative")
        self.threshold = threshold
        self.name = f"dtbl-{threshold}"

    def decide(self, request: LaunchRequest) -> DecisionKind:
        if request.items > self.threshold:
            return DecisionKind.COALESCE
        return DecisionKind.SERIAL
