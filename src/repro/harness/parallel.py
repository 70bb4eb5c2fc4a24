"""Fault-tolerant parallel experiment fan-out over a process pool.

The simulator is single-threaded pure Python, so the only way to use a
multi-core machine for the evaluation suite is to run *different*
simulations in different processes.  This module adds a plan/execute
split on top of :class:`~repro.harness.runner.Runner`:

1. **Plan.**  Callers declare the full run-set up front as a list of
   :class:`RunConfig` (each paper experiment declares its own ``plan``
   in its module).  ``offline`` entries are expanded into the threshold
   sweep that defines them, so every scheme in ``DP_SCHEMES`` —
   including Offline-Search — can be fanned out.
2. **Execute.**  Unique, uncached configs are shipped to a
   ``ProcessPoolExecutor``; each worker simulates independently and
   returns a JSON payload (:meth:`SimResult.to_dict`).  Workers never
   touch the disk store — the parent merges every payload back into the
   shared memory cache *and* the persistent store as tasks complete,
   keeping writes single-producer per process tree (and checkpointing
   progress: a killed suite resumes from the store, re-simulating only
   the missing configs).  "Single-producer" is per *runner*, not per
   host: every store write goes through one
   :class:`~repro.harness.store.ResultStore`, whose WAL-mode SQLite
   file is safe under several parent processes sharing it.
3. **Resolve.**  Each requested config's result is ``Runner.cached``
   on the now-warm runner, in input order, so ``run_suite`` results are
   bit-identical to running the same configs serially (simulations are
   deterministic and workers use the same GPU config and event budget
   as the parent).  A config's failure is the first quarantined run in
   its expansion (:meth:`SuiteReport.failure_of`).  Nothing
   simulates after this: an experiment renders from the finished runs
   (:class:`repro.experiments.common.PlannedRuns`).

Execution survives the failure modes a long sweep actually hits, governed
by an :class:`ExecutionPolicy`:

* **Per-task timeouts.**  A hung worker does not hang the suite; the task
  times out and is retried.  (The timeout is measured from when the
  parent starts waiting on that task, so a task queued behind a slow one
  can time out early — that only costs a spurious retry, never a wrong
  result.)
* **Bounded retry.**  Failed attempts are re-dispatched up to
  ``max_retries`` times.  A deterministic failure, a
  :class:`~repro.errors.ReproError` the run itself raised (an exhausted
  event budget, an invalid workload), is quarantined on its first
  attempt: a retry would fail the same way.
* **Crash re-dispatch.**  A worker death breaks the whole
  ``ProcessPoolExecutor``; in-flight tasks are re-queued, the pool is
  rebuilt (up to ``max_pool_rebuilds`` times), and execution continues.
* **Graceful degradation.**  When the pool keeps dying, the remaining
  tasks run in-process serially instead of aborting the suite.
* **Failure quarantine.**  A task that exhausts its attempts is recorded
  in the :class:`SuiteReport` and its result slot is ``None``; every
  other run still completes (unless ``fail_fast`` asks to stop early).

Determinism note: retries re-run a *pure deterministic* simulation, so a
retried task's payload is bit-identical to what the first attempt would
have produced; results are merged in *input order*, not completion order,
so neither scheduling jitter nor recovered failures can reorder
anything observable.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    HarnessError,
    ReproError,
    RunFailure,
    TaskTimeout,
    WorkerCrash,
)
from repro.harness import schemes as sch
from repro.harness.runner import RunConfig, Runner
from repro.harness.sweep import sweep_variants
from repro.obs.metrics import METRICS
from repro.obs.tracer import (
    HARNESS_POOL_REBUILD,
    HARNESS_QUARANTINE,
    HARNESS_REQUEUE,
    HARNESS_RETRY,
    HARNESS_SERIAL_FALLBACK,
    HARNESS_TIMEOUT,
    HARNESS_WORKER_CRASH,
    NULL_TRACER,
    Tracer,
)
from repro.sim.engine import SimResult

#: Task outcome statuses.
OK = "ok"
FAILED = "failed"
SKIPPED = "skipped"


def default_jobs() -> int:
    """Default worker count: the machine's cores, at least 1."""
    return max(os.cpu_count() or 1, 1)


@dataclass(frozen=True)
class ExecutionPolicy:
    """How hard to try before giving up on a task (or the pool).

    The defaults retry transient failures but never time tasks out, so a
    policy-less :class:`ParallelRunner` behaves like the historical one on
    healthy machines while surviving worker crashes.
    """

    timeout: Optional[float] = None  # per-task seconds; None = wait forever
    max_retries: int = 2  # re-dispatches after the first failed attempt
    fail_fast: bool = False  # stop the suite on the first quarantined task
    max_pool_rebuilds: int = 2  # broken pools replaced before going serial

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise HarnessError(f"timeout must be positive, got {self.timeout}")
        if self.max_retries < 0:
            raise HarnessError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_pool_rebuilds < 0:
            raise HarnessError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )


@dataclass
class TaskOutcome:
    """Terminal record for one executed (expanded, uncached) work item."""

    config: RunConfig
    status: str  # OK | FAILED | SKIPPED
    attempts: int = 0
    error: Optional[str] = None  # final failure message, if any
    failure: Optional[RunFailure] = None  # typed final failure, if any


@dataclass
class SuiteReport:
    """Everything :meth:`ParallelRunner.run_suite` knows about one suite.

    ``results`` aligns with the *requested* configs (input order); a slot
    is ``None`` when its run was quarantined or skipped.  ``outcomes``
    aligns with the executed work items (the expanded, uncached set).
    """

    configs: List[RunConfig] = field(default_factory=list)
    results: List[Optional[SimResult]] = field(default_factory=list)
    outcomes: List[TaskOutcome] = field(default_factory=list)
    resumed: int = 0  # planned runs answered from cache before dispatch
    dispatched: int = 0  # tasks submitted to the pool, retries included
    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    pool_rebuilds: int = 0
    quarantined: int = 0
    serial_fallback: bool = False

    @property
    def failures(self) -> List[TaskOutcome]:
        return [o for o in self.outcomes if o.status == FAILED]

    @property
    def skipped(self) -> List[TaskOutcome]:
        return [o for o in self.outcomes if o.status == SKIPPED]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.skipped

    def failure_of(self, config: RunConfig) -> RunFailure:
        """Why the requested ``config`` has no result: the failure of the
        first quarantined run in its expansion (:meth:`ParallelRunner.expand`),
        else (skipped by fail-fast) a plain :class:`RunFailure`."""
        keys = {c.key() for c in ParallelRunner.expand([config])}
        for outcome in self.failures:
            if outcome.config.key() in keys and outcome.failure is not None:
                return outcome.failure
        label = f"{config.benchmark}/{config.scheme} (seed {config.seed})"
        return RunFailure(f"{label} did not run", config=config)

    def raise_if_failed(self) -> None:
        """Re-raise the first quarantined task's typed failure, if any."""
        for outcome in self.outcomes:
            if outcome.status == FAILED and outcome.failure is not None:
                raise outcome.failure
        if not self.ok:  # skipped without a recorded failure (fail-fast)
            raise RunFailure("suite aborted before every task ran")


class _TaskState:
    """Mutable per-work-item bookkeeping while a suite executes."""

    __slots__ = ("config", "attempts", "status", "error", "failure")

    def __init__(self, config: RunConfig):
        self.config = config
        self.attempts = 0
        self.status: Optional[str] = None  # None = still pending
        self.error: Optional[str] = None
        self.failure: Optional[RunFailure] = None

    def outcome(self) -> TaskOutcome:
        return TaskOutcome(
            config=self.config,
            status=self.status if self.status is not None else SKIPPED,
            attempts=self.attempts,
            error=self.error,
            failure=self.failure,
        )


def _run_failure(state: _TaskState, exc: Exception) -> RunFailure:
    """The typed failure for an attempt that raised ``exc``."""
    config = state.config
    failure = RunFailure(
        f"{config.benchmark}/{config.scheme} failed: {exc}",
        config=config,
        attempts=state.attempts,
    )
    failure.__cause__ = exc
    return failure


def _simulate_payload(task: Tuple) -> Dict:
    """Worker entry point: simulate one config, return a JSON payload.

    Module-level so it pickles under every start method, and looked up at
    submit time, so a wrapper installed before the pool starts reaches
    forked workers.  The worker uses a fresh memory-only runner —
    persistence is the parent's job.
    """
    run_config, gpu_config, max_events = task
    runner = Runner(gpu_config, max_events=max_events)
    return runner.run(run_config).to_dict()


class ParallelRunner:
    """Fans a declared run-set out across worker processes, surviving them.

    Wraps (and shares caches with) a :class:`Runner`; after
    ``run_suite`` the wrapped runner answers every planned config that
    finished from cache.  ``policy`` tunes timeouts/retries/quarantine;
    ``tracer`` receives ``harness.*`` events for every recovery action.
    """

    def __init__(
        self,
        runner: Optional[Runner] = None,
        *,
        jobs: Optional[int] = None,
        policy: Optional[ExecutionPolicy] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.runner = runner if runner is not None else Runner()
        self.jobs = jobs if jobs is not None else default_jobs()
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    @staticmethod
    def expand(configs: Sequence[RunConfig]) -> List[RunConfig]:
        """Concrete, deduplicated work-set for ``configs`` (input order).

        ``offline`` is no single simulation — it is *defined* as the best
        static threshold found by sweeping — so an offline entry expands
        into its benchmark's flat run plus every ``threshold:<T>`` in the
        sweep list (:func:`repro.harness.sweep.sweep_variants`).
        """
        expanded: List[RunConfig] = []
        seen: set = set()

        def add(config: RunConfig) -> None:
            key = config.key()
            if key not in seen:
                seen.add(key)
                expanded.append(config)

        for config in configs:
            spec = sch.SchemeSpec.parse(config.scheme)
            if spec.name == sch.OFFLINE:
                for concrete in sweep_variants(config):
                    add(concrete)
            else:
                add(config)
        return expanded

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_suite(
        self, configs: Sequence[RunConfig], *, jobs: Optional[int] = None
    ) -> SuiteReport:
        """Run every config, quarantining failures, and report the outcome.

        Already-cached runs (memory or the persistent store) are not
        re-dispatched — with a store attached this is what makes a
        partially-completed suite resumable after a crash or kill.
        """
        configs = list(configs)
        if not configs:
            return SuiteReport()
        jobs = jobs if jobs is not None else self.jobs
        if jobs < 1:
            raise HarnessError(f"jobs must be >= 1, got {jobs}")
        expanded = self.expand(configs)
        work = [c for c in expanded if self.runner.cached(c) is None]
        resumed = len(expanded) - len(work)
        report = SuiteReport(configs=configs, resumed=resumed)
        if work:
            states = [_TaskState(config) for config in work]
            self._execute(states, jobs, report)
            report.outcomes = [state.outcome() for state in states]
        report.results = [self.runner.cached(config) for config in configs]
        return report

    def _execute(
        self, states: List[_TaskState], jobs: int, report: SuiteReport
    ) -> None:
        pending: Deque[_TaskState] = deque(states)
        if jobs == 1 or len(states) == 1:
            self._execute_serial(pending, report)
        else:
            self._execute_pool(pending, jobs, report)

    # -- serial (in-process) path ---------------------------------------
    def _execute_serial(
        self, pending: Deque[_TaskState], report: SuiteReport
    ) -> None:
        """Run tasks through the shared runner, with retry/quarantine.

        Also the graceful-degradation target when the pool keeps dying.
        Per-task timeouts cannot be enforced in-process and are ignored
        here; every other policy knob behaves identically.
        """
        while pending:
            state = pending.popleft()
            if state.status is not None:
                continue
            if self._fail_fast_triggered(report):
                self._skip(state, pending, report)
                continue
            state.attempts += 1
            started = time.perf_counter()
            try:
                self.runner.run(state.config)
            except Exception as exc:  # quarantine, never abort the suite
                self._after_failure(
                    state, _run_failure(state, exc), pending, report
                )
            else:
                state.status = OK
                METRICS.histogram("harness.task_seconds", mode="serial").observe(
                    max(time.perf_counter() - started, 0.0)
                )

    # -- pooled path ----------------------------------------------------
    def _execute_pool(
        self, pending: Deque[_TaskState], jobs: int, report: SuiteReport
    ) -> None:
        policy = self.policy
        workers = min(jobs, len(pending))
        rebuilds = 0
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            while pending:
                inflight, submit_broken = self._submit_round(pool, pending)
                report.dispatched += len(inflight)
                broken = submit_broken
                for state, future, dispatched in inflight:
                    if broken or state.status is not None or state in pending:
                        continue
                    try:
                        payload = future.result(timeout=policy.timeout)
                        result = SimResult.from_dict(payload)
                    except BrokenExecutor:
                        broken = True
                    except FuturesTimeout:
                        future.cancel()
                        failure = TaskTimeout(
                            f"{state.config.benchmark}/{state.config.scheme} "
                            f"exceeded the {policy.timeout:g}s task timeout",
                            config=state.config,
                            attempts=state.attempts,
                        )
                        report.timeouts += 1
                        self._emit(
                            HARNESS_TIMEOUT,
                            benchmark=state.config.benchmark,
                            scheme=state.config.scheme,
                            timeout=policy.timeout,
                        )
                        self._after_failure(state, failure, pending, report)
                    except Exception as exc:  # task raised / torn payload
                        self._after_failure(
                            state, _run_failure(state, exc), pending, report
                        )
                    else:
                        self.runner.cache_result(state.config, result)
                        state.status = OK
                        # Dispatch-to-result round trip (queue wait behind
                        # slower tasks included), the pool-side analog of
                        # the serial per-run timer.
                        METRICS.histogram(
                            "harness.task_seconds", mode="pool"
                        ).observe(max(time.perf_counter() - dispatched, 0.0))
                if broken:
                    rebuilds += 1
                    report.worker_crashes += 1
                    self._emit(HARNESS_WORKER_CRASH, inflight=len(inflight))
                    self._requeue_lost(inflight, pending, report)
                    pool.shutdown(wait=False, cancel_futures=True)
                    if rebuilds > policy.max_pool_rebuilds:
                        report.serial_fallback = True
                        self._emit(HARNESS_SERIAL_FALLBACK, remaining=len(pending))
                        self._execute_serial(pending, report)
                        return
                    report.pool_rebuilds += 1
                    self._emit(HARNESS_POOL_REBUILD, rebuilds=rebuilds)
                    pool = ProcessPoolExecutor(max_workers=workers)
                if self._fail_fast_triggered(report):
                    while pending:
                        self._skip(pending.popleft(), pending, report)
                    return
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _submit_round(self, pool, pending: Deque[_TaskState]):
        """Dispatch everything currently pending; returns (inflight, broken).

        ``inflight`` entries are ``(state, future, dispatched_at)`` — the
        dispatch stamp feeds the ``harness.task_seconds`` histogram.
        """
        inflight = []
        while pending:
            state = pending.popleft()
            if state.status is not None:
                continue
            state.attempts += 1
            task = (state.config, self.runner.config, self.runner.max_events)
            try:
                future = pool.submit(_simulate_payload, task)
            except (BrokenExecutor, RuntimeError):
                # The pool died between rounds; undo this dispatch and let
                # the crash path requeue everything.
                state.attempts -= 1
                pending.appendleft(state)
                return inflight, True
            inflight.append((state, future, time.perf_counter()))
        return inflight, False

    def _requeue_lost(self, inflight, pending: Deque[_TaskState], report) -> None:
        """Every in-flight task without a terminal status died with the pool."""
        for state, _future, _dispatched in inflight:
            if state.status is not None or state in pending:
                continue
            failure = WorkerCrash(
                f"{state.config.benchmark}/{state.config.scheme} was lost "
                "to a worker crash",
                config=state.config,
                attempts=state.attempts,
            )
            requeued = self._after_failure(state, failure, pending, report)
            if requeued:
                self._emit(
                    HARNESS_REQUEUE,
                    benchmark=state.config.benchmark,
                    scheme=state.config.scheme,
                )

    # -- shared failure bookkeeping -------------------------------------
    def _after_failure(
        self,
        state: _TaskState,
        failure: RunFailure,
        pending: Deque[_TaskState],
        report: SuiteReport,
    ) -> bool:
        """Requeue ``state`` for another attempt or quarantine it.

        Returns True when the task got another attempt.  A failure caused
        by a :class:`ReproError` other than a :class:`RunFailure` (the
        run's own ``SimulationError``, ``WorkloadError``, ...) is
        deterministic, so it is quarantined on this attempt.  Worker
        crashes, timeouts, torn payloads and any other exception get
        ``max_retries`` more attempts.
        """
        cause = failure.__cause__
        final = isinstance(cause, ReproError) and not isinstance(cause, RunFailure)
        if not final and state.attempts <= self.policy.max_retries:
            report.retries += 1
            self._emit(
                HARNESS_RETRY,
                benchmark=state.config.benchmark,
                scheme=state.config.scheme,
                attempt=state.attempts + 1,
            )
            pending.append(state)
            return True
        state.status = FAILED
        state.error = str(failure)
        state.failure = failure
        report.quarantined += 1
        self._emit(
            HARNESS_QUARANTINE,
            benchmark=state.config.benchmark,
            scheme=state.config.scheme,
            attempts=state.attempts,
            error=str(failure),
        )
        return False

    def _skip(self, state, pending, report) -> None:
        if state.status is None:
            state.status = SKIPPED
            state.error = "skipped after an earlier failure (fail-fast)"

    def _fail_fast_triggered(self, report: SuiteReport) -> bool:
        return self.policy.fail_fast and report.quarantined > 0

    def _emit(self, kind: str, **args) -> None:
        if self.tracer.enabled:
            self.tracer.emit(kind, ts=time.perf_counter(), **args)
