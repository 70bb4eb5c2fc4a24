"""The asyncio simulation service façade.

``SimulationService`` is the long-running, in-process entry point the
rest of the stack has been building toward: callers ``submit``
RunConfig-shaped requests and await the handles; the service decides —
per request, before any work happens — whether to coalesce onto an
in-flight duplicate, answer from cache, batch onto the worker pool, or
shed.  The routing, in order::

    submit(request)
      1. coalesce     duplicate of an in-flight job?  join its handle.
      2. cache        Runner memory/disk hit?  resolve immediately.
      3. cap          max_queue jobs admitted and unfinished?  raise
                      ServiceOverloaded (queue depth and cap attached).
      4. batching     enqueue; the scheduler drains admitted jobs into
                      ParallelRunner.run_suite dispatches (worker pool)

Duplicates and cache hits never shed: the cap counts admitted jobs, and
neither route admits one.  The cap holds for every miss, including the
first request for a pair.

Every path funnels through the same deterministic
:class:`~repro.harness.runner.Runner`, so a result obtained through the
service is bit-identical to a direct ``Runner.run`` of the same config —
the load suite (``tests/test_service_load.py``) pins that down, and the
chaos suite proves the execution layer's retry/quarantine guarantees
hold behind the service too (a quarantined job fails its own handle;
nothing else is disturbed).

Observability: ``service.*`` tracer events (wall-clock stamped, like the
``harness.*`` kinds) for every routing decision, and a
:class:`ServiceStats` ledger whose headline invariant is *zero lost
submissions*.  The ledger is the one home of every per-route count.
Queue depth has one meaning everywhere: jobs admitted and unfinished,
the count ``max_queue`` caps.  :attr:`SimulationService.queue_depth`
reads it live, ``ServiceStats.peak_queue_depth`` keeps its peak, and
``ServiceOverloaded`` and the ``service.shed`` event carry it at the
moment of shedding.

Latency telemetry (:mod:`repro.obs.metrics`): every job is span-stamped
submit -> dispatch -> finish, feeding per-stage histograms
(``service.stage_seconds`` with ``stage`` in ``admit | queue | dispatch
| total``), per-route end-to-end histograms
(``service.route_latency_seconds`` with ``route`` in ``cached |
batch``) and a per-batch ``service.batch_seconds``.
:meth:`SimulationService.stats` digests the stage and route histograms
into ``ServiceStats.latency`` (p50/p95/p99 end-to-end and queue-wait),
which ``repro serve --stats-json`` serializes.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Union

from repro.errors import (
    HarnessError,
    RunFailure,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.harness import schemes as sch
from repro.harness.parallel import (
    FAILED,
    ExecutionPolicy,
    ParallelRunner,
    SuiteReport,
    TaskOutcome,
)
from repro.harness.runner import RunConfig, Runner
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import (
    NULL_TRACER,
    SERVICE_ADMIT,
    SERVICE_BATCH,
    SERVICE_CACHE_HIT,
    SERVICE_COALESCE,
    SERVICE_COMPLETE,
    SERVICE_QUARANTINE,
    SERVICE_SHED,
    SERVICE_SUBMIT,
    Tracer,
)
from repro.service.jobs import (
    RequestLike,
    ServiceJob,
    ServiceStats,
    as_run_config,
)
from repro.service.scheduler import BatchScheduler
from repro.sim.engine import SimResult
from repro.workloads.base import checked_seed, get_benchmark


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`SimulationService` instance.

    ``max_queue`` is the service's one overload rule: a request that
    neither coalesces nor hits the cache is shed with
    :class:`~repro.errors.ServiceOverloaded` while ``max_queue`` jobs are
    admitted and unfinished.  ``None`` (the default) leaves the queue
    unbounded.
    """

    jobs: int = 2  # worker processes per batch dispatch
    max_batch: int = 8  # jobs per run_suite dispatch
    max_queue: Optional[int] = None  # admitted-but-unfinished job cap

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise HarnessError(f"jobs must be >= 1, got {self.jobs}")
        if self.max_batch < 1:
            raise HarnessError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_queue is not None and self.max_queue < 1:
            raise HarnessError(
                f"max_queue must be >= 1, got {self.max_queue}"
            )


class SimulationService:
    """Batched async simulation service with a queue cap.

    Use as an async context manager (or call :meth:`start`/:meth:`close`
    explicitly)::

        async with SimulationService(config=ServiceConfig(jobs=2)) as svc:
            job = await svc.submit(("BFS-graph500", "spawn"))
            result = await job

    ``runner`` supplies the caches (attach a store for cross-process
    persistence); ``policy`` is passed straight to the underlying
    :class:`~repro.harness.parallel.ParallelRunner`, so the execution
    layer's timeout/retry/quarantine behaviour carries over unchanged.
    """

    def __init__(
        self,
        runner: Optional[Runner] = None,
        *,
        config: Optional[ServiceConfig] = None,
        policy: Optional[ExecutionPolicy] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.runner = runner if runner is not None else Runner()
        self.config = config if config is not None else ServiceConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Latency histograms, for this service's requests only.
        self.metrics = MetricsRegistry()
        self._stage_hist = {
            stage: self.metrics.histogram("service.stage_seconds", stage=stage)
            for stage in ("admit", "queue", "dispatch", "total")
        }
        self._parallel = ParallelRunner(self.runner, policy=policy, tracer=tracer)
        self._scheduler = BatchScheduler(
            self._dispatch, self._on_batch_done,
            max_batch=self.config.max_batch,
        )
        self._inflight: dict = {}  # RunConfig.key() -> ServiceJob
        self._stats = ServiceStats()
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "SimulationService":
        if self._closed:
            raise ServiceClosed("service already closed")
        if not self._started:
            self._scheduler.start()
            self._started = True
        return self

    async def close(self, *, drain: bool = True) -> None:
        """Stop accepting work; by default finish everything queued first."""
        if self._closed:
            return
        self._closed = True
        if self._started:
            stranded = await self._scheduler.stop(drain=drain)
            for job in stranded:
                self._finish_job(
                    job, error=ServiceClosed(
                        f"{job.config.benchmark}/{job.config.scheme} "
                        "abandoned: service closed without draining"
                    )
                )

    async def __aenter__(self) -> "SimulationService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Submission pipeline
    # ------------------------------------------------------------------
    async def submit(self, entry: RequestLike, *, seed: int = 1) -> ServiceJob:
        """Route one request; returns its (possibly shared) job handle.

        Raises :class:`~repro.errors.ServiceOverloaded` when the queue
        cap sheds the request, and :class:`~repro.errors.HarnessError`
        (unknown benchmark or scheme) or
        :class:`~repro.errors.WorkloadError` (negative seed) for requests
        that could never simulate — malformed traffic is rejected at the
        door, not quarantined in a batch.
        """
        if self._closed:
            raise ServiceClosed("service is closed")
        if not self._started:
            await self.start()
        submitted_at = time.perf_counter()
        config = as_run_config(entry, seed)
        # Validate eagerly so one bad request cannot poison a batch.
        get_benchmark(config.benchmark)
        sch.SchemeSpec.parse(config.scheme)
        checked_seed(config.seed)
        self._stats.submitted += 1
        self._emit(
            SERVICE_SUBMIT,
            benchmark=config.benchmark, scheme=config.scheme, seed=config.seed,
        )

        # 1. Coalesce onto an identical in-flight job.
        job = self._inflight.get(config.key())
        if job is not None:
            job.waiters += 1
            self._stats.coalesced += 1
            self._stats.in_flight += 1
            self._emit(
                SERVICE_COALESCE,
                benchmark=config.benchmark, scheme=config.scheme,
                waiters=job.waiters,
            )
            return job

        # 2. Serve from the runner's memory/disk cache, pool untouched.
        cached = self.runner.cached(config)
        if cached is not None:
            self._stats.cache_hits += 1
            self._stats.completed += 1
            self._emit(
                SERVICE_CACHE_HIT,
                benchmark=config.benchmark, scheme=config.scheme,
            )
            job = ServiceJob(config)
            job.submitted_at = submitted_at
            job.resolve(cached)
            self._observe_latency(job, "cached")
            return job

        # 3. The queue cap: every admitted job is in _inflight until it
        #    finishes, so its size is the admitted-but-unfinished count.
        self._stage_hist["admit"].observe(
            max(time.perf_counter() - submitted_at, 0.0)
        )
        depth = len(self._inflight)
        max_queue = self.config.max_queue
        if max_queue is not None and depth >= max_queue:
            self._stats.shed += 1
            self._emit(
                SERVICE_SHED,
                benchmark=config.benchmark, scheme=config.scheme,
                queue_depth=depth, max_queue=max_queue,
            )
            raise ServiceOverloaded(
                f"{config.benchmark}/{config.scheme} shed: {depth} jobs "
                f"admitted and unfinished, at the cap of {max_queue}",
                queue_depth=depth,
                max_queue=max_queue,
            )

        # 4. Admit to the batching scheduler.
        job = ServiceJob(config)
        job.submitted_at = submitted_at
        self._inflight[job.key] = job
        self._scheduler.enqueue(job)
        self._stats.admitted += 1
        self._stats.in_flight += 1
        self._stats.peak_queue_depth = max(
            self._stats.peak_queue_depth, len(self._inflight)
        )
        self._emit(
            SERVICE_ADMIT,
            benchmark=config.benchmark, scheme=config.scheme,
            queue_depth=depth,
        )
        return job

    async def gather(
        self,
        jobs: Iterable[ServiceJob],
        *,
        return_exceptions: bool = False,
    ) -> List[Union[SimResult, BaseException]]:
        """Await many handles (in input order), like ``asyncio.gather``."""
        return await asyncio.gather(
            *(job.result() for job in jobs),
            return_exceptions=return_exceptions,
        )

    # ------------------------------------------------------------------
    # Batch dispatch (scheduler callbacks)
    # ------------------------------------------------------------------
    def _dispatch(self, configs: List[RunConfig]) -> SuiteReport:
        """Blocking pool dispatch; runs on an executor thread.

        Must never raise: an exception here would kill the scheduler loop
        and strand every awaiting handle.  Submit-time validation makes a
        batch-level failure genuinely exceptional; if one happens anyway,
        it is converted into a report that quarantines the batch's whole
        expansion.
        """
        try:
            return self._parallel.run_suite(configs, jobs=self.config.jobs)
        except Exception as exc:
            report = SuiteReport(configs=list(configs))
            report.results = [None] * len(configs)
            for config in ParallelRunner.expand(configs):
                failure = RunFailure(
                    f"{config.benchmark}/{config.scheme}: batch dispatch "
                    f"failed: {exc}",
                    config=config,
                )
                failure.__cause__ = exc
                report.outcomes.append(
                    TaskOutcome(
                        config=config, status=FAILED,
                        error=str(failure), failure=failure,
                    )
                )
                report.quarantined += 1
            return report

    def _on_batch_done(
        self,
        batch: List[ServiceJob],
        report: SuiteReport,
        elapsed: float,
    ) -> None:
        self._stats.batches += 1
        self._stats.pool_runs += len(report.outcomes)
        self._stats.pool_resumed += report.resumed
        self._stats.retries += report.retries
        self._stats.timeouts += report.timeouts
        self._stats.worker_crashes += report.worker_crashes
        self._stats.max_batch_size = max(
            self._stats.max_batch_size, len(batch)
        )
        self.metrics.histogram("service.batch_seconds").observe(max(elapsed, 0.0))
        self._emit(
            SERVICE_BATCH,
            size=len(batch), seconds=elapsed,
            pool_runs=len(report.outcomes), resumed=report.resumed,
        )
        for job, result in zip(batch, report.results):
            error = report.failure_of(job.config) if result is None else None
            self._finish_job(job, result=result, error=error)

    def _finish_job(
        self,
        job: ServiceJob,
        *,
        result: Optional[SimResult] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        self._inflight.pop(job.key, None)
        self._stats.in_flight -= job.waiters
        self._observe_latency(job, "batch")
        if error is not None:
            self._stats.failed += job.waiters
            self._stats.quarantined += 1
            self._emit(
                SERVICE_QUARANTINE,
                benchmark=job.config.benchmark, scheme=job.config.scheme,
                error=str(error),
            )
            job.fail(error)
        else:
            self._stats.completed += job.waiters
            self._emit(
                SERVICE_COMPLETE,
                benchmark=job.config.benchmark, scheme=job.config.scheme,
                waiters=job.waiters,
            )
            job.resolve(result)

    # ------------------------------------------------------------------
    # Latency spans (repro.obs.metrics)
    # ------------------------------------------------------------------
    def _observe_latency(self, job: ServiceJob, route: str) -> None:
        """Close a job's span stamps into the stage/route histograms.

        Called exactly once per unique job, at resolution (any path,
        success or failure — a quarantined request still *answered* in
        that much wall time).  Jobs without a submit stamp (defensive
        only) are skipped rather than recorded as zero.
        """
        now = time.perf_counter()
        job.finished_at = now
        start = job.submitted_at
        if start is None:
            return
        total = max(now - start, 0.0)
        self._stage_hist["total"].observe(total)
        self.metrics.histogram(
            "service.route_latency_seconds", route=route
        ).observe(total)
        if job.dispatched_at is not None:
            self._stage_hist["queue"].observe(
                max(job.dispatched_at - start, 0.0)
            )
            self._stage_hist["dispatch"].observe(
                max(now - job.dispatched_at, 0.0)
            )

    def _latency_digest(self) -> dict:
        """The ``ServiceStats.latency`` section: JSON-ready percentiles."""
        digest = {
            "end_to_end": self._stage_hist["total"].summary(),
            "queue_wait": self._stage_hist["queue"].summary(),
        }
        routes = {}
        for route in ("cached", "batch"):
            hist = self.metrics.histogram(
                "service.route_latency_seconds", route=route
            )
            if hist.count:
                routes[route] = hist.summary()
        digest["routes"] = routes
        return digest

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """A point-in-time copy of the ledger, with the latency digest."""
        return replace(self._stats, latency=self._latency_digest())

    @property
    def queue_depth(self) -> int:
        """Jobs admitted and unfinished: the count ``max_queue`` caps."""
        return len(self._inflight)

    def _emit(self, kind: str, **args) -> None:
        if self.tracer.enabled:
            self.tracer.emit(kind, ts=time.perf_counter(), **args)
