"""The one stable import surface for driving the reproduction.

Everything a caller needs to run simulations lives here::

    from repro.api import simulate, run_suite, RunConfig

    result = simulate("BFS-graph500", "spawn")
    report = run_suite(
        [RunConfig("BFS-graph500", "spawn"), ("MM-small", "flat")],
        jobs=4, timeout=300.0, max_retries=2,
    )

**API stability.**  :func:`simulate`, :func:`run_suite`,
:func:`speedup` and the types their signatures mention follow a
deprecation policy: they are never removed or re-signatured without a
release in which the old spelling still works and emits
``DeprecationWarning``.  Every other exported name may change or go
without one, as may the internal modules (``repro.sim``,
``repro.harness`` internals, ``repro.core``) — import those directly
only when you accept that churn.  One break skipped that release:
:func:`run_suite` lost its retry-delay and fault-plan keywords, and
fault injection now lives in the test suite.

The façade deliberately re-exports the few types its signatures mention
(:class:`RunConfig`, :class:`Runner`, :class:`SimResult`,
:class:`GPUConfig`, :class:`SuiteReport`, :class:`ExecutionPolicy`, ...)
so downstream code can depend on ``repro.api`` alone.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import (
    HarnessError,
    ReproError,
    RunFailure,
    TaskTimeout,
    WorkerCrash,
)
from repro.harness.parallel import (
    ExecutionPolicy,
    ParallelRunner,
    SuiteReport,
    TaskOutcome,
    default_jobs,
)
from repro.harness.replication import ReplicationResult, replicate
from repro.harness.runner import (
    PER_CHILD,
    PER_PARENT_CTA,
    RunConfig,
    Runner,
    geometric_mean,
)
from repro.harness.schemes import DP_SCHEMES, SchemeSpec
from repro.harness.store import (
    ResultStore,
    default_cache_dir,
    open_store,
)
from repro.harness.sweep import SweepResult, offline_search, threshold_sweep
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.tracer import Tracer
from repro.service import (
    ServiceClosed,
    ServiceConfig,
    ServiceJob,
    ServiceOverloaded,
    ServiceStats,
    SimulationService,
    TrafficRequest,
    drive_service,
    generate_traffic,
)
from repro.service.jobs import RequestLike, as_run_config
from repro.sim.config import GPUConfig, kepler_k20m, small_debug_gpu
from repro.sim.engine import SimResult


def _runner_for(
    caller: str,
    runner: Optional[Runner],
    *,
    gpu: Optional[GPUConfig] = None,
    max_events: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> Runner:
    """``runner``, or a new one built from the runner arguments.

    A given runner keeps its own GPU, event budget and store, so any of
    those passed beside it would go unused: that is an error.
    """
    if runner is None:
        kwargs = {}
        if max_events is not None:
            kwargs["max_events"] = max_events
        return Runner(gpu, store=store, **kwargs)
    conflicts = [
        name
        for name, value in (("gpu", gpu), ("max_events", max_events),
                            ("store", store))
        if value is not None
    ]
    if conflicts:
        named = ", ".join(f"{name}=" for name in conflicts)
        raise HarnessError(
            f"{caller}(runner=...) runs on the runner's own configuration, "
            f"so {named} would go unused; pass them to Runner(...), or drop "
            "runner"
        )
    return runner


def simulate(
    benchmark: str,
    scheme: str,
    *,
    gpu: Optional[GPUConfig] = None,
    seed: int = 1,
    cta_threads: Optional[int] = None,
    stream_policy: str = PER_CHILD,
    trace_interval: float = 1000.0,
    max_events: Optional[int] = None,
    runner: Optional[Runner] = None,
    store: Optional[ResultStore] = None,
    tracer: Optional[Tracer] = None,
) -> SimResult:
    """Run (or fetch from cache) one benchmark/scheme combination.

    The end-to-end entry point: builds the Table I benchmark, parses the
    scheme, simulates on ``gpu`` (default: the paper's K20m-like
    configuration) and returns the :class:`SimResult`.  Pass ``runner`` to
    share caches across calls; otherwise ``store`` controls persistence
    for this call's throwaway runner.  ``gpu``, ``max_events`` and
    ``store`` configure that throwaway runner; passing any of them beside
    ``runner`` raises :class:`HarnessError`.
    """
    runner = _runner_for(
        "simulate", runner, gpu=gpu, max_events=max_events, store=store
    )
    config = RunConfig(
        benchmark=benchmark,
        scheme=scheme,
        seed=seed,
        cta_threads=cta_threads,
        stream_policy=stream_policy,
        trace_interval=trace_interval,
    )
    return runner.run(config, tracer=tracer)


def speedup(
    benchmark: str,
    scheme: str,
    *,
    gpu: Optional[GPUConfig] = None,
    seed: int = 1,
    runner: Optional[Runner] = None,
) -> float:
    """Speedup of ``scheme`` over the flat variant (the paper's metric).

    ``gpu`` and ``runner`` exclude each other (:class:`HarnessError`).
    """
    runner = _runner_for("speedup", runner, gpu=gpu)
    return runner.speedup(benchmark, scheme, seed=seed)


def run_suite(
    configs: Sequence[RequestLike],
    *,
    gpu: Optional[GPUConfig] = None,
    seed: int = 1,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    fail_fast: bool = False,
    max_events: Optional[int] = None,
    runner: Optional[Runner] = None,
    store: Optional[ResultStore] = None,
    tracer: Optional[Tracer] = None,
) -> SuiteReport:
    """Run a whole set of configs fault-tolerantly; quarantine failures.

    Entries may be :class:`RunConfig` instances or plain
    ``(benchmark, scheme)`` pairs (run under ``seed``).  The suite
    completes even when individual runs crash, hang past ``timeout``, or
    fail permanently — inspect :attr:`SuiteReport.failures` afterwards, or
    call :meth:`SuiteReport.raise_if_failed`.  A crash or timeout gets up
    to ``max_retries`` more attempts; an error the run itself raises
    (:class:`ReproError`) is final on its first.  Attach a ``store`` to
    checkpoint completed runs: re-invoking after a mid-suite kill
    re-simulates only the missing configs.  ``gpu``, ``max_events`` and
    ``store`` build the suite's runner; passing any of them beside
    ``runner`` raises :class:`HarnessError`.
    """
    runner = _runner_for(
        "run_suite", runner, gpu=gpu, max_events=max_events, store=store
    )
    policy = ExecutionPolicy(
        timeout=timeout, max_retries=max_retries, fail_fast=fail_fast
    )
    parallel = ParallelRunner(runner, policy=policy, tracer=tracer)
    return parallel.run_suite(
        [as_run_config(entry, seed) for entry in configs], jobs=jobs
    )


def serve(
    *,
    jobs: int = 2,
    max_batch: int = 8,
    max_queue: Optional[int] = None,
    store_url: Optional[str] = None,
    runner: Optional[Runner] = None,
    store: Optional[ResultStore] = None,
    policy: Optional[ExecutionPolicy] = None,
    tracer: Optional[Tracer] = None,
) -> SimulationService:
    """Build a :class:`SimulationService` (not yet started).

    The async serving entry point::

        async with serve(jobs=2, max_queue=64) as svc:
            job = await submit(svc, ("BFS-graph500", "spawn"))
            [result] = await gather(svc, [job])

    With ``max_queue`` set, a request that neither coalesces nor hits
    the cache is rejected with :class:`ServiceOverloaded` while that
    many jobs are admitted and unfinished; the error carries
    ``queue_depth`` and ``max_queue``.

    ``store_url`` (``sqlite://PATH`` or a database path) is shorthand
    for ``store=open_store(store_url)``.  It cannot be combined with
    ``runner`` or ``store``: either would leave the URL unused.  Nor can
    ``store`` be combined with ``runner``, which keeps its own store.
    """
    if store_url is not None and (runner is not None or store is not None):
        raise HarnessError(
            "serve(store_url=...) opens its own store; pass store_url, "
            "or runner/store, not both"
        )
    config = ServiceConfig(jobs=jobs, max_batch=max_batch, max_queue=max_queue)
    if store_url is not None:
        store = open_store(store_url)
    runner = _runner_for("serve", runner, store=store)
    return SimulationService(runner, config=config, policy=policy, tracer=tracer)


async def submit(
    service: SimulationService, entry: RequestLike, *, seed: int = 1
) -> ServiceJob:
    """Submit one request to a running service; returns its job handle."""
    return await service.submit(entry, seed=seed)


async def gather(
    service: SimulationService,
    jobs,
    *,
    return_exceptions: bool = False,
):
    """Await many job handles (input order), like ``asyncio.gather``."""
    return await service.gather(jobs, return_exceptions=return_exceptions)


__all__ = [
    # entry points
    "simulate",
    "speedup",
    "run_suite",
    "threshold_sweep",
    "offline_search",
    "replicate",
    "geometric_mean",
    "default_jobs",
    "default_cache_dir",
    # serving layer
    "serve",
    "submit",
    "gather",
    "SimulationService",
    "ServiceConfig",
    "ServiceJob",
    "ServiceStats",
    "TrafficRequest",
    "generate_traffic",
    "drive_service",
    # telemetry
    "METRICS",
    "MetricsRegistry",
    # core types
    "RunConfig",
    "Runner",
    "ParallelRunner",
    "SimResult",
    "GPUConfig",
    "SchemeSpec",
    "SuiteReport",
    "TaskOutcome",
    "ExecutionPolicy",
    "ResultStore",
    "open_store",
    "SweepResult",
    "ReplicationResult",
    "Tracer",
    # constants / presets
    "DP_SCHEMES",
    "PER_CHILD",
    "PER_PARENT_CTA",
    "kepler_k20m",
    "small_debug_gpu",
    # errors
    "ReproError",
    "HarnessError",
    "RunFailure",
    "WorkerCrash",
    "TaskTimeout",
    "ServiceOverloaded",
    "ServiceClosed",
]
