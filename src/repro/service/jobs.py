"""Job model for the batched simulation service.

A *request* is anything :func:`repro.api.run_suite` would accept as one
suite entry — a full :class:`~repro.harness.runner.RunConfig` or a plain
``(benchmark, scheme)`` pair.  The service turns each request into (or
attaches it to) a :class:`ServiceJob`, the awaitable handle a client
holds while the simulation is pending.

Jobs move through a small, strictly forward state machine::

    QUEUED ──> BATCHED ──> DONE | FAILED

    CACHED              (resolved at submit time, never queued)

Duplicate submissions never create a second job: a request whose
:meth:`RunConfig.key` matches an in-flight job *coalesces* onto it
(``waiters`` counts how many submissions share the handle), so the pool
simulates each unique config at most once no matter how hot the traffic
is.  Requests shed by the queue cap (``ServiceConfig.max_queue``) raise
:class:`~repro.errors.ServiceOverloaded` at submit time and never become
jobs at all.

:class:`ServiceStats` is the service's waiter-weighted ledger.  Its
defining invariant — checked by the load tests — is that no submission
is ever lost::

    submitted == completed + failed + shed + in_flight
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.errors import HarnessError
from repro.harness.runner import RunConfig
from repro.sim.engine import SimResult

#: Job lifecycle states.
QUEUED = "queued"  # admitted, waiting for a batch slot
BATCHED = "batched"  # currently part of a pool dispatch
CACHED = "cached"  # answered from the result cache at submit time
DONE = "done"
FAILED = "failed"  # quarantined by the execution layer

#: What ``submit`` accepts: a full config or a (benchmark, scheme) pair.
RequestLike = Union[RunConfig, Tuple[str, str]]


def as_run_config(entry: RequestLike, seed: int = 1) -> RunConfig:
    """Normalize one request entry into a :class:`RunConfig`."""
    if isinstance(entry, RunConfig):
        return entry
    try:
        benchmark, scheme = entry
    except (TypeError, ValueError):
        raise HarnessError(
            f"requests must be RunConfig or (benchmark, scheme), got {entry!r}"
        ) from None
    return RunConfig(benchmark=benchmark, scheme=scheme, seed=seed)


class ServiceJob:
    """Awaitable handle for one unique in-flight simulation.

    ``await job`` (or :meth:`result`) yields the :class:`SimResult`, or
    raises the typed :class:`~repro.errors.RunFailure` the execution
    layer quarantined the run with.  ``waiters`` counts the submissions
    coalesced onto this handle; the service weights its completion
    counters by it so every submission is accounted for exactly once.
    """

    __slots__ = (
        "config", "state", "waiters", "_future",
        "submitted_at", "dispatched_at", "finished_at",
    )

    def __init__(self, config: RunConfig):
        self.config = config
        self.state = QUEUED
        self.waiters = 1
        # Wall-clock (perf_counter) span stamps for the latency metrics:
        # submit -> dispatch (queue wait) -> finish (end-to-end).  Stages
        # a job never reaches stay None (a cached job never dispatches).
        self.submitted_at: Optional[float] = None
        self.dispatched_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        # Jobs are only ever created by the service inside its event loop;
        # get_running_loop keeps that contract honest (and avoids the
        # deprecated implicit-loop creation of get_event_loop).
        self._future: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )

    @property
    def key(self) -> Tuple:
        return self.config.key()

    @property
    def done(self) -> bool:
        return self._future.done()

    def __await__(self):
        return self._future.__await__()

    async def result(self) -> SimResult:
        return await self._future

    # -- resolution (service-internal) ----------------------------------
    def resolve(self, result: SimResult, state: str = DONE) -> None:
        self.state = state
        if not self._future.done():
            self._future.set_result(result)

    def fail(self, error: BaseException) -> None:
        self.state = FAILED
        if not self._future.done():
            self._future.set_exception(error)
            # The service always observes failures through its own stats;
            # a client that only polls `done` must not trigger the event
            # loop's "exception was never retrieved" warning.
            self._future.exception()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServiceJob({self.config.benchmark}/{self.config.scheme}, "
            f"state={self.state}, waiters={self.waiters})"
        )


@dataclass
class ServiceStats:
    """Waiter-weighted request ledger plus execution-layer aggregates."""

    # -- per-submission accounting (each submission counted exactly once)
    submitted: int = 0
    completed: int = 0  # resolved with a result (any path)
    failed: int = 0  # resolved with a quarantined failure
    shed: int = 0  # rejected with ServiceOverloaded at submit time
    in_flight: int = 0  # submissions whose handle is not yet resolved

    # -- how submissions were routed
    coalesced: int = 0  # duplicates attached to an in-flight job
    cache_hits: int = 0  # answered from the runner cache, no job created
    admitted: int = 0  # unique jobs handed to the batching scheduler

    # -- batching / pool aggregates (from SuiteReports)
    batches: int = 0
    pool_runs: int = 0  # work items the pool actually executed
    pool_resumed: int = 0  # batch slots answered from cache by the pool
    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    quarantined: int = 0  # unique jobs quarantined by the execution layer
    max_batch_size: int = 0
    peak_queue_depth: int = 0

    #: Latency digest (end-to-end, queue-wait, per-route percentiles)
    #: sourced from the service's :mod:`repro.obs.metrics` histograms,
    #: filled in by :meth:`SimulationService.stats`.
    latency: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def lost(self) -> int:
        """Submissions unaccounted for — the soak tests pin this at 0."""
        return self.submitted - self.completed - self.failed - self.shed \
            - self.in_flight

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-ready form (``repro serve --stats-json``)."""
        out: Dict[str, object] = {
            name: getattr(self, name)
            for name in (
                "submitted", "completed", "failed", "shed", "in_flight",
                "coalesced", "cache_hits", "admitted",
                "batches", "pool_runs", "pool_resumed", "retries",
                "timeouts", "worker_crashes", "quarantined",
                "max_batch_size", "peak_queue_depth",
            )
        }
        out["lost"] = self.lost
        out["latency"] = self.latency
        return out
