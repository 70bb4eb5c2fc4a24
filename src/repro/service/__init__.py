"""Batched async simulation service with a queue cap.

The serving layer on top of the harness: an asyncio, in-process service
that accepts RunConfig-shaped requests, coalesces duplicates, answers
cache hits without touching the pool, sheds a miss only when
``ServiceConfig.max_queue`` jobs are already admitted and unfinished, and
batches admitted jobs into
:class:`~repro.harness.parallel.ParallelRunner` dispatches.

* :mod:`repro.service.jobs` — request/job model and the stats ledger;
* :mod:`repro.service.scheduler` — FIFO batch scheduler over the pool;
* :mod:`repro.service.service` — the :class:`SimulationService` façade;
* :mod:`repro.service.traffic` — deterministic seeded traffic, the
  scripted request files ``repro serve`` consumes, and
  ``drive_service``, which submits them on their arrival schedule.
"""

from repro.errors import ServiceClosed, ServiceOverloaded
from repro.service.jobs import RequestLike, ServiceJob, ServiceStats
from repro.service.scheduler import BatchScheduler
from repro.service.service import ServiceConfig, SimulationService
from repro.service.traffic import (
    DEFAULT_MATRIX,
    TrafficRequest,
    drive_service,
    dump_requests,
    generate_traffic,
    load_requests,
)

__all__ = [
    "BatchScheduler",
    "DEFAULT_MATRIX",
    "RequestLike",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceJob",
    "ServiceOverloaded",
    "ServiceStats",
    "SimulationService",
    "TrafficRequest",
    "drive_service",
    "dump_requests",
    "generate_traffic",
    "load_requests",
]
