"""Batched async simulation service with SPAWN-style admission control.

The serving layer on top of the harness: an asyncio, in-process service
that accepts RunConfig-shaped requests, coalesces duplicates, answers
cache hits without touching the pool, prices everything else through an
online cost model (the paper's estimate-before-you-launch idea applied
to the service itself), and batches admitted jobs into
:class:`~repro.harness.parallel.ParallelRunner` dispatches.

* :mod:`repro.service.jobs` — request/job model and the stats ledger;
* :mod:`repro.service.admission` — windowed-EWMA cost model and the
  Algorithm 1-analog admission controller (admit / inline / shed);
* :mod:`repro.service.scheduler` — FIFO batch scheduler over the pool;
* :mod:`repro.service.service` — the :class:`SimulationService` façade;
* :mod:`repro.service.traffic` — deterministic seeded traffic and the
  scripted request files ``repro serve`` consumes;
* :mod:`repro.service.ledger` — request-ledger record/replay with
  latency/shed-rate budget gating (``repro serve --record`` /
  ``repro replay``);
* :mod:`repro.service.autotune` — online successive halving over the
  Offline-Search sweep grids (``repro serve --autotune``), warm-started
  from the result store and fed by live completions.
"""

from repro.errors import (
    ReplayBudgetExceeded,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.service.ledger import (
    LedgerEntry,
    ReplayBudgets,
    ReplayReport,
    RequestLedger,
    drive_service,
    replay_ledger,
)
from repro.service.admission import (
    ADMIT,
    INLINE,
    SHED,
    AdmissionController,
    AdmissionDecision,
    CostModel,
    WindowedEWMA,
)
from repro.service.autotune import (
    AutoTuner,
    SuccessiveHalvingTuner,
    arm_grid,
    family_of,
)
from repro.service.jobs import RequestLike, ServiceJob, ServiceStats
from repro.service.scheduler import BatchScheduler
from repro.service.service import ServiceConfig, SimulationService
from repro.service.traffic import (
    DEFAULT_MATRIX,
    TrafficRequest,
    dump_requests,
    generate_traffic,
    load_requests,
)

__all__ = [
    "ADMIT",
    "INLINE",
    "SHED",
    "AdmissionController",
    "AdmissionDecision",
    "AutoTuner",
    "BatchScheduler",
    "CostModel",
    "DEFAULT_MATRIX",
    "LedgerEntry",
    "ReplayBudgetExceeded",
    "ReplayBudgets",
    "ReplayReport",
    "RequestLedger",
    "RequestLike",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceJob",
    "ServiceOverloaded",
    "ServiceStats",
    "SimulationService",
    "SuccessiveHalvingTuner",
    "TrafficRequest",
    "WindowedEWMA",
    "arm_grid",
    "drive_service",
    "dump_requests",
    "family_of",
    "generate_traffic",
    "load_requests",
    "replay_ledger",
]
