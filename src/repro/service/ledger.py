"""Request-ledger record/replay: load testing the service from traces.

The SPAWN paper's evaluation rests on replaying the *same* workload under
different controller configurations; the serving layer gets the same
discipline here.  ``repro serve --record`` captures every request the
service answered — arrival offset, routing outcome, and the simulation
result's makespan — into a **ledger**: a JSON-lines file that is both an
audit log and an executable load test.  ``repro replay`` re-drives the
recorded arrival process against a fresh service (optionally
time-compressed with ``--speed``, optionally under ``REPRO_FAULTS``
chaos) and gates the run on latency/shed-rate budgets.

Determinism contract:

* The *simulation results* are bit-identical across replays at any
  speed: every path funnels through the deterministic
  :class:`~repro.harness.runner.Runner`, so a recorded makespan must
  reappear exactly.  :attr:`ReplayReport.results_identical` pins this.
* The *measured latencies* are wall-clock and explicitly excluded from
  the determinism fingerprint — they are what the budgets judge, not
  what replay reproduces.
* Routing outcomes (``shed`` in particular) depend on load and timing;
  with shedding disabled the full outcome fingerprint matches too
  (:attr:`ReplayReport.outcomes_match`).

Budget violations raise :class:`~repro.errors.ReplayBudgetExceeded`
carrying structured measured-vs-limit evidence, so a CI gate failure is
diagnosable from the exception alone.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.errors import (
    HarnessError,
    ReplayBudgetExceeded,
    ReproError,
    ServiceOverloaded,
)
from repro.harness.faults import FaultPlan
from repro.harness.parallel import ExecutionPolicy
from repro.harness.runner import Runner
from repro.obs.metrics import MetricsRegistry, exact_quantile
from repro.obs.tracer import Tracer
from repro.service.jobs import ServiceStats
from repro.service.service import ServiceConfig, SimulationService
from repro.service.traffic import TrafficRequest

#: Ledger file schema version (bump on incompatible format changes).
LEDGER_SCHEMA = 1

#: Header ``kind`` tag identifying a ledger JSONL file.
LEDGER_KIND = "repro-service-ledger"

#: Terminal request outcomes a ledger records.
COMPLETED = "completed"
FAILED = "failed"
SHED = "shed"

_OUTCOMES = (COMPLETED, FAILED, SHED)


@dataclass(frozen=True)
class LedgerEntry:
    """One answered request: what arrived, when, and how it ended.

    ``latency_s`` is the measured submit-to-resolution wall time — kept
    for budget evaluation, deliberately **excluded** from
    :meth:`fingerprint` (wall clocks do not replay).  ``makespan`` is
    the simulation result's cycle count for completed requests, the
    bit-identity witness.
    """

    benchmark: str
    scheme: str
    seed: int
    at: float  # arrival offset (s) from the drive's start
    outcome: str  # COMPLETED | FAILED | SHED
    makespan: Optional[float] = None  # simulated cycles (completed only)
    latency_s: Optional[float] = None  # measured, non-deterministic

    def __post_init__(self) -> None:
        if self.outcome not in _OUTCOMES:
            raise HarnessError(
                f"ledger outcome must be one of {_OUTCOMES}, "
                f"got {self.outcome!r}"
            )

    def request(self) -> TrafficRequest:
        """The request this entry recorded, ready to re-drive."""
        return TrafficRequest(
            benchmark=self.benchmark, scheme=self.scheme,
            seed=self.seed, at=self.at,
        )

    def fingerprint(self) -> tuple:
        """The deterministic projection (no measured wall-clock fields)."""
        return (
            self.benchmark, self.scheme, self.seed,
            round(self.at, 9), self.outcome, self.makespan,
        )

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "seed": self.seed,
            "at": self.at,
            "outcome": self.outcome,
            "makespan": self.makespan,
            "latency_s": self.latency_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LedgerEntry":
        try:
            return cls(
                benchmark=payload["benchmark"],
                scheme=payload["scheme"],
                seed=int(payload.get("seed", 1)),
                at=float(payload.get("at", 0.0)),
                outcome=payload["outcome"],
                # Makespans are float cycles; json round-trips them
                # exactly, so bit-identity survives the file.
                makespan=(
                    float(payload["makespan"])
                    if payload.get("makespan") is not None else None
                ),
                latency_s=(
                    float(payload["latency_s"])
                    if payload.get("latency_s") is not None else None
                ),
            )
        except (TypeError, KeyError) as exc:
            raise HarnessError(
                f"malformed ledger entry {payload!r}: {exc}"
            ) from None


@dataclass
class RequestLedger:
    """An ordered request trace with JSONL persistence.

    File layout: a header line (``kind``/``schema``/``count``) followed
    by one JSON object per entry.  The header makes a truncated file
    detectable (``count`` mismatch) and keeps the format self-naming.
    """

    entries: List[LedgerEntry] = field(default_factory=list)

    def append(self, entry: LedgerEntry) -> None:
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def requests(self) -> List[TrafficRequest]:
        return [entry.request() for entry in self.entries]

    def fingerprint(self) -> str:
        """SHA-256 over the deterministic projection of every entry."""
        canonical = json.dumps(
            [list(entry.fingerprint()) for entry in self.entries],
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- persistence ----------------------------------------------------
    def write(self, path) -> Path:
        path = Path(path)
        lines = [
            json.dumps(
                {
                    "kind": LEDGER_KIND,
                    "schema": LEDGER_SCHEMA,
                    "count": len(self.entries),
                }
            )
        ]
        lines.extend(
            json.dumps(entry.to_dict(), sort_keys=True)
            for entry in self.entries
        )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @classmethod
    def read(cls, path) -> "RequestLedger":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise HarnessError(f"cannot read ledger {path}: {exc}") from None
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise HarnessError(f"{path}: empty ledger file")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise HarnessError(f"{path}:1: invalid JSON: {exc}") from None
        if not isinstance(header, dict) or header.get("kind") != LEDGER_KIND:
            raise HarnessError(
                f"{path}: not a {LEDGER_KIND} file (bad or missing header)"
            )
        if header.get("schema") != LEDGER_SCHEMA:
            raise HarnessError(
                f"{path}: ledger schema {header.get('schema')!r} is not "
                f"the supported {LEDGER_SCHEMA}"
            )
        entries = []
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise HarnessError(
                    f"{path}:{lineno}: invalid JSON: {exc}"
                ) from None
            entries.append(LedgerEntry.from_dict(payload))
        declared = header.get("count")
        if declared is not None and declared != len(entries):
            raise HarnessError(
                f"{path}: header declares {declared} entries but "
                f"{len(entries)} were read (truncated file?)"
            )
        return cls(entries=entries)


# ----------------------------------------------------------------------
# Driving a service from a request script
# ----------------------------------------------------------------------
async def drive_service(
    service,  # SimulationService or ServiceFleet (duck-typed submit)
    requests: Sequence[TrafficRequest],
    *,
    speed: float = 1.0,
) -> List[LedgerEntry]:
    """Submit ``requests`` on their arrival schedule; record every outcome.

    The shared engine under both ``repro serve --record`` and
    ``repro replay``: arrival offsets are honoured relative to the first
    submission (divided by ``speed`` — 10 means ten times faster), every
    submission's outcome is captured, and the returned entries align
    with the input order.  Recorded ``at`` values are the *original*
    request offsets, so a ledger re-recorded from a sped-up replay
    fingerprints identically to its source.
    """
    if speed <= 0:
        raise HarnessError(f"replay speed must be positive, got {speed}")
    requests = list(requests)
    entries: List[Optional[LedgerEntry]] = [None] * len(requests)
    pending = []  # (index, request, submit_stamp, job)
    start = time.perf_counter()
    for index, request in enumerate(requests):
        target = start + request.at / speed
        delay = target - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        submit_stamp = time.perf_counter()
        try:
            job = await service.submit(request.config())
        except ServiceOverloaded:
            entries[index] = LedgerEntry(
                benchmark=request.benchmark, scheme=request.scheme,
                seed=request.seed, at=request.at, outcome=SHED,
                latency_s=max(time.perf_counter() - submit_stamp, 0.0),
            )
            continue
        pending.append((index, request, submit_stamp, job))
    for index, request, submit_stamp, job in pending:
        makespan: Optional[int] = None
        try:
            result = await job
        except ReproError:
            outcome = FAILED
        else:
            outcome = COMPLETED
            makespan = result.makespan
        finished = (
            job.finished_at if job.finished_at is not None
            else time.perf_counter()
        )
        entries[index] = LedgerEntry(
            benchmark=request.benchmark, scheme=request.scheme,
            seed=request.seed, at=request.at, outcome=outcome,
            makespan=makespan,
            latency_s=max(finished - submit_stamp, 0.0),
        )
    assert all(entry is not None for entry in entries)
    return entries  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Replay: re-drive a ledger and gate on budgets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayBudgets:
    """What a replayed run is allowed to measure.

    ``None`` disables a budget.  ``max_p99_s`` bounds the exact p99 of
    answered-request latencies (completed + failed; shed rejections are
    instant and would deflate the percentile).  ``max_shed_rate`` bounds
    shed submissions as a fraction of all submissions, in ``[0, 1]``.
    """

    max_p99_s: Optional[float] = None
    max_shed_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_p99_s is not None and self.max_p99_s <= 0:
            raise HarnessError(
                f"max_p99_s must be positive, got {self.max_p99_s}"
            )
        if self.max_shed_rate is not None and not (
            0.0 <= self.max_shed_rate <= 1.0
        ):
            raise HarnessError(
                f"max_shed_rate must be in [0, 1], got {self.max_shed_rate}"
            )


@dataclass
class ReplayReport:
    """Everything one replay measured, compared against its recording."""

    speed: float
    requests: int
    completed: int
    failed: int
    shed: int
    latencies: List[float]  # answered requests only, input order
    recorded_fingerprint: str
    replayed_fingerprint: str
    results_identical: bool  # every commonly-completed makespan matches
    outcomes_match: bool  # full deterministic fingerprints equal
    mismatches: List[str]  # human-readable first divergences
    stats: Optional[ServiceStats] = None
    ledger: Optional[RequestLedger] = None  # the replayed entries

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    def percentiles(self) -> Dict[str, float]:
        """Exact (sorted-sample) latency percentiles of answered requests."""
        if not self.latencies:
            return {}
        return {
            "p50": exact_quantile(self.latencies, 0.50),
            "p95": exact_quantile(self.latencies, 0.95),
            "p99": exact_quantile(self.latencies, 0.99),
        }

    def to_dict(self) -> dict:
        out = {
            "speed": self.speed,
            "requests": self.requests,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "shed_rate": self.shed_rate,
            "latency": self.percentiles(),
            "recorded_fingerprint": self.recorded_fingerprint,
            "replayed_fingerprint": self.replayed_fingerprint,
            "results_identical": self.results_identical,
            "outcomes_match": self.outcomes_match,
            "mismatches": list(self.mismatches),
        }
        if self.stats is not None:
            out["stats"] = self.stats.to_dict()
        return out

    def enforce(self, budgets: ReplayBudgets) -> None:
        """Raise :class:`ReplayBudgetExceeded` if any budget was violated.

        Every violated budget contributes one evidence record; nothing
        raises when all budgets pass (or none are set).
        """
        evidence = []
        if budgets.max_p99_s is not None:
            p99 = self.percentiles().get("p99")
            if p99 is not None and p99 > budgets.max_p99_s:
                evidence.append(
                    {
                        "budget": "p99_latency_s",
                        "measured": p99,
                        "limit": budgets.max_p99_s,
                    }
                )
        if budgets.max_shed_rate is not None:
            if self.shed_rate > budgets.max_shed_rate:
                evidence.append(
                    {
                        "budget": "shed_rate",
                        "measured": self.shed_rate,
                        "limit": budgets.max_shed_rate,
                    }
                )
        if evidence:
            detail = "; ".join(
                f"{item['budget']} measured {item['measured']:.6g} > "
                f"limit {item['limit']:.6g}"
                for item in evidence
            )
            raise ReplayBudgetExceeded(
                f"replay at {self.speed:g}x violated "
                f"{len(evidence)} budget(s): {detail}",
                evidence=evidence,
            )


async def replay_ledger(
    ledger: RequestLedger,
    *,
    speed: float = 1.0,
    runner: Optional[Runner] = None,
    runners: Optional[Sequence[Runner]] = None,
    shards: int = 1,
    config: Optional[ServiceConfig] = None,
    policy: Optional[ExecutionPolicy] = None,
    faults: Optional[FaultPlan] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> ReplayReport:
    """Re-drive a recorded ledger against a fresh service and compare.

    The service is built from the given knobs, driven through
    :func:`drive_service` at ``speed``, and the replayed entries are
    diffed against the recording: simulation results must be
    bit-identical (any divergence is listed in ``mismatches``), while
    measured latencies feed the report for budget gating.

    ``shards > 1`` replays against a
    :class:`~repro.service.fleet.ServiceFleet` instead of a single
    service — pass per-shard ``runners`` (see
    :func:`~repro.service.fleet.fleet_runners`) to share a store across
    the fleet; ``drive_service`` treats the two identically, and
    :class:`~repro.errors.FleetOverloaded` records as ``shed`` like any
    other :class:`~repro.errors.ServiceOverloaded`.
    """
    if runners is not None and runner is not None:
        raise HarnessError("pass either runner or runners, not both")
    service_config = config if config is not None else ServiceConfig(jobs=2)
    if shards > 1 or runners is not None:
        # Deferred import: fleet pulls in the store/backends stack,
        # which single-service replays never need.
        from repro.service.fleet import FleetConfig, ServiceFleet

        shard_count = max(shards, len(runners) if runners else 0, 1)
        service = ServiceFleet(
            runners,
            config=FleetConfig(shards=shard_count, service=service_config),
            policy=policy,
            faults=faults,
            tracer=tracer,
            metrics=metrics,
        )
    else:
        service = SimulationService(
            runner,
            config=service_config,
            policy=policy,
            faults=faults,
            tracer=tracer,
            metrics=metrics,
        )
    async with service:
        replayed_entries = await drive_service(
            service, ledger.requests(), speed=speed
        )
    stats = service.stats()
    replayed = RequestLedger(entries=replayed_entries)

    mismatches: List[str] = []
    results_identical = True
    for recorded, fresh in zip(ledger.entries, replayed.entries):
        both_completed = (
            recorded.outcome == COMPLETED and fresh.outcome == COMPLETED
        )
        if both_completed and recorded.makespan != fresh.makespan:
            results_identical = False
            mismatches.append(
                f"{recorded.benchmark}/{recorded.scheme} seed "
                f"{recorded.seed}: makespan {recorded.makespan} -> "
                f"{fresh.makespan}"
            )
        elif recorded.outcome != fresh.outcome:
            mismatches.append(
                f"{recorded.benchmark}/{recorded.scheme} seed "
                f"{recorded.seed}: outcome {recorded.outcome} -> "
                f"{fresh.outcome}"
            )

    latencies = [
        entry.latency_s
        for entry in replayed.entries
        if entry.outcome != SHED and entry.latency_s is not None
    ]
    return ReplayReport(
        speed=speed,
        requests=len(replayed.entries),
        completed=sum(1 for e in replayed.entries if e.outcome == COMPLETED),
        failed=sum(1 for e in replayed.entries if e.outcome == FAILED),
        shed=sum(1 for e in replayed.entries if e.outcome == SHED),
        latencies=latencies,
        recorded_fingerprint=ledger.fingerprint(),
        replayed_fingerprint=replayed.fingerprint(),
        results_identical=results_identical,
        outcomes_match=ledger.fingerprint() == replayed.fingerprint(),
        mismatches=mismatches,
        stats=stats,
        ledger=replayed,
    )
