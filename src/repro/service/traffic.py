"""Deterministic traffic generation and scripted request files.

The load tier needs *repeatable* traffic: the same seed must produce the
same request sequence — pairs, seeds, and arrival offsets — on every
host, so a soak failure reproduces exactly.  ``generate_traffic`` draws
from a benchmark x scheme matrix with a Zipf-like skew (rank ``i`` is
weighted ``1/(i+1)``), so a realistic fraction of requests are
duplicates of hot pairs — which is precisely what exercises the
service's coalescing and cache paths.  Arrivals follow a seeded Poisson
process (exponential inter-arrival gaps) when ``mean_gap_s > 0``;
``0`` produces an instantaneous burst, which is what the soak tests use
so wall-clock sleeps never enter the test budget.

``load_requests``/``dump_requests`` read and write the scripted request
files ``repro serve`` consumes: a JSON array (or JSON-lines stream) of
``{"benchmark": ..., "scheme": ..., "seed": ..., "at": ...}`` objects.
``drive_service`` submits such a request list to a running service on its
arrival schedule and collects every outcome.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple, Union

from repro.errors import HarnessError, ReproError, ServiceOverloaded
from repro.harness.runner import RunConfig
from repro.service.service import SimulationService
from repro.sim.engine import SimResult

#: Default matrix: the suite's cheapest benchmarks under the core schemes
#: plus the scheme zoo — heavy traffic without heavy simulations.  The
#: zoo pairs send merged-kernel and ACS runs through the pool and the
#: store beside the plain DP traffic.
DEFAULT_MATRIX: Tuple[Tuple[str, str], ...] = (
    ("GC-citation", "flat"),
    ("GC-citation", "spawn"),
    ("MM-small", "flat"),
    ("MM-small", "spawn"),
    ("GC-citation", "baseline-dp"),
    ("MM-small", "baseline-dp"),
    ("GC-citation", "consolidate"),
    ("GC-citation", "acs"),
    ("SelfSim-sparse", "aggregate:block"),
)


@dataclass(frozen=True)
class TrafficRequest:
    """One scripted request: what to simulate and when it arrives."""

    benchmark: str
    scheme: str
    seed: int = 1
    at: float = 0.0  # arrival offset in seconds from traffic start

    def config(self) -> RunConfig:
        return RunConfig(
            benchmark=self.benchmark, scheme=self.scheme, seed=self.seed
        )

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "seed": self.seed,
            "at": self.at,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TrafficRequest":
        try:
            benchmark = payload["benchmark"]
            scheme = payload["scheme"]
        except (TypeError, KeyError):
            benchmark = scheme = None
        if not isinstance(benchmark, str) or not isinstance(scheme, str):
            raise HarnessError(
                f"request objects need string benchmark and scheme: "
                f"{payload!r}"
            )
        seed = payload.get("seed", 1)
        # bool is an int subclass: true would quietly run seed 1.
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise HarnessError(f"request seed must be an integer: {payload!r}")
        at = payload.get("at", 0.0)
        if (
            not isinstance(at, (int, float)) or isinstance(at, bool)
            or not math.isfinite(at) or at < 0
        ):
            raise HarnessError(
                f"request at must be a finite number >= 0: {payload!r}"
            )
        return cls(benchmark=benchmark, scheme=scheme, seed=seed, at=float(at))


def generate_traffic(
    count: int,
    *,
    seed: int,
    matrix: Sequence[Tuple[str, str]] = DEFAULT_MATRIX,
    seeds: Sequence[int] = (1,),
    mean_gap_s: float = 0.0,
) -> List[TrafficRequest]:
    """``count`` seeded requests over ``matrix`` x ``seeds``.

    Deterministic for a given argument tuple: the generator is a private
    ``random.Random(seed)`` and nothing else enters the draw.
    """
    if count < 0:
        raise HarnessError(f"count must be >= 0, got {count}")
    if not matrix:
        raise HarnessError("traffic matrix must not be empty")
    if not seeds:
        raise HarnessError("traffic needs at least one run seed")
    if mean_gap_s < 0:
        raise HarnessError(f"mean_gap_s must be >= 0, got {mean_gap_s}")
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) for rank in range(len(matrix))]
    requests: List[TrafficRequest] = []
    now = 0.0
    for _ in range(count):
        benchmark, scheme = rng.choices(list(matrix), weights=weights)[0]
        run_seed = seeds[rng.randrange(len(seeds))]
        if mean_gap_s > 0:
            now += rng.expovariate(1.0 / mean_gap_s)
        requests.append(
            TrafficRequest(
                benchmark=benchmark, scheme=scheme, seed=run_seed, at=now
            )
        )
    return requests


def load_requests(path) -> List[TrafficRequest]:
    """Parse a scripted request file (JSON array or JSON lines)."""
    text = Path(path).read_text(encoding="utf-8").strip()
    if not text:
        return []
    if text.startswith("["):
        try:
            payloads = json.loads(text)
        except json.JSONDecodeError as exc:
            raise HarnessError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(payloads, list):
            raise HarnessError(f"{path}: expected a JSON array of requests")
    else:
        payloads = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payloads.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise HarnessError(
                    f"{path}:{lineno}: invalid JSON: {exc}"
                ) from None
    return [TrafficRequest.from_dict(payload) for payload in payloads]


def dump_requests(requests: Sequence[TrafficRequest], path) -> Path:
    """Write a scripted request file (JSON array); returns the path."""
    path = Path(path)
    payload = [request.to_dict() for request in requests]
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


async def drive_service(
    service: SimulationService, requests: Sequence[TrafficRequest]
) -> List[Union[SimResult, ReproError]]:
    """Submit ``requests`` on their arrival schedule; return every outcome.

    Arrival offsets (``at``) count from the first submission.  The result
    aligns with ``requests``: each request's :class:`SimResult`, or the
    :class:`ReproError` it ended with (:class:`ServiceOverloaded` when
    the service shed it, a ``RunFailure`` when its run was quarantined).
    A request the service rejects at the door (unknown benchmark or
    scheme, negative seed) raises out of the drive.
    """
    outcomes: list = []
    start = time.perf_counter()
    for request in requests:
        delay = start + request.at - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        try:
            outcomes.append(await service.submit(request.config()))
        except ServiceOverloaded as exc:
            outcomes.append(exc)
    for index, outcome in enumerate(outcomes):
        if isinstance(outcome, ReproError):
            continue
        try:
            outcomes[index] = await outcome
        except ReproError as exc:
            outcomes[index] = exc
    return outcomes
