"""Load/soak suite for the batched async simulation service.

The contract under test: a 500-request seeded soak must lose nothing —
``submitted == completed + failed + shed + in_flight`` with ``lost ==
0`` — must coalesce every duplicate onto a single pool run, and every
result handed back must be bit-identical to a direct serial
:meth:`Runner.run` of the same config.  Shedding is exercised by burst
submissions against a small ``max_queue`` rather than by wall-clock
racing: a burst submits every request before the batch loop runs, so
the suite passes identically on any host.

Traffic comes from :func:`repro.service.generate_traffic`, which is a
pure function of its seed: a soak failure reproduces exactly.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import HarnessError, ServiceOverloaded
from repro.harness.runner import Runner
from repro.service import (
    ServiceConfig,
    SimulationService,
    TrafficRequest,
    drive_service,
    dump_requests,
    generate_traffic,
    load_requests,
)
from repro.sim.engine import SimResult

SOAK_SEED = 42
SOAK_REQUESTS = 500


def drive(requests, *, config=None, runner=None):
    """Burst-submit ``requests`` through one service; return (stats, results).

    Submissions happen back-to-back on the event loop (no awaits on the
    handles in between), so every duplicate of an un-finished config
    must coalesce — the scheduler cannot run until the burst yields.
    """

    async def _drive():
        service = SimulationService(
            runner if runner is not None else Runner(),
            config=config,
        )
        handles = []
        shed = []
        async with service:
            for request in requests:
                try:
                    handles.append(await service.submit(request.config()))
                except ServiceOverloaded as exc:
                    shed.append(exc)
            results = await service.gather(handles)
        return service.stats(), results, shed

    return asyncio.run(_drive())


# ----------------------------------------------------------------------
# The soak
# ----------------------------------------------------------------------
class TestSoak:
    @pytest.fixture(scope="class")
    def soak(self):
        requests = generate_traffic(
            SOAK_REQUESTS, seed=SOAK_SEED, seeds=(1, 2)
        )
        stats, results, shed = drive(
            requests, config=ServiceConfig(jobs=2, max_batch=8)
        )
        return requests, stats, results, shed

    def test_nothing_is_lost(self, soak):
        requests, stats, results, shed = soak
        assert stats.submitted == SOAK_REQUESTS
        assert stats.lost == 0
        assert stats.in_flight == 0
        assert stats.failed == 0
        assert stats.shed == 0 and not shed  # no queue cap configured
        assert stats.completed == SOAK_REQUESTS
        assert len(results) == SOAK_REQUESTS

    def test_every_duplicate_coalesces_onto_one_pool_run(self, soak):
        requests, stats, results, _ = soak
        unique = {request.config().key() for request in requests}
        # Burst submission: the first sighting of each unique config is
        # admitted, every other submission coalesces; the cache cannot
        # hit because nothing finishes until the burst ends.
        assert stats.admitted == len(unique)
        assert stats.coalesced == SOAK_REQUESTS - len(unique)
        assert stats.cache_hits == 0
        # The pool simulated each unique config exactly once.
        assert stats.pool_runs == len(unique)
        assert stats.quarantined == 0

    def test_batches_respect_max_batch(self, soak):
        _, stats, _, _ = soak
        assert stats.batches >= 1
        assert 1 <= stats.max_batch_size <= 8
        assert stats.peak_queue_depth >= stats.max_batch_size

    def test_results_bit_identical_to_serial_runner(self, soak):
        requests, _, results, _ = soak
        serial = Runner()
        expected = {}
        for request, result in zip(requests, results):
            key = request.config().key()
            if key not in expected:
                expected[key] = serial.run(request.config()).to_dict()
            assert result.to_dict() == expected[key], (
                f"service result for {request.benchmark}/{request.scheme} "
                f"(seed {request.seed}) diverged from serial Runner.run"
            )

    def test_coalesced_waiters_share_one_result_object(self, soak):
        requests, _, results, _ = soak
        by_key = {}
        for request, result in zip(requests, results):
            key = request.config().key()
            if key in by_key:
                assert result is by_key[key]
            else:
                by_key[key] = result


# ----------------------------------------------------------------------
# Cache path: a drained service answers repeats without the pool
# ----------------------------------------------------------------------
def test_second_wave_is_pure_cache():
    requests = generate_traffic(40, seed=7)
    runner = Runner()

    async def _two_waves():
        service = SimulationService(runner, config=ServiceConfig(jobs=2))
        async with service:
            first = [
                await service.submit(request.config())
                for request in requests
            ]
            await service.gather(first)
            mid = service.stats()
            second = [
                await service.submit(request.config())
                for request in requests
            ]
            await service.gather(second)
            return mid, service.stats()

    mid, final = asyncio.run(_two_waves())
    # Wave two never created a job: every submission was a cache hit.
    assert final.cache_hits - mid.cache_hits == len(requests)
    assert final.admitted == mid.admitted
    assert final.pool_runs == mid.pool_runs
    assert final.lost == 0


# ----------------------------------------------------------------------
# Shedding at the queue cap: deterministic, no wall-clock racing
# ----------------------------------------------------------------------
#: Four distinct configs of one pair, none of them seen before.
COLD = [
    TrafficRequest("GC-citation", "flat", seed=seed) for seed in range(1, 5)
]


def test_cap_holds_for_cold_traffic():
    """The first request for a pair counts against the cap like any
    other: two of four distinct cold requests are admitted, two shed."""
    stats, results, shed = drive(COLD, config=ServiceConfig(max_queue=2))
    assert stats.admitted == 2
    assert len(results) == 2
    assert len(shed) == stats.shed == 2
    assert all(
        (error.queue_depth, error.max_queue) == (2, 2) for error in shed
    )
    assert "cap of 2" in str(shed[0])
    assert stats.completed == 2
    assert stats.lost == 0


def test_duplicates_coalesce_instead_of_shedding():
    """An exact duplicate of an in-flight job joins it — coalescing is
    checked before the cap, so hot traffic never sheds itself."""
    request = TrafficRequest("GC-citation", "flat", seed=1)

    async def _scenario():
        service = SimulationService(
            Runner(),
            config=ServiceConfig(jobs=2, max_queue=1),
        )
        async with service:
            first = await service.submit(request.config())
            second = await service.submit(request.config())
            assert second is first
            await service.gather([first, second])
        return service.stats()

    stats = asyncio.run(_scenario())
    assert stats.coalesced == 1
    assert stats.shed == 0
    assert stats.lost == 0


def test_max_queue_cap_sheds_regardless_of_deadline():
    # A job leaves the count when it finishes: after the burst drains, a
    # fifth distinct request is admitted again.
    fifth = TrafficRequest("GC-citation", "flat", seed=5)

    async def _scenario():
        service = SimulationService(
            Runner(),
            config=ServiceConfig(jobs=1, max_queue=2),
        )
        shed = 0
        handles = []
        async with service:
            for request in COLD:
                try:
                    handles.append(await service.submit(request.config()))
                except ServiceOverloaded:
                    shed += 1
            await service.gather(handles)
            await (await service.submit(fifth.config()))
        return service.stats(), shed

    stats, shed = asyncio.run(_scenario())
    assert shed == 2  # the 3rd and 4th distinct jobs found the queue full
    assert stats.shed == 2
    assert stats.admitted == 3
    assert stats.completed == 3
    assert stats.lost == 0


def test_drive_service_returns_results_and_shed_errors_in_input_order():
    # The scenario above, driven through drive_service: every request
    # gets an outcome, in input order, and a shed one is its typed error.
    async def _scenario():
        service = SimulationService(
            Runner(),
            config=ServiceConfig(jobs=1, max_queue=2),
        )
        async with service:
            return await drive_service(service, COLD)

    outcomes = asyncio.run(_scenario())
    assert len(outcomes) == 4
    serial = Runner()
    for request, outcome in zip(COLD[:2], outcomes[:2]):
        assert isinstance(outcome, SimResult)
        assert outcome.to_dict() == serial.run(request.config()).to_dict()
    assert all(isinstance(o, ServiceOverloaded) for o in outcomes[2:])


# ----------------------------------------------------------------------
# Traffic generator: deterministic, serializable
# ----------------------------------------------------------------------
def test_traffic_is_a_pure_function_of_its_seed():
    a = generate_traffic(200, seed=SOAK_SEED, seeds=(1, 2))
    b = generate_traffic(200, seed=SOAK_SEED, seeds=(1, 2))
    c = generate_traffic(200, seed=SOAK_SEED + 1, seeds=(1, 2))
    assert a == b
    assert a != c
    # Zipf-ish skew: the hottest pair sees strictly more traffic than
    # the coldest, so coalescing genuinely gets exercised.
    counts = {}
    for request in a:
        counts[(request.benchmark, request.scheme)] = (
            counts.get((request.benchmark, request.scheme), 0) + 1
        )
    assert max(counts.values()) > min(counts.values())


def test_request_file_roundtrip(tmp_path):
    requests = generate_traffic(25, seed=3, mean_gap_s=0.01)
    path = dump_requests(requests, tmp_path / "traffic.json")
    assert load_requests(path) == requests
    # Arrival offsets are monotone under a Poisson gap process.
    ats = [request.at for request in requests]
    assert ats == sorted(ats)


@pytest.mark.parametrize(
    "fields",
    [
        {"benchmark": 5},
        {"scheme": ["flat"]},
        {"seed": "x"},
        {"seed": 1.7},
        {"seed": True},
        {"seed": None},
        {"at": None},
        {"at": "soon"},
        {"at": -1.0},
        {"at": float("inf")},
        {"at": float("nan")},
        {"at": False},
    ],
)
def test_request_file_rejects_malformed_fields(tmp_path, fields):
    path = tmp_path / "bad.jsonl"
    payload = {"benchmark": "GC-citation", "scheme": "flat", **fields}
    path.write_text(json.dumps(payload) + "\n")
    with pytest.raises(HarnessError):
        load_requests(path)
