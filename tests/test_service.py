"""Unit tests for the service façade's edge paths and plumbing.

The load/soak, chaos, and CLI suites cover the happy paths;
this file pins down the corners: lifecycle (submit-after-close, undrained
shutdown, idempotent close), submit-time validation, the batch-dispatch
failure containment, job-handle semantics, the ``service.*`` tracer
stream, ``repro.api.serve``'s store arguments, and a pooled service over
a ``sqlite://`` store.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import (
    HarnessError,
    RunFailure,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.harness.runner import RunConfig, Runner
from repro.harness.store import open_store
from repro.obs.tracer import Tracer
from repro.service import (
    ServiceConfig,
    ServiceStats,
    SimulationService,
    generate_traffic,
)
from repro.service.jobs import as_run_config

FAST = RunConfig(benchmark="GC-citation", scheme="flat")
FAST2 = RunConfig(benchmark="MM-small", scheme="flat")


# ----------------------------------------------------------------------
# Request normalization and submit-time validation
# ----------------------------------------------------------------------
class TestRequestValidation:
    def test_as_run_config_passthrough_and_pairs(self):
        assert as_run_config(FAST) is FAST
        config = as_run_config(("GC-citation", "spawn"), seed=7)
        assert config == RunConfig(
            benchmark="GC-citation", scheme="spawn", seed=7
        )

    def test_as_run_config_rejects_garbage(self):
        with pytest.raises(HarnessError, match="requests must be"):
            as_run_config(42)
        with pytest.raises(HarnessError):
            as_run_config(("too", "many", "fields"))

    def test_malformed_requests_rejected_at_the_door(self):
        """An unknown benchmark/scheme raises before it can poison a
        batch — and before it is even counted as submitted."""

        async def _scenario():
            async with SimulationService(Runner()) as service:
                with pytest.raises(Exception) as bench_err:
                    await service.submit(("no-such-benchmark", "flat"))
                with pytest.raises(Exception) as scheme_err:
                    await service.submit(("GC-citation", "no-such-scheme"))
                return service.stats(), bench_err.value, scheme_err.value

        stats, bench_err, scheme_err = asyncio.run(_scenario())
        assert stats.submitted == 0
        assert stats.lost == 0
        assert "no-such-benchmark" in str(bench_err)
        assert "no-such-scheme" in str(scheme_err)


class TestServiceConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jobs": 0},
            {"jobs": -1},
            {"max_batch": 0},
            {"max_batch": -2},
            {"max_queue": 0},
            {"max_queue": -1},
        ],
    )
    def test_rejects_invalid_tunables(self, kwargs):
        with pytest.raises(HarnessError):
            ServiceConfig(**kwargs)

    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.jobs == 2
        assert config.max_batch == 8
        assert config.max_queue is None


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_submit_after_close_raises_service_closed(self):
        async def _scenario():
            service = SimulationService(Runner())
            async with service:
                pass
            with pytest.raises(ServiceClosed):
                await service.submit(FAST)
            with pytest.raises(ServiceClosed):
                await service.start()

        asyncio.run(_scenario())

    def test_close_is_idempotent(self):
        async def _scenario():
            service = SimulationService(Runner())
            await service.start()
            await service.close()
            await service.close()  # second close is a no-op

        asyncio.run(_scenario())

    def test_undrained_close_fails_stranded_handles(self):
        """close(drain=False) abandons the queue; every stranded handle
        must fail with the typed ServiceClosed, never hang."""

        async def _scenario():
            service = SimulationService(
                Runner(), config=ServiceConfig(jobs=1, max_batch=1)
            )
            await service.start()
            # Burst-submit without yielding: both jobs still queued.
            a = await service.submit(FAST)
            b = await service.submit(FAST2)
            await service.close(drain=False)
            results = await service.gather(
                [a, b], return_exceptions=True
            )
            return service.stats(), results

        stats, results = asyncio.run(_scenario())
        assert all(isinstance(r, ServiceClosed) for r in results)
        assert stats.failed == 2
        assert stats.lost == 0

    def test_drained_close_finishes_queued_work(self):
        async def _scenario():
            service = SimulationService(
                Runner(), config=ServiceConfig(jobs=1, max_batch=1)
            )
            await service.start()
            job = await service.submit(FAST)
            await service.close()  # drain=True default
            return service.stats(), await job

        stats, result = asyncio.run(_scenario())
        assert stats.completed == 1
        assert result.makespan > 0


# ----------------------------------------------------------------------
# Batch-dispatch failure containment
# ----------------------------------------------------------------------
def test_batch_level_failure_quarantines_batch_not_service():
    """If run_suite itself explodes, the batch is quarantined and the
    service keeps serving — the scheduler loop must never die."""

    def explode(*args, **kwargs):
        raise RuntimeError("pool exploded")

    async def _scenario():
        service = SimulationService(Runner())
        service._parallel.run_suite = explode
        async with service:
            a = await service.submit(FAST)
            b = await service.submit(FAST2)
            results = await service.gather([a, b], return_exceptions=True)
            # The service is still alive: restore the pool and serve on.
            del service._parallel.run_suite  # back to the real method
            c = await service.submit(("GC-citation", "spawn"))
            healthy = await c
        return service.stats(), results, healthy

    stats, results, healthy = asyncio.run(_scenario())
    assert all(isinstance(r, RunFailure) for r in results)
    assert all("batch dispatch failed" in str(r) for r in results)
    assert stats.quarantined == 2
    assert stats.failed == 2
    assert stats.completed == 1
    assert stats.lost == 0
    assert healthy.makespan > 0


# ----------------------------------------------------------------------
# Tracer stream
# ----------------------------------------------------------------------
def test_service_tracer_kinds_cover_every_route():
    tracer = Tracer()

    async def _scenario():
        service = SimulationService(
            Runner(),
            config=ServiceConfig(jobs=1, max_queue=1),
            tracer=tracer,
        )
        async with service:
            first = await service.submit(FAST)  # -> admit
            dup = await service.submit(FAST)  # -> coalesce, not shed
            # A distinct miss while FAST holds the one queue slot -> shed.
            with pytest.raises(ServiceOverloaded) as excinfo:
                await service.submit(FAST2)
            await service.gather([first, dup])
            await service.submit(FAST)  # -> cache hit
        return excinfo.value

    error = asyncio.run(_scenario())
    kinds = {event.kind for event in tracer.events()}
    for expected in (
        "service.submit",
        "service.coalesce",
        "service.cache_hit",
        "service.admit",
        "service.shed",
        "service.batch",
        "service.complete",
    ):
        assert expected in kinds, f"missing tracer kind {expected}"
    shed = [e for e in tracer.events() if e.kind == "service.shed"]
    assert len(shed) == 1
    assert shed[0].args["queue_depth"] == error.queue_depth == 1
    assert shed[0].args["max_queue"] == error.max_queue == 1


# ----------------------------------------------------------------------
# Stats ledger shape
# ----------------------------------------------------------------------
def test_stats_to_dict_is_flat_and_complete():
    payload = ServiceStats(submitted=3, completed=2, shed=1).to_dict()
    assert payload["submitted"] == 3
    assert payload["lost"] == 0
    assert payload["latency"] == {}
    # Everything JSON-serializable, nothing nested but the latency digest.
    import json

    json.dumps(payload)


def test_default_registry_latency_digest_is_per_service():
    """Two services built one after the other each digest only their
    own requests, like every other stats field."""

    async def _scenario():
        service = SimulationService(Runner())
        async with service:
            await (await service.submit(FAST))
        return service.stats()

    for _ in range(2):
        stats = asyncio.run(_scenario())
        assert stats.submitted == 1
        resolved = stats.completed + stats.failed
        assert stats.latency["end_to_end"]["count"] == resolved == 1


def test_api_facade_round_trip():
    """repro.api serve/submit/gather wrap the service end to end."""
    from repro import api

    async def _scenario():
        async with api.serve(jobs=1) as service:
            job = await api.submit(service, ("GC-citation", "flat"))
            [result] = await api.gather(service, [job])
        return service.stats(), result

    stats, result = asyncio.run(_scenario())
    assert stats.completed == 1
    assert result.makespan > 0
    serial = Runner().run(RunConfig("GC-citation", "flat"))
    assert result.to_dict() == serial.to_dict()


def test_serve_refuses_store_url_beside_runner_or_store(tmp_path):
    """A URL next to a runner or a store would be opened, then dropped."""
    from repro import api

    url = f"sqlite://{tmp_path}/a.db"
    with pytest.raises(HarnessError, match="store_url"):
        api.serve(runner=Runner(), store_url=url)
    assert list(tmp_path.iterdir()) == []
    store = open_store(tmp_path / "kept")
    with pytest.raises(HarnessError, match="store_url"):
        api.serve(store=store, store_url=url)
    assert not (tmp_path / "a.db").exists()


def test_pooled_sqlite_service_matches_serial_runner(tmp_path):
    """serve(jobs=2) over sqlite://: pool replies equal serial Runner.run,
    each unique config is stored once, and a second service over the same
    URL answers every request from the store."""
    from repro import api

    url = f"sqlite://{tmp_path}/service.db"
    requests = generate_traffic(40, seed=3)
    unique = {request.config().key() for request in requests}

    async def _scenario():
        service = api.serve(jobs=2, store_url=url)
        try:
            async with service:
                jobs = [
                    await service.submit(request.config())
                    for request in requests
                ]
                results = await service.gather(jobs)
        finally:
            service.runner.store.close()
        return results, service.stats()

    results, stats = asyncio.run(_scenario())
    assert stats.lost == 0
    assert stats.failed == 0
    assert stats.pool_runs > 0
    serial = Runner()
    for request, result in zip(requests, results):
        expected = serial.run(request.config())
        assert result.makespan == expected.makespan
        assert result.summary() == expected.summary()
    store = open_store(url)
    try:
        assert store.stats().entries == len(unique)
    finally:
        store.close()

    _, warm = asyncio.run(_scenario())
    assert warm.submitted == len(requests)
    assert warm.cache_hits == warm.submitted
    assert warm.pool_runs == 0
