"""Unit tests for the service façade's edge paths and plumbing.

The load/soak, property, chaos, and CLI suites cover the happy paths;
this file pins down the corners: lifecycle (submit-after-close, undrained
shutdown, idempotent close), submit-time validation, the batch-dispatch
failure containment, job-handle semantics, and the ``service.*`` tracer
stream.
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
from repro.obs.tracer import Tracer
from repro.service import (
    ServiceConfig,
    ServiceStats,
    SimulationService,
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
            {"deadline_ms": 0.0},
            {"deadline_ms": -5.0},
            {"inline_threshold_ms": -1.0},
            {"max_batch": 0},
            {"max_queue": 0},
        ],
    )
    def test_rejects_invalid_tunables(self, kwargs):
        with pytest.raises(HarnessError):
            ServiceConfig(**kwargs)

    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.jobs == 2
        assert config.deadline_ms is None


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
            config=ServiceConfig(
                jobs=1, deadline_ms=1.0, inline_threshold_ms=50_000.0
            ),
            tracer=tracer,
        )
        async with service:
            first = await service.submit(FAST)  # bootstrap -> admit
            dup = await service.submit(FAST)  # -> coalesce
            await service.gather([first, dup])
            await service.submit(FAST)  # -> cache hit
            # Priced now: below the huge threshold -> inline.
            await service.submit(RunConfig("GC-citation", "flat", seed=2))
            # Price MM-small above the inline threshold, then push the
            # backlog past the 1ms deadline: the next submit sheds.
            service.model.observe("MM-small", "flat", 100.0)
            service.controller.backlog_seconds = 100.0
            service.controller.queue_depth = 1
            with pytest.raises(ServiceOverloaded):
                await service.submit(FAST2)
            service.controller.backlog_seconds = 0.0
            service.controller.queue_depth = 0

    asyncio.run(_scenario())
    kinds = {event.kind for event in tracer.events()}
    for expected in (
        "service.submit",
        "service.coalesce",
        "service.cache_hit",
        "service.admit",
        "service.inline",
        "service.shed",
        "service.batch",
        "service.complete",
    ):
        assert expected in kinds, f"missing tracer kind {expected}"
    shed = [e for e in tracer.events() if e.kind == "service.shed"]
    assert shed[0].args["verdict"] == "shed"
    assert shed[0].args["predicted_delay_s"] > shed[0].args["deadline_s"]


# ----------------------------------------------------------------------
# Stats ledger shape
# ----------------------------------------------------------------------
def test_stats_to_dict_is_flat_and_complete():
    payload = ServiceStats(submitted=3, completed=2, shed=1).to_dict()
    assert payload["submitted"] == 3
    assert payload["lost"] == 0
    assert payload["model"] == {}
    # Everything JSON-serializable, nothing nested but the model.
    import json

    json.dumps(payload)


def test_default_registry_latency_digest_is_per_service():
    """Two services built one after the other with no injected registry
    each digest only their own requests, like every other stats field."""

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
