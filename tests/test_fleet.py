"""Sharded-fleet tests: ring routing, failover evidence, fleet soak.

The load-bearing assertions mirror the single-service suite one level
up: the PR-5 ledger invariants must hold *fleet-wide* (per-shard ledgers
sum, the front door never loses a submission between shards), replies
must stay bit-identical to serial :meth:`Runner.run`, and a store
backend shared across shards must deduplicate work fleet-wide.
"""

import asyncio
from collections import Counter

import pytest

from repro.errors import FleetOverloaded, HarnessError, ServiceOverloaded
from repro.harness.runner import RunConfig, Runner
from repro.harness.store import open_store
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    ConsistentHashRing,
    FleetConfig,
    FleetStats,
    ServiceConfig,
    ServiceFleet,
    ServiceStats,
    drive_service,
    fleet_runners,
    generate_traffic,
)
from repro.service.fleet import _sum_service_stats

FAST = "GC-citation"


def run_async(coroutine):
    return asyncio.run(coroutine)


class TestConsistentHashRing:
    def test_deterministic_and_in_range(self):
        ring = ConsistentHashRing(4)
        keys = [f"key-{i}" for i in range(200)]
        first = [ring.shard_for(key) for key in keys]
        second = [ring.shard_for(key) for key in keys]
        assert first == second
        assert set(first) <= set(range(4))

    def test_every_shard_gets_traffic(self):
        ring = ConsistentHashRing(4)
        hits = Counter(ring.shard_for(f"key-{i}") for i in range(1000))
        assert set(hits) == set(range(4))
        # Virtual nodes keep the split rough-balanced, not degenerate.
        assert min(hits.values()) > 1000 // (4 * 8)

    def test_preference_is_a_permutation(self):
        ring = ConsistentHashRing(5)
        for i in range(50):
            order = ring.preference(f"key-{i}")
            assert sorted(order) == list(range(5))
            assert order[0] == ring.shard_for(f"key-{i}")

    def test_single_shard_ring(self):
        ring = ConsistentHashRing(1)
        assert ring.shard_for("anything") == 0
        assert ring.preference("anything") == [0]

    def test_adding_a_shard_moves_few_keys(self):
        """The property that makes the hashing 'consistent'."""
        small, large = ConsistentHashRing(4), ConsistentHashRing(5)
        keys = [f"key-{i}" for i in range(1000)]
        moved = sum(
            1 for key in keys if small.shard_for(key) != large.shard_for(key)
        )
        # Naive modulo hashing would move ~80%; the ring moves ~1/5.
        assert moved < 450

    def test_canonical_key_is_stable_json(self):
        config = RunConfig(benchmark=FAST, scheme="spawn")
        text = ConsistentHashRing.canonical_key(config.key())
        assert text == ConsistentHashRing.canonical_key(config.key())
        other = RunConfig(benchmark=FAST, scheme="flat")
        assert text != ConsistentHashRing.canonical_key(other.key())

    def test_invalid_arguments(self):
        with pytest.raises(HarnessError):
            ConsistentHashRing(0)


class TestFleetConfig:
    def test_validation(self):
        with pytest.raises(HarnessError):
            FleetConfig(shards=0)

    def test_runner_count_must_match(self):
        with pytest.raises(HarnessError):
            ServiceFleet([Runner()], config=FleetConfig(shards=2))


class TestFleetStatsModel:
    def test_summation_and_delegation(self):
        a = ServiceStats(submitted=3, completed=2, shed=1, cache_hits=2)
        b = ServiceStats(submitted=4, completed=4, peak_queue_depth=7)
        total = _sum_service_stats([a, b])
        assert total.submitted == 7
        assert total.completed == 6
        assert total.shed == 1
        assert total.cache_hits == 2
        assert total.peak_queue_depth == 7
        stats = FleetStats(shards=[a, b], aggregate=total, routed={0: 3, 1: 4})
        # Unknown attributes read through to the aggregate ledger.
        assert stats.completed == 6
        assert stats.lost == total.lost
        payload = stats.to_dict()
        assert payload["fleet"]["shards"] == 2
        assert payload["fleet"]["routed"] == {"0": 3, "1": 4}
        assert len(payload["per_shard"]) == 2


class TestRoutingAndFailover:
    def test_duplicates_route_to_the_same_shard(self):
        async def scenario():
            fleet = ServiceFleet(
                config=FleetConfig(shards=3, service=ServiceConfig(jobs=1)),
                metrics=MetricsRegistry(),
            )
            async with fleet:
                config = RunConfig(benchmark=FAST, scheme="spawn")
                jobs = [await fleet.submit(config) for _ in range(6)]
                await fleet.gather(jobs)
            return fleet.stats()

        stats = run_async(scenario())
        # All six submissions landed on one shard, so five coalesced.
        assert [part.submitted for part in stats.shards].count(6) == 1
        assert stats.coalesced == 5
        assert stats.failovers == 0

    def test_failover_when_home_shard_sheds(self):
        async def scenario():
            # Shard queues of size 0 shed instantly once anything queues;
            # deadline_ms tiny so predicted delay trips the controller.
            service_config = ServiceConfig(
                jobs=1, deadline_ms=0.0001, max_batch=1
            )
            fleet = ServiceFleet(
                config=FleetConfig(shards=2, service=service_config),
                metrics=MetricsRegistry(),
            )
            async with fleet:
                # Prime both shards' cost models so predictions exist.
                warm = [
                    await fleet.submit(
                        RunConfig(benchmark=FAST, scheme="flat")
                    )
                ]
                await fleet.gather(warm)
                results = []
                for i in range(8):
                    config = RunConfig(benchmark=FAST, scheme="spawn", seed=i + 1)
                    try:
                        results.append(await fleet.submit(config))
                    except ServiceOverloaded as exc:
                        results.append(exc)
                done = [job for job in results if not isinstance(job, Exception)]
                await fleet.gather(done)
            return fleet.stats(), results

        stats, results = run_async(scenario())
        overloads = [r for r in results if isinstance(r, Exception)]
        for exc in overloads:
            assert isinstance(exc, FleetOverloaded)
            assert isinstance(exc, ServiceOverloaded)  # drive_service compat
            assert exc.shard in (0, 1)
            assert set(exc.decisions) <= {0, 1}
        # Ledger stays consistent whatever mix of failover/shed happened.
        assert stats.lost == 0
        assert stats.fleet_shed == len(overloads)


class TestFleetSoak:
    @pytest.mark.slow
    def test_500_request_soak_sqlite_store(self, tmp_path):
        """The acceptance soak: 2 shards, one shared sqlite:// store.

        Asserts the fleet-wide ledger invariants, zero lost jobs,
        bit-identical replies vs. serial Runner.run, and cross-shard
        dedup (a result computed by one shard is a store hit for the
        other, so unique simulations happen once fleet-wide).
        """
        url = f"sqlite://{tmp_path}/fleet.db"
        requests = generate_traffic(500, seed=7, seeds=(1, 2))
        metrics = MetricsRegistry()

        async def scenario():
            fleet = ServiceFleet(
                fleet_runners(2, store_url=url),
                config=FleetConfig(
                    shards=2, service=ServiceConfig(jobs=2, max_batch=8)
                ),
                metrics=metrics,
            )
            async with fleet:
                entries = await drive_service(fleet, requests)
            return entries, fleet.stats()

        entries, stats = run_async(scenario())
        assert len(entries) == 500
        # Fleet-wide PR-5 invariants, summed over per-shard ledgers.
        assert stats.lost == 0
        assert stats.submitted == 500
        assert (
            stats.submitted
            == stats.completed + stats.failed + stats.shed + stats.in_flight
        )
        assert stats.in_flight == 0
        assert stats.failed == 0
        per_shard_sum = _sum_service_stats(stats.shards)
        assert per_shard_sum.submitted == stats.aggregate.submitted
        assert per_shard_sum.completed == stats.aggregate.completed
        # Both shards actually took traffic through the front door.
        assert all(stats.routed[shard] > 0 for shard in (0, 1))
        assert sum(stats.routed.values()) + stats.fleet_shed == 500

        # Bit-identical replies vs. the serial runner.
        serial = Runner()
        for entry in entries:
            if entry.outcome != "completed":
                continue
            expected = serial.run(
                RunConfig(
                    benchmark=entry.benchmark,
                    scheme=entry.scheme,
                    seed=entry.seed,
                )
            )
            assert entry.makespan == expected.makespan

        # Cross-shard dedup: every unique config simulated at most once
        # fleet-wide — duplicates were answered by coalescing or by the
        # shared store, never recomputed.
        unique = len(
            {
                (entry.benchmark, entry.scheme, entry.seed)
                for entry in entries
                if entry.outcome == "completed"
            }
        )
        recomputed = stats.admitted + stats.inline
        assert recomputed <= unique
        assert stats.coalesced + stats.cache_hits >= 500 - unique
        store = open_store(url)
        try:
            assert store.stats().entries == unique
        finally:
            store.close()

    def test_fleet_replies_match_serial_runner(self, tmp_path):
        """Small-scale bit-identity check that always runs (not slow)."""
        url = f"sqlite://{tmp_path}/fleet.db"
        requests = generate_traffic(40, seed=3)

        async def scenario():
            fleet = ServiceFleet(
                fleet_runners(2, store_url=url),
                config=FleetConfig(shards=2, service=ServiceConfig(jobs=2)),
                metrics=MetricsRegistry(),
            )
            async with fleet:
                jobs = [
                    await fleet.submit(request.config(), seed=request.seed)
                    for request in requests
                ]
                results = await fleet.gather(jobs)
            return results, fleet.stats()

        results, stats = run_async(scenario())
        assert stats.lost == 0
        serial = Runner()
        for request, result in zip(requests, results):
            expected = serial.run(request.config())
            assert result.makespan == expected.makespan
            assert result.summary() == expected.summary()
