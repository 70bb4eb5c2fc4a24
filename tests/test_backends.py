"""Store contract suite: the rules the runner and the service rely on.

The store is one WAL-mode SQLite file; the ``store`` fixture's parameter
is its URL scheme.  The contract under test: result round trips, last
write wins, corrupt entries orphaned on read, strict JSON (NaN rejected
with ``ValueError`` before anything is written), delete and clear,
concurrent writers, and schema-version bumps invalidating stale entries.
"""

import json
import sqlite3
import threading
from contextlib import closing
from types import SimpleNamespace

import pytest

from repro.harness import store as store_mod
from repro.harness.runner import RunConfig, Runner
from repro.harness.store import open_store
from repro.sim.engine import SimResult
from repro.sim.stats import SimStats

KEY = "ab" * 32
OTHER = "cd" * 32


def result_with(makespan):
    stats = SimStats()
    stats.makespan = makespan
    return SimResult("app", "policy", stats)


def read_raw(store, key):
    """``key``'s payload, read as another process would."""
    with closing(sqlite3.connect(store.path)) as conn:
        (text,) = conn.execute(
            "SELECT payload FROM entries WHERE key = ?", (key,)
        ).fetchone()
    return json.loads(text)


def write_raw(store, key, text):
    """Overwrite ``key``'s payload text, as another process scribbling."""
    with closing(sqlite3.connect(store.path)) as conn, conn:
        conn.execute(
            "UPDATE entries SET payload = ? WHERE key = ?", (text, key)
        )


@pytest.fixture(params=["sqlite"])
def store(request, tmp_path):
    opened = open_store(f"{request.param}://{tmp_path}/cache.db")
    yield opened
    opened.close()


class TestContract:
    def test_round_trip(self, store):
        assert store.load(KEY) is None
        assert not store.contains(KEY)
        store.save(KEY, result_with(1.5))
        assert store.contains(KEY)
        assert store.load(KEY).makespan == 1.5
        stats = store.stats()
        assert stats.entries == 1
        assert stats.total_bytes > 0

    def test_save_overwrites_last_wins(self, store):
        store.save(KEY, result_with(1.0))
        store.save(KEY, result_with(2.0))
        assert store.load(KEY).makespan == 2.0
        assert store.stats().entries == 1

    def test_corrupt_entry_is_orphaned(self, store):
        store.save(KEY, result_with(1.0))
        write_raw(store, KEY, "{ not json")
        assert store.load(KEY) is None
        # The read deleted the broken entry, not just skipped it.
        assert store.stats().entries == 0

    def test_nan_rejected_before_write(self, store):
        untagged = SimpleNamespace(to_dict=lambda: {"makespan": float("nan")})
        with pytest.raises(ValueError):
            store.save(KEY, untagged)
        # Not even the database file was created.
        assert not store.path.exists()
        assert store.stats().entries == 0

    def test_delete_and_clear(self, store):
        store.save(KEY, result_with(1.0))
        store.save(OTHER, result_with(2.0))
        store.delete(KEY)
        store.delete(KEY)  # deleting a missing key is a no-op
        assert store.load(KEY) is None
        assert store.stats().entries == 1
        assert store.clear() == 1
        assert store.stats().entries == 0

    def test_concurrent_writers_all_land(self, store):
        keys = [f"{i:02x}" * 32 for i in range(16)]
        errors = []

        def write(key, value):
            try:
                store.save(key, result_with(float(value)))
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(key, i))
            for i, key in enumerate(keys)
        ] + [
            # Contended writers on one hot key (last-wins, never corrupt).
            threading.Thread(target=write, args=(KEY, 100 + i))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert store.stats().entries == len(keys) + 1
        for i, key in enumerate(keys):
            assert store.load(key).makespan == i
        assert store.load(KEY).makespan in range(100, 104)

    def test_schema_bump_invalidates_through_the_wrapper(
        self, store, monkeypatch
    ):
        runner = Runner()
        config = RunConfig(benchmark="GC-citation", scheme="spawn")
        key = store.key_for(config, runner.config, runner.max_events)
        store.save(key, runner.run(config))
        assert store.load(key) is not None
        monkeypatch.setattr(
            store_mod, "SCHEMA_VERSION", store_mod.SCHEMA_VERSION + 1
        )
        # The stale entry reads as a miss and is orphaned.
        assert store.load(key) is None
        assert store.stats().entries == 0

    def test_result_store_round_trip(self, store):
        runner = Runner()
        config = RunConfig(benchmark="GC-citation", scheme="spawn")
        result = runner.run(config)
        key = store.key_for(config, runner.config, runner.max_events)
        store.save(key, result)
        loaded = store.load(key)
        assert loaded is not None
        assert loaded.summary() == result.summary()
        assert loaded.makespan == result.makespan
        # Record for record: a decoder that swapped two columns would
        # still reproduce summary() and the makespan.
        assert loaded.stats.kernels == result.stats.kernels
        assert loaded.stats.trace == result.stats.trace
        assert loaded.stats.launch_times == result.stats.launch_times
        assert (
            loaded.stats.child_cta_exec_times
            == result.stats.child_cta_exec_times
        )
        assert loaded.stats.smx_occupancy == result.stats.smx_occupancy

    @pytest.mark.parametrize(
        "damage", ["unequal_lengths", "missing_column", "stats_not_a_dict"]
    )
    def test_damaged_stats_payload_loads_as_a_miss(self, store, damage):
        runner = Runner()
        config = RunConfig(benchmark="GC-citation", scheme="spawn")
        key = store.key_for(config, runner.config, runner.max_events)
        store.save(key, runner.run(config))
        entry = read_raw(store, key)
        columns = entry["result"]["stats"]["kernels"]
        if damage == "unequal_lengths":
            columns["completion_time"].pop()
        elif damage == "missing_column":
            del columns["arrival_time"]
        else:
            entry["result"]["stats"] = []
        write_raw(store, key, json.dumps(entry))
        assert store.load(key) is None
        assert not store.contains(key)
