"""Backend contract suite: every StoreBackend obeys the same rules.

One parametrized fixture yields a directory backend and a WAL-mode
SQLite backend; every contract test runs against both.  The contract
under test is the one
:class:`~repro.harness.store.ResultStore` (and through it the runner and
the service) relies on: raw-dict round trips, corrupt entries
orphaned on read, strict JSON (NaN rejected with ``ValueError`` before
anything is written), concurrent writers, and schema-version bumps
invalidating stale entries end to end.
"""

import sqlite3
import threading

import pytest

from repro.harness import store as store_mod
from repro.harness.backends import (
    DirectoryBackend,
    SQLiteBackend,
    StoreBackend,
    open_backend,
)
from repro.harness.backends.base import describe
from repro.harness.runner import RunConfig, Runner
from repro.harness.store import ResultStore

KEY = "ab" * 32
OTHER = "cd" * 32


class BackendCase:
    """A live backend plus backend-specific corruption/teardown hooks."""

    def __init__(self, backend, corrupt, cleanup):
        self.backend = backend
        self.corrupt = corrupt
        self.cleanup = cleanup


def _dir_case(tmp_path):
    backend = DirectoryBackend(tmp_path / "cache")

    def corrupt(key):
        backend.path_for(key).write_text("{ not json", encoding="utf-8")

    return BackendCase(backend, corrupt, backend.close)


def _sqlite_case(tmp_path):
    backend = SQLiteBackend(tmp_path / "cache.db")

    def corrupt(key):
        # An independent connection, like another process scribbling.
        with sqlite3.connect(backend.location) as conn:
            conn.execute(
                "UPDATE entries SET payload = '{ not json' WHERE key = ?",
                (key,),
            )

    return BackendCase(backend, corrupt, backend.close)


@pytest.fixture(params=["dir", "sqlite"])
def case(request, tmp_path):
    make_case = {"dir": _dir_case, "sqlite": _sqlite_case}
    built = make_case[request.param](tmp_path)
    yield built
    built.cleanup()


class TestContract:
    def test_round_trip(self, case):
        backend = case.backend
        assert isinstance(backend, StoreBackend)
        payload = {"schema": 3, "result": {"makespan": 1.5, "tags": ["a"]}}
        assert backend.load(KEY) is None
        assert not backend.contains(KEY)
        backend.save(KEY, payload)
        assert backend.contains(KEY)
        assert backend.load(KEY) == payload
        stats = backend.stats()
        assert stats.entries == 1
        assert stats.total_bytes > 0

    def test_save_overwrites_last_wins(self, case):
        case.backend.save(KEY, {"v": 1})
        case.backend.save(KEY, {"v": 2})
        assert case.backend.load(KEY) == {"v": 2}
        assert case.backend.stats().entries == 1

    def test_corrupt_entry_is_orphaned(self, case):
        case.backend.save(KEY, {"v": 1})
        case.corrupt(KEY)
        assert case.backend.load(KEY) is None
        # The read deleted the broken entry, not just skipped it.
        assert case.backend.stats().entries == 0

    def test_nan_rejected_before_write(self, case):
        with pytest.raises(ValueError):
            case.backend.save(KEY, {"makespan": float("nan")})
        assert not case.backend.contains(KEY)
        assert case.backend.stats().entries == 0

    def test_delete_and_clear(self, case):
        case.backend.save(KEY, {"v": 1})
        case.backend.save(OTHER, {"v": 2})
        case.backend.delete(KEY)
        case.backend.delete(KEY)  # deleting a missing key is a no-op
        assert case.backend.load(KEY) is None
        assert case.backend.stats().entries == 1
        assert case.backend.clear() == 1
        assert case.backend.stats().entries == 0

    def test_concurrent_writers_all_land(self, case):
        keys = [f"{i:02x}" * 32 for i in range(16)]
        errors = []

        def write(key, value):
            try:
                case.backend.save(key, {"value": value})
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
        assert case.backend.stats().entries == len(keys) + 1
        for i, key in enumerate(keys):
            assert case.backend.load(key) == {"value": i}
        assert case.backend.load(KEY)["value"] in range(100, 104)

    def test_schema_bump_invalidates_through_the_wrapper(
        self, case, monkeypatch
    ):
        store = ResultStore(backend=case.backend)
        runner = Runner()
        config = RunConfig(benchmark="GC-citation", scheme="spawn")
        key = store.key_for(config, runner.config, runner.max_events)
        store.save(key, runner.run(config))
        assert store.load(key) is not None
        monkeypatch.setattr(
            store_mod, "SCHEMA_VERSION", store_mod.SCHEMA_VERSION + 1
        )
        # The stale entry reads as a miss and is orphaned on any backend.
        assert store.load(key) is None
        assert case.backend.stats().entries == 0

    def test_result_store_round_trip(self, case):
        store = ResultStore(backend=case.backend)
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
    def test_damaged_stats_payload_loads_as_a_miss(self, case, damage):
        store = ResultStore(backend=case.backend)
        runner = Runner()
        config = RunConfig(benchmark="GC-citation", scheme="spawn")
        key = store.key_for(config, runner.config, runner.max_events)
        store.save(key, runner.run(config))
        entry = case.backend.load(key)
        columns = entry["result"]["stats"]["kernels"]
        if damage == "unequal_lengths":
            columns["completion_time"].pop()
        elif damage == "missing_column":
            del columns["arrival_time"]
        else:
            entry["result"]["stats"] = []
        case.backend.save(key, entry)
        assert store.load(key) is None
        assert not case.backend.contains(key)


class TestOpenBackend:
    def test_bare_path_is_directory(self, tmp_path):
        backend = open_backend(tmp_path / "cache")
        assert isinstance(backend, DirectoryBackend)
        assert describe(backend) == f"dir://{tmp_path / 'cache'}"

    def test_dir_url(self, tmp_path):
        backend = open_backend(f"dir://{tmp_path}/cache")
        assert isinstance(backend, DirectoryBackend)

    def test_sqlite_url(self, tmp_path):
        backend = open_backend(f"sqlite://{tmp_path}/cache.db")
        try:
            assert isinstance(backend, SQLiteBackend)
            assert describe(backend) == f"sqlite://{tmp_path}/cache.db"
        finally:
            backend.close()

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            open_backend("redis://localhost:6379")

    def test_default_is_directory_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(store_mod.ENV_CACHE_DIR, str(tmp_path / "dflt"))
        backend = open_backend(None)
        assert isinstance(backend, DirectoryBackend)
        assert str(tmp_path / "dflt") in describe(backend)


class TestDeprecatedSpellings:
    def test_root_and_backend_together_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            ResultStore(tmp_path, backend=DirectoryBackend(tmp_path))

    def test_no_arg_store_does_not_warn(self, recwarn, monkeypatch, tmp_path):
        monkeypatch.setenv(store_mod.ENV_CACHE_DIR, str(tmp_path))
        ResultStore()
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]
