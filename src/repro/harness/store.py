"""Persistent, content-addressed result store in one SQLite file.

The in-process :class:`~repro.harness.runner.Runner` cache dies with the
interpreter, so every CLI invocation and CI job used to re-simulate runs
it had already done.  This module gives results a durable home:

* **Content-addressed keys.**  An entry's key is the SHA-256 of a
  canonical JSON document covering *everything that determines the
  result*: the cache schema version, every :class:`RunConfig` field
  (including ``trace_interval``), the full
  :class:`~repro.sim.config.GPUConfig` (nested dataclasses and all), and
  the event budget.  Change any input and the key changes; bump
  :data:`SCHEMA_VERSION` and every old entry becomes unreachable (stale
  entries are never *read wrong*, only orphaned).
* **One WAL-mode SQLite file.**  Entries are rows of one table::

      entries(key TEXT PRIMARY KEY, payload TEXT NOT NULL)

  WAL journaling lets many processes read while one writes, so several
  suites or services can share one file and reuse each other's results.
  Connections are per thread (``sqlite3`` connections must not hop
  threads; the service does store IO from executor threads) and are
  opened on first use, so opening a store creates nothing, and neither
  do :meth:`ResultStore.stats` and :meth:`ResultStore.clear` on a file
  that does not exist.  Open one with :func:`open_store`.
* **Three rules** (DESIGN §14).  Every ``sqlite3.Error`` is raised as
  ``OSError``, which the runner tolerates (a broken cache never takes a
  simulation down).  A corrupt, stale or damaged entry is deleted on
  read and reported as a miss; the run is simply redone.  A payload is
  serialized with ``allow_nan=False`` before the write, so a non-finite
  float raises ``ValueError`` and leaves the database untouched.

The store reports ``store.reads_total`` (``outcome=hit|miss``) and
``store.io_seconds`` (``op=load|save``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Iterator, Optional

from repro.errors import HarnessError
from repro.obs.metrics import DEFAULT_IO_BUCKETS, METRICS
from repro.sim.config import GPUConfig
from repro.sim.engine import SimResult

#: Bump whenever the serialized payload or the simulation semantics change
#: in a way that invalidates stored results.  The version participates in
#: the hashed key, so a bump orphans (rather than misreads) old entries.
#: v2: the run portion of the key document is RunConfig.key() verbatim.
#: v3: RunConfig grew an ``engine`` field.
#: v4: the scheme zoo (consolidate / aggregate:<g> / acs) changed launch
#: accounting (merged kernels, new SimStats counters), so pre-zoo stored
#: payloads must not be served to post-zoo readers.
#: v5: RunConfig lost the ``engine`` field (there is one simulation core).
#: v6: SimStats payloads store ``kernels`` and ``trace`` as columns (one
#: list per record field) instead of one dict/list per record.
SCHEMA_VERSION = 6

#: Environment variable overriding the default cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Default on-disk location, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: The database file :func:`open_store` opens inside the cache directory.
DEFAULT_DB_NAME = "results.db"

#: How long a writer waits on a locked database before failing (seconds).
#: WAL makes contention rare; the timeout covers checkpoint collisions.
BUSY_TIMEOUT_S = 10.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    key TEXT PRIMARY KEY,
    payload TEXT NOT NULL
)
"""


def default_cache_dir() -> Path:
    """Resolve the cache directory: ``$REPRO_CACHE_DIR`` or ``.repro-cache``."""
    return Path(os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR)


def open_store(url=None) -> "ResultStore":
    """Open the :class:`ResultStore` a ``--store`` value names::

        open_store()                      results.db in the cache directory
        open_store("sqlite://cache.db")   the database file cache.db
        open_store("cache.db")            the same file

    Any other ``scheme://`` and an existing directory raise
    :class:`~repro.errors.HarnessError`.
    """
    if url is None:
        return ResultStore(default_cache_dir() / DEFAULT_DB_NAME)
    text = str(url)
    path = text.removeprefix("sqlite://")
    if "://" in path:
        raise HarnessError(
            f"unknown store URL scheme in {text!r}: the store is one "
            "SQLite file, sqlite://PATH or PATH"
        )
    if Path(path).is_dir():
        raise HarnessError(
            f"store path {path!r} is a directory; name a database file, "
            f"e.g. {Path(path) / DEFAULT_DB_NAME}"
        )
    return ResultStore(path)


@dataclasses.dataclass(frozen=True)
class StoreStats:
    """Snapshot of a store's contents, for ``repro cache stats``.

    ``root`` is the database file.
    """

    root: str
    entries: int
    total_bytes: int


class ResultStore:
    """Content-addressed cache of :class:`SimResult` payloads.

    ``path`` is the database file (see :func:`open_store`).
    """

    def __init__(self, path: os.PathLike):
        self.path = Path(path)
        self._local = threading.local()
        self._connections = []
        self._lock = threading.Lock()
        self._closed = False

    @property
    def url(self) -> str:
        """The ``sqlite://PATH`` spelling of the store."""
        return f"sqlite://{self.path}"

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    @staticmethod
    def key_for(run_config, gpu_config: GPUConfig, max_events: int) -> str:
        """SHA-256 hex key covering every input that shapes the result.

        The run portion is :meth:`RunConfig.key` verbatim, so the runner's
        memory-cache identity is the single source of truth: a new
        ``RunConfig`` field added to ``key()`` automatically changes the
        disk key too, instead of silently missing from a second field
        enumeration here.
        """
        document = {
            "schema": SCHEMA_VERSION,
            "run": list(run_config.key()),
            "gpu": dataclasses.asdict(gpu_config),
            "max_events": max_events,
        }
        canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def _connection(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn
        with self._lock:
            if self._closed:
                raise OSError(f"sqlite store {self.path} is closed")
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                str(self.path), timeout=BUSY_TIMEOUT_S, isolation_level=None
            )
            # WAL survives in the file itself; setting it on every
            # connection is idempotent.  synchronous=NORMAL is the
            # documented WAL pairing: durable at checkpoint, fast per
            # commit — this is a cache, re-simulation is the recovery.
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(_SCHEMA)
            self._connections.append(conn)
        self._local.conn = conn
        return conn

    @contextlib.contextmanager
    def _database(self) -> Iterator[sqlite3.Connection]:
        """This thread's connection, with ``sqlite3.Error`` as ``OSError``."""
        try:
            yield self._connection()
        except sqlite3.Error as exc:
            raise OSError(f"sqlite store {self.path}: {exc}") from exc

    def close(self) -> None:
        """Close every connection; the store cannot be used afterwards."""
        with self._lock:
            self._closed = True
            connections, self._connections = self._connections, []
        for conn in connections:
            try:
                conn.close()
            except sqlite3.Error:
                pass
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Load / save
    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[SimResult]:
        """The stored result for ``key``, or None (miss / corrupt entry)."""
        result = self._load(key)
        METRICS.counter(
            "store.reads_total",
            outcome="hit" if result is not None else "miss",
        ).inc()
        return result

    def _load(self, key: str) -> Optional[SimResult]:
        started = time.perf_counter()
        with self._database() as db:
            row = db.execute(
                "SELECT payload FROM entries WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
        except (TypeError, ValueError):
            payload = None
        if isinstance(payload, dict):
            # Only entries that parse are timed: a cold miss fails fast
            # and would drown the histogram in not-found noise.
            self._observe_io("load", started)
            if payload.get("schema") == SCHEMA_VERSION:
                try:
                    return SimResult.from_dict(payload["result"])
                except (KeyError, TypeError, ValueError):
                    pass
        self.delete(key)
        return None

    def save(self, key: str, result: SimResult) -> None:
        """Durably persist ``result`` under ``key`` (atomic, last wins)."""
        payload = {"schema": SCHEMA_VERSION, "result": result.to_dict()}
        started = time.perf_counter()
        # Serialize, strict JSON, before the write: a ValueError must
        # leave the database untouched.
        text = json.dumps(payload, allow_nan=False)
        with self._database() as db:
            db.execute(
                "INSERT INTO entries(key, payload) VALUES(?, ?) "
                "ON CONFLICT(key) DO UPDATE SET payload = excluded.payload",
                (key, text),
            )
        self._observe_io("save", started)

    def _observe_io(self, op: str, started: float) -> None:
        METRICS.histogram(
            "store.io_seconds", buckets=DEFAULT_IO_BUCKETS, op=op
        ).observe(max(time.perf_counter() - started, 0.0))

    def contains(self, key: str) -> bool:
        """Whether an entry exists under ``key`` (no payload validation)."""
        with self._database() as db:
            row = db.execute(
                "SELECT 1 FROM entries WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def delete(self, key: str) -> None:
        """Remove the entry under ``key`` if present (idempotent)."""
        try:
            with self._database() as db:
                db.execute("DELETE FROM entries WHERE key = ?", (key,))
        except OSError:
            # Orphaning is best effort: a locked database just leaves the
            # entry for the next reader to retry.
            pass

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def stats(self) -> StoreStats:
        if not self.path.exists():
            return StoreStats(root=str(self.path), entries=0, total_bytes=0)
        with self._database() as db:
            entries, total = db.execute(
                "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) "
                "FROM entries"
            ).fetchone()
        return StoreStats(root=str(self.path), entries=entries, total_bytes=total)

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        if not self.path.exists():
            return 0
        with self._database() as db:
            return db.execute("DELETE FROM entries").rowcount


__all__ = [
    "SCHEMA_VERSION",
    "ENV_CACHE_DIR",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_DB_NAME",
    "default_cache_dir",
    "open_store",
    "ResultStore",
    "StoreStats",
]
