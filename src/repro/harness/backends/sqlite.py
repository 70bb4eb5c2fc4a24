"""Single-file SQLite backend (``sqlite://``) in WAL mode.

WAL journaling lets many processes read while one writes (readers never
block writers and vice versa), so several services or suites can share
one cache file and reuse each other's results.  One table::

    entries(key TEXT PRIMARY KEY, payload TEXT NOT NULL)

Payloads are canonical JSON text; a row whose text no longer parses is
orphaned on read, mirroring the directory backend's corruption handling.

Connections are per-thread (``sqlite3`` connections must not hop
threads; the service dispatches store IO from executor threads), created
lazily and tracked so :meth:`close` can release them all.  Every
``sqlite3.Error`` is translated to ``OSError`` so the runner's store-IO
fault tolerance — and the chaos suite's expectations — apply unchanged.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from pathlib import Path
from typing import Optional

from repro.harness.backends.base import SQLITE_SCHEME, StoreStats

#: How long a writer waits on a locked database before failing (seconds).
#: WAL makes contention rare; the timeout covers checkpoint collisions.
BUSY_TIMEOUT_S = 10.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    key TEXT PRIMARY KEY,
    payload TEXT NOT NULL
)
"""


class SQLiteBackend:
    """Opaque-key JSON storage in one WAL-mode SQLite file."""

    name = SQLITE_SCHEME

    def __init__(self, path: os.PathLike):
        self.path = Path(path)
        self._local = threading.local()
        self._connections = []
        self._connections_lock = threading.Lock()
        self._closed = False
        # Create the file and schema eagerly: misconfiguration (an
        # unwritable path) should fail at the door, not mid-suite.
        self._connection()

    @property
    def location(self) -> str:
        return str(self.path)

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _connection(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn
        if self._closed:
            raise OSError(f"sqlite store {self.path} is closed")
        try:
            if self.path.parent != Path(""):
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
        except sqlite3.Error as exc:
            raise OSError(f"cannot open sqlite store {self.path}: {exc}") from exc
        self._local.conn = conn
        with self._connections_lock:
            self._connections.append(conn)
        return conn

    def close(self) -> None:
        self._closed = True
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for conn in connections:
            try:
                conn.close()
            except sqlite3.Error:
                pass
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Mapping operations
    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[dict]:
        try:
            row = self._connection().execute(
                "SELECT payload FROM entries WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.Error as exc:
            raise OSError(f"sqlite load failed: {exc}") from exc
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
        except (TypeError, json.JSONDecodeError):
            self.delete(key)
            return None
        if not isinstance(payload, dict):
            self.delete(key)
            return None
        return payload

    def save(self, key: str, payload: dict) -> None:
        # Serialize (and enforce strict JSON) before opening a write
        # transaction: a ValueError must leave the database untouched.
        text = json.dumps(payload, allow_nan=False)
        try:
            self._connection().execute(
                "INSERT INTO entries(key, payload) VALUES(?, ?) "
                "ON CONFLICT(key) DO UPDATE SET payload = excluded.payload",
                (key, text),
            )
        except sqlite3.Error as exc:
            raise OSError(f"sqlite save failed: {exc}") from exc

    def contains(self, key: str) -> bool:
        try:
            row = self._connection().execute(
                "SELECT 1 FROM entries WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.Error as exc:
            raise OSError(f"sqlite contains failed: {exc}") from exc
        return row is not None

    def delete(self, key: str) -> None:
        try:
            self._connection().execute(
                "DELETE FROM entries WHERE key = ?", (key,)
            )
        except sqlite3.Error:
            # Deletion is best-effort orphaning, like the directory
            # backend's unlink: a locked database just leaves the entry
            # for the next reader to retry.
            pass

    def stats(self) -> StoreStats:
        try:
            row = self._connection().execute(
                "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) "
                "FROM entries"
            ).fetchone()
        except sqlite3.Error as exc:
            raise OSError(f"sqlite stats failed: {exc}") from exc
        return StoreStats(
            root=str(self.path), entries=row[0], total_bytes=row[1]
        )

    def clear(self) -> int:
        try:
            cursor = self._connection().execute("DELETE FROM entries")
        except sqlite3.Error as exc:
            raise OSError(f"sqlite clear failed: {exc}") from exc
        return cursor.rowcount
