"""Persistent, content-addressed result store over pluggable backends.

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
* **Pluggable transport.**  :class:`ResultStore` owns the semantics —
  keying, schema validation, :class:`~repro.sim.engine.SimResult`
  serialization, and metrics — and delegates durability to a
  :class:`~repro.harness.backends.StoreBackend`: the historical
  directory of JSON files (``dir://``), a WAL-mode SQLite file shards
  can share (``sqlite://``), or a network KV shim (``kv://``).  Open one
  from a URL with :func:`open_store`.
* **Corruption tolerance.**  An unreadable or schema-mismatched entry is
  treated as a miss and deleted; the run is simply redone.  Backends
  surface infrastructure failure uniformly as ``OSError``, which the
  runner tolerates (a broken cache never takes a simulation down).

Every backend reports under the same metric names —
``store.reads_total`` (hit/miss) and ``store.io_seconds`` (load/save
timings) — labeled with ``backend=dir|sqlite|kv``, because observation
happens here, above the protocol, not inside any one implementation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Optional

from repro.harness.backends.base import (
    StoreBackend,
    StoreStats,
    describe,
    open_backend,
)
from repro.harness.backends.directory import DirectoryBackend
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


def default_cache_dir() -> Path:
    """Resolve the cache root: ``$REPRO_CACHE_DIR`` or ``.repro-cache``."""
    return Path(os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR)


def open_store(url=None) -> "ResultStore":
    """Open a :class:`ResultStore` from a store URL (or bare path).

    The one-stop constructor the CLI and API route through::

        open_store()                      default directory cache
        open_store("dir://.repro-cache")  directory of JSON files
        open_store("sqlite://cache.db")   shared WAL-mode SQLite file
        open_store("kv://127.0.0.1:7077") network KV shim client
        open_store("/some/path")          bare path == dir://

    """
    return ResultStore(backend=open_backend(url))


class ResultStore:
    """Content-addressed cache of :class:`SimResult` payloads.

    Construct with ``backend=`` (or via :func:`open_store`); without one
    it opens the default cache directory.
    """

    def __init__(self, *, backend: Optional[StoreBackend] = None):
        self.backend = (
            backend if backend is not None
            else DirectoryBackend(default_cache_dir())
        )

    @property
    def root(self) -> Path:
        """The backend's location as a path (kept for compatibility).

        Meaningful for directory and SQLite backends; for ``kv://`` it
        is the ``host:port`` string wrapped in a Path.  Prefer
        :attr:`url` for display.
        """
        return Path(self.backend.location)

    @property
    def url(self) -> str:
        """Canonical ``scheme://location`` spelling of the backend."""
        return describe(self.backend)

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

    def _path(self, key: str) -> Path:
        """Directory-backend entry path (compatibility helper)."""
        return self.backend.path_for(key)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Load / save
    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[SimResult]:
        """The stored result for ``key``, or None (miss / corrupt entry)."""
        result = self._load(key)
        METRICS.counter(
            "store.reads_total",
            backend=self.backend.name,
            outcome="hit" if result is not None else "miss",
        ).inc()
        return result

    def _load(self, key: str) -> Optional[SimResult]:
        started = time.perf_counter()
        payload = self.backend.load(key)
        if payload is None:
            return None
        # Only successful reads are timed: a cold miss fails fast and
        # would drown the histogram in not-found noise.
        self._observe_io("load", started)
        if payload.get("schema") != SCHEMA_VERSION:
            self.backend.delete(key)
            return None
        try:
            return SimResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            self.backend.delete(key)
            return None

    def save(self, key: str, result: SimResult) -> Optional[Path]:
        """Durably persist ``result`` under ``key`` (atomic, last wins).

        Returns the entry's on-disk path when the backend is file-per-key
        (the historical return value); backends without per-entry paths
        return None.
        """
        payload = {"schema": SCHEMA_VERSION, "result": result.to_dict()}
        started = time.perf_counter()
        self.backend.save(key, payload)
        self._observe_io("save", started)
        path_for = getattr(self.backend, "path_for", None)
        return path_for(key) if path_for is not None else None

    def _observe_io(self, op: str, started: float) -> None:
        METRICS.histogram(
            "store.io_seconds",
            buckets=DEFAULT_IO_BUCKETS,
            backend=self.backend.name,
            op=op,
        ).observe(max(time.perf_counter() - started, 0.0))

    def contains(self, key: str) -> bool:
        return self.backend.contains(key)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def stats(self) -> StoreStats:
        return self.backend.stats()

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        return self.backend.clear()

    def close(self) -> None:
        self.backend.close()


__all__ = [
    "SCHEMA_VERSION",
    "ENV_CACHE_DIR",
    "DEFAULT_CACHE_DIR",
    "default_cache_dir",
    "open_store",
    "ResultStore",
    "StoreBackend",
    "StoreStats",
]
