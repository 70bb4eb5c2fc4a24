"""Pluggable storage backends for the content-addressed result cache.

The :class:`~repro.harness.store.ResultStore` façade owns *semantics* —
keying, schema versioning, :class:`~repro.sim.engine.SimResult`
serialization, metrics — while a :class:`StoreBackend` owns *transport*:
how an opaque key maps to a durable JSON payload.  Two implementations
ship:

* :class:`~repro.harness.backends.directory.DirectoryBackend` — the
  default two-level-fanout directory of JSON files (``dir://path``).
* :class:`~repro.harness.backends.sqlite.SQLiteBackend` — a single
  SQLite file in WAL mode, safe for concurrent readers/writers across
  processes (``sqlite://path``).

:func:`open_backend` parses store URLs into backend instances; the
higher-level :func:`repro.harness.store.open_store` wraps the result in
a :class:`~repro.harness.store.ResultStore`.
"""

from repro.harness.backends.base import StoreBackend, StoreStats, open_backend
from repro.harness.backends.directory import DirectoryBackend
from repro.harness.backends.sqlite import SQLiteBackend

__all__ = [
    "StoreBackend",
    "StoreStats",
    "open_backend",
    "DirectoryBackend",
    "SQLiteBackend",
]
