"""The storage-backend protocol and the ``open_backend`` URL factory.

A backend is a durable mapping from opaque string keys to JSON-object
payloads.  It knows nothing about simulation results, cache schemas, or
metrics — those live one level up, in
:class:`~repro.harness.store.ResultStore` — which is exactly what lets
one store façade run against a directory tree or a SQLite file
interchangeably.

Contract every implementation must honour (pinned by the parametrized
suite in ``tests/test_backends.py``):

* ``load`` returns the saved payload dict or ``None``; an unreadable or
  corrupt entry is **orphaned** (deleted, best effort) and reported as a
  miss, never surfaced as garbage.
* ``save`` is atomic with respect to concurrent readers (no torn
  payloads) and last-writer-wins for concurrent writers of the same key.
* ``save`` rejects non-finite floats (``ValueError``) — the strict-JSON
  contract: NaN/Infinity must be tagged by the stats encoder upstream,
  never smuggled into storage as invalid JSON literals.
* Infrastructure failures surface as ``OSError`` (SQLite errors are
  translated), so the runner's store-IO fault tolerance applies
  uniformly to every backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

#: URL scheme names recognized by :func:`open_backend`.
DIR_SCHEME = "dir"
SQLITE_SCHEME = "sqlite"


@dataclass(frozen=True)
class StoreStats:
    """Snapshot of a backend's contents, for ``repro cache stats``.

    ``root`` is the backend's location string (directory path or
    database file); ``repro cache stats`` prints it under that name.
    """

    root: str
    entries: int
    total_bytes: int


@runtime_checkable
class StoreBackend(Protocol):
    """Durable opaque-key -> JSON-payload mapping (see module docstring).

    ``name`` is the short backend identifier used as the ``backend=``
    metric label (``dir`` / ``sqlite``); ``location`` is the
    human-readable address the backend talks to.
    """

    name: str
    location: str

    def load(self, key: str) -> Optional[dict]:
        """The payload stored under ``key``, or None (miss / corrupt)."""
        ...

    def save(self, key: str, payload: dict) -> None:
        """Durably store ``payload`` under ``key`` (atomic, last wins)."""
        ...

    def contains(self, key: str) -> bool:
        """Whether an entry exists under ``key`` (no payload validation)."""
        ...

    def delete(self, key: str) -> None:
        """Remove the entry under ``key`` if present (idempotent)."""
        ...

    def stats(self) -> StoreStats:
        """Entry count and payload byte total."""
        ...

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        ...

    def close(self) -> None:
        """Release connections/handles (idempotent; optional to call)."""
        ...


def describe(backend: StoreBackend) -> str:
    """``scheme://location`` — the canonical URL spelling of a backend."""
    return f"{backend.name}://{backend.location}"


def open_backend(url) -> StoreBackend:
    """Build a backend from a store URL (or a bare directory path).

    Recognized forms::

        dir://path/to/cache      directory of JSON files
        sqlite://path/to/file.db single SQLite database (WAL)
        path/to/cache            bare path == dir://

    ``None`` resolves to the default directory cache
    (``$REPRO_CACHE_DIR`` or ``.repro-cache``).
    """
    # Imported here (not at module top) to keep base free of circular
    # imports — directory.py imports StoreStats from this module.
    from repro.harness.backends.directory import DirectoryBackend
    from repro.harness.backends.sqlite import SQLiteBackend

    if url is None:
        from repro.harness.store import default_cache_dir

        return DirectoryBackend(default_cache_dir())
    text = str(url)
    scheme, sep, rest = text.partition("://")
    if not sep:
        return DirectoryBackend(text)
    if scheme == DIR_SCHEME:
        return DirectoryBackend(rest)
    if scheme == SQLITE_SCHEME:
        return SQLiteBackend(rest)
    raise ValueError(
        f"unknown store URL scheme {scheme!r} in {text!r} "
        f"(choose from {DIR_SCHEME}, {SQLITE_SCHEME})"
    )

