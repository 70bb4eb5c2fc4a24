"""Versioned golden-trace regression corpus.

Where the old golden tests pin 58 *summary scalars*, this corpus pins the
**full event stream** of a benchmark x scheme matrix: every kernel arrival,
CTA dispatch/finish, HWQ bind/release, and launch decision, in order.  An
optimization that reorders dispatch without moving the makespan — exactly
the class of bug summary goldens cannot see — diverges here on the first
reordered event, and :func:`diff_traces` names it.

Storage format (``tests/golden/<benchmark>__<scheme>.jsonl.gz``): gzip'd
JSONL; line 1 is a metadata header (``golden_version``, benchmark, scheme,
seed, event count, makespan), every further line is one canonical event —
``json.dumps(..., sort_keys=True)`` of ``{"ts", "kind", **args}``.

Refreshing after an intentional behaviour change: ``repro check
--update-golden`` (see DESIGN §10 for the policy: a golden update must be
reviewed as a semantic change, never rubber-stamped).
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import HarnessError
from repro.obs.tracer import TraceEvent

#: Bump when the canonical event schema changes incompatibly.
GOLDEN_VERSION = 1

#: The pinned benchmark x scheme matrix.  Chosen to cover every decision
#: verdict (launch / serial / coalesce via dtbl), flat and DP apps, HWQ
#: contention, and grid suspension, while staying fast enough for CI
#: (each pair simulates in well under 2 s).
GOLDEN_MATRIX: Tuple[Tuple[str, str], ...] = (
    ("BFS-citation", "flat"),
    ("BFS-citation", "baseline-dp"),
    ("BFS-citation", "spawn"),
    ("BFS-citation", "dtbl"),
    ("GC-citation", "baseline-dp"),
    ("GC-citation", "spawn"),
    ("MM-small", "spawn"),
    ("Mandel", "spawn"),
    ("BFS-graph500", "spawn"),
    ("SSSP-citation", "dtbl"),
    # Scheme zoo (consolidate / aggregate / acs), three benchmarks each:
    # pins merged-kernel construction, flush ordering, and ACS binding.
    ("BFS-citation", "consolidate"),
    ("GC-citation", "consolidate"),
    ("SSSP-citation", "consolidate"),
    ("BFS-citation", "aggregate:block"),
    ("GC-citation", "aggregate:block"),
    ("SSSP-citation", "aggregate:block"),
    ("BFS-citation", "acs"),
    ("GC-citation", "acs"),
    ("SSSP-citation", "acs"),
)

#: Seed pinned for every golden run (RunConfig's default).
GOLDEN_SEED = 1


def canonical_events(events: Iterable[TraceEvent]) -> List[Dict[str, object]]:
    """Flat-dict form of an event stream, ready for JSON comparison.

    Round-trips through JSON so in-memory streams compare equal to
    reloaded golden streams (tuples become lists, int-valued floats keep
    their type, etc.).
    """
    return [
        json.loads(json.dumps(e.to_dict(), sort_keys=True)) for e in events
    ]


def golden_path(directory, benchmark: str, scheme: str) -> Path:
    """File path for one matrix cell (scheme ':' sanitized for filesystems)."""
    safe_scheme = scheme.replace(":", "-")
    return Path(directory) / f"{benchmark}__{safe_scheme}.jsonl.gz"


def default_golden_dir() -> Path:
    """The in-repo corpus location (tests/golden/ next to the test suite)."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def write_golden(
    path,
    events: List[Dict[str, object]],
    *,
    benchmark: str,
    scheme: str,
    seed: int = GOLDEN_SEED,
    makespan: float = 0.0,
) -> None:
    """Write one golden trace file (header line + one line per event)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "golden_version": GOLDEN_VERSION,
        "benchmark": benchmark,
        "scheme": scheme,
        "seed": seed,
        "events": len(events),
        "makespan": makespan,
    }
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")


def load_golden(path) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Load (header, events) from a golden trace file."""
    path = Path(path)
    if not path.exists():
        raise HarnessError(
            f"golden trace {path} does not exist — generate it with "
            "'repro check --update-golden'"
        )
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise HarnessError(f"golden trace {path} is empty")
    header = json.loads(lines[0])
    version = header.get("golden_version")
    if version != GOLDEN_VERSION:
        raise HarnessError(
            f"golden trace {path} has version {version}, this code expects "
            f"{GOLDEN_VERSION} — regenerate with 'repro check --update-golden'"
        )
    events = [json.loads(line) for line in lines[1:]]
    if header.get("events") != len(events):
        raise HarnessError(
            f"golden trace {path} is truncated: header promises "
            f"{header.get('events')} events, file holds {len(events)}"
        )
    return header, events


@dataclass
class GoldenMismatch:
    """First divergence between an expected and an actual event stream."""

    index: int
    expected: Optional[Dict[str, object]]
    actual: Optional[Dict[str, object]]
    fields: Tuple[str, ...] = ()

    def __str__(self) -> str:
        if self.expected is None:
            return (
                f"first divergence at event #{self.index}: expected stream "
                f"ended, actual continues with {_describe(self.actual)}"
            )
        if self.actual is None:
            return (
                f"first divergence at event #{self.index}: actual stream "
                f"ended, expected continues with {_describe(self.expected)}"
            )
        parts = ", ".join(
            f"{f}: {self.expected.get(f)!r} != {self.actual.get(f)!r}"
            for f in self.fields
        )
        return (
            f"first divergence at event #{self.index} "
            f"({_describe(self.expected)} vs {_describe(self.actual)}): {parts}"
        )


def _describe(event: Optional[Dict[str, object]]) -> str:
    if event is None:
        return "<end of stream>"
    ts = event.get("ts")
    ts_text = f"{ts:.0f}" if isinstance(ts, float) else str(ts)
    return f"{event.get('kind')}@t={ts_text}"


def diff_traces(
    expected: List[Dict[str, object]], actual: List[Dict[str, object]]
) -> Optional[GoldenMismatch]:
    """First diverging event between two canonical streams, or None."""
    for index, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            fields = tuple(
                sorted(
                    key
                    for key in set(want) | set(got)
                    if want.get(key) != got.get(key)
                )
            )
            return GoldenMismatch(index, want, got, fields)
    if len(expected) != len(actual):
        index = min(len(expected), len(actual))
        return GoldenMismatch(
            index,
            expected[index] if index < len(expected) else None,
            actual[index] if index < len(actual) else None,
        )
    return None


def record_trace(benchmark: str, scheme: str, *, check: bool = True):
    """Simulate one matrix cell with a ConformanceChecker attached.

    Returns ``(checker, result)`` — the checker holds the retained event
    stream (golden source) and any invariant violations.  Import-local to
    keep :mod:`repro.check.golden` free of heavyweight harness imports for
    consumers that only diff traces.
    """
    from repro.check.invariants import ConformanceChecker
    from repro.harness.runner import RunConfig, Runner
    from repro.sim.config import GPUConfig

    config = GPUConfig()
    checker = ConformanceChecker(config, scheme=scheme)
    runner = Runner(config)
    result = runner.run(
        RunConfig(benchmark=benchmark, scheme=scheme, seed=GOLDEN_SEED),
        tracer=checker,
    )
    if check:
        checker.finalize(result)
    return checker, result
