"""Simulator wall-clock benchmark (``repro bench``).

Times a fixed run-set — the slowest benchmark/scheme pairs in the suite,
where event-loop overhead dominates — and compares against reference
timings recorded on the pre-optimization engine (same host class, warm
workload generation, best-of-3).  Two things are checked:

* **Speed**: per-pair speedup vs. the reference engine.  The optimization
  work targets >= 1.3x on the slowest pairs.
* **Fidelity**: the makespan of every pair must equal the reference
  makespan *bit-for-bit* — the engine optimizations are required to be
  pure reorderings of arithmetic-identical work, never approximations.

Results are written as ``BENCH_<YYYYMMDD>.json`` so CI can archive a
timing history alongside the repo.

Methodology notes: each timed run constructs a fresh memory-only
:class:`Runner` (no cache can hit), and every benchmark's synthetic input
is generated *before* timing starts — input generation is ``lru_cache``-d
per process and would otherwise be billed to whichever pair runs first.
That warm-up is timed on its own and reported as ``inputs_s`` (ungated;
near zero when this process already generated the inputs).
"""

from __future__ import annotations

import datetime
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.runner import RunConfig, Runner
from repro.workloads.base import get_benchmark

#: The timed pairs: the suite's slowest simulations plus one fast control,
#: and the scheme-zoo pairs (merge-buffer flushing and ACS binding put
#: different pressure on the event loop than plain DP launches).
BENCH_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("SA-thaliana", "spawn"),
    ("SA-thaliana", "baseline-dp"),
    ("GC-graph500", "baseline-dp"),
    ("JOIN-uniform", "spawn"),
    ("BFS-graph500", "spawn"),
    ("SSSP-citation", "consolidate"),
    ("SSSP-citation", "aggregate:block"),
    ("SSSP-citation", "acs"),
)

#: Pre-optimization engine timings (seconds, best of 3, warm inputs) and
#: the makespans those runs produced.  Seconds are a point of reference,
#: not a contract — they shift with the host.  Makespans ARE a contract.
REFERENCE: Dict[str, Dict[str, float]] = {
    "SA-thaliana/spawn": {"seconds": 2.6117, "makespan": 160831.29795496378},
    "SA-thaliana/baseline-dp": {"seconds": 2.7059, "makespan": 212893.52118260306},
    "GC-graph500/baseline-dp": {"seconds": 1.7078, "makespan": 1430960.9621359222},
    "JOIN-uniform/spawn": {"seconds": 1.7569, "makespan": 208378.7464706742},
    "BFS-graph500/spawn": {"seconds": 0.177, "makespan": 196628.69311875236},
    # Scheme-zoo pairs, recorded when the schemes were introduced.
    "SSSP-citation/consolidate": {
        "seconds": 0.5538, "makespan": 209957.2411666201,
    },
    "SSSP-citation/aggregate:block": {
        "seconds": 0.4943, "makespan": 213973.54846833518,
    },
    "SSSP-citation/acs": {"seconds": 0.5155, "makespan": 493845.2103887623},
}


def _warm_inputs(pairs: Sequence[Tuple[str, str]], seed: int) -> None:
    """Generate every pair's synthetic input before any clock starts."""
    for name, _scheme in pairs:
        benchmark = get_benchmark(name)
        benchmark.flat(seed)
        benchmark.dp(seed)


def _timed_run(name: str, scheme: str, seed: int, store=None):
    """One cold run; returns (wall seconds, makespan).

    ``store`` (a :class:`~repro.harness.store.ResultStore`) persists the
    result *after* the clock stops: timing stays cold — a cache hit
    would measure nothing — but benched simulations are full-fidelity
    runs other commands can reuse, so write-through warming is free.
    """
    runner = Runner()  # fresh: no memory cache, no disk store
    config = RunConfig(benchmark=name, scheme=scheme, seed=seed)
    start = time.perf_counter()
    result = runner.run(config)
    elapsed = time.perf_counter() - start
    if store is not None:
        try:
            store.save(
                store.key_for(config, runner.config, runner.max_events),
                result,
            )
        except OSError:
            pass  # the store is an optimization, never a bench failure
    return elapsed, result.makespan


def run_bench(
    *,
    pairs: Sequence[Tuple[str, str]] = BENCH_PAIRS,
    repeat: int = 3,
    seed: int = 1,
    store=None,
) -> Dict:
    """Time the fixed run-set; returns the (JSON-ready) report dict.

    The ``speedup`` column reads against the :data:`REFERENCE` seconds,
    measured before the simulator's hot paths were optimized.
    """
    start = time.perf_counter()
    _warm_inputs(pairs, seed)
    inputs_s = time.perf_counter() - start
    rows: List[Dict] = []
    for name, scheme in pairs:
        pair = f"{name}/{scheme}"
        best = float("inf")
        makespan = None
        for _ in range(max(repeat, 1)):
            elapsed, makespan = _timed_run(name, scheme, seed, store)
            if elapsed < best:
                best = elapsed
        row = {
            "pair": pair,
            "seconds": round(best, 4),
            "makespan": makespan,
        }
        reference = REFERENCE.get(pair)
        if reference is not None:
            row["reference_seconds"] = reference["seconds"]
            row["speedup"] = round(reference["seconds"] / best, 3)
            row["makespan_identical"] = makespan == reference["makespan"]
        rows.append(row)
    return {
        "repeat": max(repeat, 1),
        "seed": seed,
        "inputs_s": round(inputs_s, 4),
        "pairs": rows,
    }


#: Default regression gate for ``repro bench``: fail when a pair runs
#: slower than a quarter of its reference speed.  Deliberately loose —
#: reference seconds were recorded on one host class and CI machines
#: vary — but tight enough to catch an accidental O(n^2) in the engine.
DEFAULT_MIN_SPEEDUP: float = 0.25


def regressions(report: Dict, min_speedup: float) -> List[Dict]:
    """Pairs in ``report`` whose speedup fell below ``min_speedup``.

    Pairs without a recorded reference (no ``speedup`` key) never count
    as regressed — there is nothing to regress against.
    """
    return [
        row
        for row in report.get("pairs", [])
        if row.get("speedup") is not None and row["speedup"] < min_speedup
    ]


def default_output_path(today: Optional[datetime.date] = None) -> Path:
    date = today if today is not None else datetime.date.today()
    return Path(f"BENCH_{date.strftime('%Y%m%d')}.json")


def write_report(report: Dict, path: Optional[Path] = None) -> Path:
    """Write the bench report JSON; returns the path written."""
    path = Path(path) if path is not None else default_output_path()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
