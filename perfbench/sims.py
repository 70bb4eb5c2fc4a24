"""The simulation workloads, ``fig15`` and ``zoo``.

One pass simulates the workload's whole run-set serially, in one process,
on a fresh memory-only ``Runner``, through ``repro.api.simulate`` with the
default engine.  Inputs are generated during set-up, so a pass times
simulation only (plus building each ``Application`` from the cached
inputs, which ``Runner.run`` does on every call).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from hostspeed import SpeedTracker

#: Paper's Fig. 15 geomean speedups over flat.
PAPER_SPEEDUP = {"spawn": 1.69, "baseline-dp": 1.07}


@dataclass
class Run:
    """One timed simulation, reduced to what the benchmark reports."""

    benchmark: str
    scheme: str
    seconds: float  # host seconds as measured
    scaled: float  # host seconds at the reference probe speed
    makespan: float
    work: Dict[str, int]


def clear_input_caches() -> None:
    """Forget every generated input, so the next set-up starts cold."""
    from repro.workloads.base import _ensure_loaded

    _ensure_loaded()
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.workloads."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def generate_inputs(pairs, seed: int) -> None:
    from repro.workloads import get_benchmark

    for benchmark, scheme in pairs:
        bench = get_benchmark(benchmark)
        if scheme == "flat":
            bench.flat(seed)
        else:
            bench.dp(seed)


def timed_setups(pairs, seed: int, repeats: int,
                 tracker: SpeedTracker) -> List[float]:
    """Generate the inputs ``repeats`` times from cold; scaled seconds."""
    times = []
    for _ in range(repeats):
        clear_input_caches()
        start = time.perf_counter()
        generate_inputs(pairs, seed)
        times.append(tracker.scale(time.perf_counter() - start))
    return times


def run_pass(pairs, seed: int,
             tracker: Optional[SpeedTracker] = None) -> Tuple[float, List[Run]]:
    """Simulate every pair once; returns (host wall seconds, runs).

    With a ``tracker`` each simulation is bracketed by host-speed probes
    (their time is in the wall seconds, not in any run's seconds).
    """
    from repro.api import Runner, simulate

    runner = Runner()
    runs = []
    start = time.perf_counter()
    for benchmark, scheme in pairs:
        t0 = time.perf_counter()
        result = simulate(benchmark, scheme, seed=seed, runner=runner)
        seconds = time.perf_counter() - t0
        scaled = tracker.scale(seconds) if tracker is not None else seconds
        runs.append(Run(benchmark, scheme, seconds, scaled, result.makespan,
                        work_of(result.stats)))
    return time.perf_counter() - start, runs


def work_of(stats) -> Dict[str, int]:
    """Deterministic work of one run, read from its SimStats."""
    return {
        "runs": 1,
        "ctas": sum(rec.num_ctas for rec in stats.kernels.values()),
        "kernels": len(stats.kernels),
        "l2_lines": stats.l2_hits + stats.l2_misses,
        "l2_hits": stats.l2_hits,
        "decisions": (
            stats.child_kernels_launched + stats.child_kernels_declined
            + stats.child_kernels_reused + stats.child_kernels_consolidated
            + stats.child_kernels_aggregated
        ),
        "merged_kernels": stats.merged_kernels_launched,
    }


def work_counts(runs: List[Run]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for run in runs:
        for name, value in run.work.items():
            totals[name] = totals.get(name, 0) + value
    return totals


def check(runs: List[Run], references: Dict[str, float]) -> List[str]:
    """Makespans that differ (bit for bit) from the committed table."""
    bad = []
    for run in runs:
        pair = f"{run.benchmark}/{run.scheme}"
        expected = references.get(pair)
        if run.makespan != expected:
            bad.append(f"{pair}: makespan {run.makespan!r} != {expected!r}")
    return bad


def speedup_errors(runs: List[Run]) -> Dict[str, float]:
    """|geomean(flat/scheme) - paper| / paper, when the pass has the pairs."""
    from repro.api import geometric_mean

    spans = {(r.benchmark, r.scheme): r.makespan for r in runs}
    names = sorted({b for b, _s in spans})
    errors = {}
    for scheme, paper in PAPER_SPEEDUP.items():
        if all((b, "flat") in spans and (b, scheme) in spans for b in names):
            geo = geometric_mean(spans[(b, "flat")] / spans[(b, scheme)]
                                 for b in names)
            errors[scheme] = abs(geo - paper) / paper
    return errors


def passes_for(seconds: float, first_pass: float) -> int:
    """Whole passes that fit the measuring window (at least one)."""
    return max(1, int(seconds / first_pass))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
