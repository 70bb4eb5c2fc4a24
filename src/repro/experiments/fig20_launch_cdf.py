"""Fig. 20: cumulative child-kernel launches over time (BFS-graph500).

SPAWN's launch CDF rises far more slowly than Baseline-DP's — fewer
kernels, launched at a lower rate, tracking what Offline-Search's fixed
best threshold would do.
"""

from __future__ import annotations

from typing import List

from repro.experiments.common import (
    DEEP_DIVE_BENCHMARK, Experiment, ExperimentResult, PlannedRuns,
)
from repro.harness.runner import RunConfig
from repro.harness.sweep import offline_search


def plan(seed: int = 1, benchmark: str = DEEP_DIVE_BENCHMARK, **_) -> List[RunConfig]:
    return [
        RunConfig(benchmark=benchmark, scheme=scheme, seed=seed)
        for scheme in ("baseline-dp", "offline", "spawn")
    ]


def render(
    runs: PlannedRuns,
    seed: int = 1,
    benchmark: str = DEEP_DIVE_BENCHMARK,
    samples: int = 12,
) -> ExperimentResult:
    base = runs.run(RunConfig(benchmark=benchmark, scheme="baseline-dp", seed=seed))
    threshold, offline = offline_search(runs, benchmark, seed=seed)
    spawn = runs.run(RunConfig(benchmark=benchmark, scheme="spawn", seed=seed))
    rows = []
    cdfs = {}
    for scheme, result in (
        ("baseline-dp", base),
        (f"offline (thr={threshold})", offline),
        ("spawn", spawn),
    ):
        cdf = result.stats.launch_cdf()
        cdfs[scheme] = cdf
        if not cdf:
            rows.append((scheme, 0, 0, 0))
            continue
        step = max(1, len(cdf) // samples)
        for time, count in cdf[::step]:
            rows.append((scheme, int(time), count, result.stats.child_kernels_launched))
    return ExperimentResult(
        experiment="fig20",
        title=f"CDF of child kernel launches over time ({benchmark})",
        headers=["scheme", "cycle", "cumulative launches", "total"],
        rows=rows,
        extras={"cdfs": cdfs},
    )


run = Experiment(plan, render)
