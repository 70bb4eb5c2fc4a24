"""Fig. 5: performance vs parent/child workload distribution (all 13 plots).

For each benchmark we sweep the static THRESHOLD (the knob of Section II-B),
measure the fraction of work executed in child kernels (the x-axis of
Fig. 5), and report the simulator speedup over the flat implementation.
Observations 1-4 of Section III-A are derived from exactly this data.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.common import Experiment, ExperimentResult, PlannedRuns
from repro.harness.runner import RunConfig
from repro.harness.sweep import threshold_sweep
from repro.workloads import TABLE1_NAMES


def plan(seed: int = 1, benchmarks: Optional[Sequence[str]] = None) -> List[RunConfig]:
    # An offline entry plans its benchmark's whole threshold sweep.
    return [
        RunConfig(benchmark=name, scheme="offline", seed=seed)
        for name in benchmarks or TABLE1_NAMES
    ]


def render(
    runs: PlannedRuns,
    seed: int = 1,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    rows = []
    sweeps = {}
    for name in benchmarks or TABLE1_NAMES:
        sweep = threshold_sweep(runs, name, seed=seed)
        sweeps[name] = sweep
        best = sweep.best()
        for point in sweep.points:
            rows.append(
                (
                    name,
                    point.threshold,
                    f"{100.0 * point.offload_fraction:.0f}%",
                    round(point.speedup_over_flat, 3),
                    point.child_kernels,
                    "*" if point is best else "",
                )
            )
    return ExperimentResult(
        experiment="fig05",
        title="Speedup vs percentage of workload offloaded to child kernels",
        headers=[
            "benchmark",
            "THRESHOLD",
            "offloaded",
            "speedup vs flat",
            "child kernels",
            "best",
        ],
        rows=rows,
        notes="(*) best static distribution = Offline-Search's pick",
        extras={"sweeps": sweeps},
    )


run = Experiment(plan, render)
