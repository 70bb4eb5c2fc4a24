"""Fig. 18: number of child kernels launched under the three schemes.

SPAWN's throttling cuts the launched-kernel count substantially (73% on
average in the paper), which is where the launch-overhead and
queuing-latency savings come from.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import Experiment, ExperimentResult, PlannedRuns
from repro.experiments.fig16_occupancy import SCHEMES, plan
from repro.harness.runner import RunConfig
from repro.workloads import TABLE1_NAMES


def render(
    runs: PlannedRuns,
    seed: int = 1,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    rows = []
    reductions = []
    for name in benchmarks or TABLE1_NAMES:
        counts = tuple(
            runs.run(RunConfig(benchmark=name, scheme=scheme, seed=seed))
            .stats.child_kernels_launched
            for scheme in SCHEMES
        )
        if counts[0]:
            reductions.append(1.0 - counts[2] / counts[0])
        rows.append((name, *counts))
    avg_red = 100 * sum(reductions) / len(reductions) if reductions else 0.0
    return ExperimentResult(
        experiment="fig18",
        title="Number of child kernels launched",
        headers=["benchmark", "Baseline-DP", "Offline-Search", "SPAWN"],
        rows=rows,
        notes=f"mean SPAWN reduction vs Baseline-DP: {avg_red:.0f}% (paper: 73%)",
    )


run = Experiment(plan, render)
