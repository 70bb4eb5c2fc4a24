"""Fig. 12: distribution of child-CTA execution times.

The accuracy of SPAWN's t_cta metric rests on child CTA execution times
clustering tightly around their mean (the paper reports 95% within +/-10%
for most benchmarks, 80% for SSSP-graph500).  This experiment regenerates
the PDF summary for the paper's four representative benchmarks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.experiments.common import (
    FIG12_BENCHMARKS, Experiment, ExperimentResult, PlannedRuns,
)
from repro.harness.runner import RunConfig


def plan(seed: int = 1, benchmarks: Optional[Sequence[str]] = None) -> List[RunConfig]:
    return [
        RunConfig(benchmark=name, scheme="baseline-dp", seed=seed)
        for name in benchmarks or FIG12_BENCHMARKS
    ]


def render(
    runs: PlannedRuns,
    seed: int = 1,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    rows = []
    histograms = {}
    for name in benchmarks or FIG12_BENCHMARKS:
        result = runs.run(RunConfig(benchmark=name, scheme="baseline-dp", seed=seed))
        times = np.asarray(result.stats.child_cta_exec_times)
        if times.size == 0:
            rows.append((name, 0, 0.0, "0%", "0%"))
            continue
        mean = times.mean()
        within10 = float(np.mean(np.abs(times - mean) <= 0.10 * mean))
        within20 = float(np.mean(np.abs(times - mean) <= 0.20 * mean))
        rows.append(
            (
                name,
                int(times.size),
                round(float(mean), 1),
                f"{100 * within10:.0f}%",
                f"{100 * within20:.0f}%",
            )
        )
        histograms[name] = times
    return ExperimentResult(
        experiment="fig12",
        title="Child-CTA execution time distribution",
        headers=["benchmark", "child CTAs", "mean cycles", "within 10%", "within 20%"],
        rows=rows,
        extras={"times": histograms},
    )


run = Experiment(plan, render)
