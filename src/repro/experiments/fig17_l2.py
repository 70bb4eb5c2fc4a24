"""Fig. 17: L2 cache hit rate under the three schemes.

SPAWN improves L2 hit rate (~10 percentage points over Baseline-DP in the
paper) by keeping more computation in the parent (spatial locality) and
overlapping parent execution with its children (temporal locality) instead
of deferring child execution behind launch and queuing delays.
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
    deltas = []
    for name in benchmarks or TABLE1_NAMES:
        hit = tuple(
            runs.run(RunConfig(benchmark=name, scheme=scheme, seed=seed))
            .stats.l2_hit_rate
            for scheme in SCHEMES
        )
        deltas.append(hit[2] - hit[0])
        rows.append(
            (
                name,
                f"{100 * hit[0]:.1f}%",
                f"{100 * hit[1]:.1f}%",
                f"{100 * hit[2]:.1f}%",
            )
        )
    avg_delta = 100 * sum(deltas) / len(deltas) if deltas else 0.0
    return ExperimentResult(
        experiment="fig17",
        title="L2 cache hit rate",
        headers=["benchmark", "Baseline-DP", "Offline-Search", "SPAWN"],
        rows=rows,
        notes=f"mean SPAWN - Baseline-DP hit-rate delta: {avg_delta:+.1f} points",
    )


run = Experiment(plan, render)
