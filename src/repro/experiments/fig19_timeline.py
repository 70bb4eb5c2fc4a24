"""Fig. 19: concurrent CTAs over time, Baseline-DP vs SPAWN (BFS-graph500).

The deep-dive companion to Fig. 6: under SPAWN, parent CTAs stay alive
longer (they keep more of the traversal), hide the launch overhead of the
fewer children, and the run finishes earlier.
"""

from __future__ import annotations

from typing import List

from repro.experiments.common import (
    DEEP_DIVE_BENCHMARK, Experiment, ExperimentResult, PlannedRuns,
)
from repro.harness.runner import RunConfig

SCHEMES = ("baseline-dp", "spawn")


def plan(seed: int = 1, benchmark: str = DEEP_DIVE_BENCHMARK, **_) -> List[RunConfig]:
    return [
        RunConfig(benchmark=benchmark, scheme=scheme, seed=seed)
        for scheme in SCHEMES
    ]


def render(
    runs: PlannedRuns,
    seed: int = 1,
    benchmark: str = DEEP_DIVE_BENCHMARK,
    samples: int = 16,
) -> ExperimentResult:
    rows = []
    traces = {}
    for scheme in SCHEMES:
        result = runs.run(RunConfig(benchmark=benchmark, scheme=scheme, seed=seed))
        trace = result.stats.trace
        traces[scheme] = (trace, result)
        step = max(1, len(trace) // samples)
        for sample in trace[::step]:
            rows.append(
                (
                    scheme,
                    int(sample.time),
                    sample.parent_ctas,
                    sample.child_ctas,
                    round(sample.utilization, 3),
                )
            )
    base_span = traces["baseline-dp"][1].makespan
    spawn_span = traces["spawn"][1].makespan
    return ExperimentResult(
        experiment="fig19",
        title=f"Concurrent CTAs over time, Baseline-DP vs SPAWN ({benchmark})",
        headers=["scheme", "cycle", "parent CTAs", "child CTAs", "utilization"],
        rows=rows,
        notes=(
            f"makespan: baseline-dp={base_span:.0f}, spawn={spawn_span:.0f} "
            f"({base_span / spawn_span:.2f}x faster under SPAWN)"
        ),
        extras={"traces": traces},
    )


run = Experiment(plan, render)
