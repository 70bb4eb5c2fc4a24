"""Fig. 8: one SWQ per child kernel vs one SWQ per parent CTA (c_stream).

Child kernels sharing the parent CTA's stream serialize; unique streams
maximize concurrency.  The paper finds per-child streams always win and
adopts them everywhere — this experiment regenerates that comparison under
Baseline-DP.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.common import Experiment, ExperimentResult, PlannedRuns
from repro.harness.runner import PER_CHILD, PER_PARENT_CTA, RunConfig
from repro.workloads import TABLE1_NAMES


def plan(seed: int = 1, benchmarks: Optional[Sequence[str]] = None) -> List[RunConfig]:
    return [
        RunConfig(benchmark=name, scheme="baseline-dp", seed=seed, stream_policy=policy)
        for name in benchmarks or TABLE1_NAMES
        for policy in (PER_CHILD, PER_PARENT_CTA)
    ]


def render(
    runs: PlannedRuns,
    seed: int = 1,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    rows = []
    for name in benchmarks or TABLE1_NAMES:
        per_child = runs.run(
            RunConfig(benchmark=name, scheme="baseline-dp", seed=seed,
                      stream_policy=PER_CHILD)
        )
        per_parent = runs.run(
            RunConfig(benchmark=name, scheme="baseline-dp", seed=seed,
                      stream_policy=PER_PARENT_CTA)
        )
        rows.append(
            (name, round(per_parent.makespan / per_child.makespan, 3))
        )
    return ExperimentResult(
        experiment="fig08",
        title="Per-child-kernel SWQ speedup over per-parent-CTA SWQ",
        headers=["benchmark", "speedup (per-child / per-parent-CTA)"],
        rows=rows,
        notes="values >= 1 mean unique streams win, as the paper reports",
    )


run = Experiment(plan, render)
