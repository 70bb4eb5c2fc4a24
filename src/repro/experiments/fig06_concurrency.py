"""Fig. 6: CTA concurrency and resource utilization over time (Baseline-DP).

Reproduces the BFS-graph500 execution snippet: the number of concurrently
executing parent and child CTAs, the total against the 208-CTA hardware
limit, and the resource utilization (max of register / shared-memory / SMX
usage), sampled over the run.
"""

from __future__ import annotations

from typing import List

from repro.experiments.common import (
    DEEP_DIVE_BENCHMARK, Experiment, ExperimentResult, PlannedRuns,
)
from repro.harness.runner import RunConfig


def plan(
    seed: int = 1, benchmark: str = DEEP_DIVE_BENCHMARK, scheme: str = "baseline-dp", **_
) -> List[RunConfig]:
    return [RunConfig(benchmark=benchmark, scheme=scheme, seed=seed)]


def render(
    runs: PlannedRuns,
    seed: int = 1,
    benchmark: str = DEEP_DIVE_BENCHMARK,
    scheme: str = "baseline-dp",
    samples: int = 24,
) -> ExperimentResult:
    result = runs.run(RunConfig(benchmark=benchmark, scheme=scheme, seed=seed))
    trace = result.stats.trace
    step = max(1, len(trace) // samples)
    rows = []
    for sample in trace[::step]:
        rows.append(
            (
                int(sample.time),
                sample.parent_ctas,
                sample.child_ctas,
                sample.total_ctas,
                round(sample.utilization, 3),
            )
        )
    peak = max((s.total_ctas for s in trace), default=0)
    limit = runs.config.max_concurrent_ctas
    return ExperimentResult(
        experiment="fig06",
        title=f"Concurrent CTAs and utilization over time ({benchmark}, {scheme})",
        headers=["cycle", "parent CTAs", "child CTAs", "total", "utilization"],
        rows=rows,
        notes=(
            f"peak concurrent CTAs = {peak} "
            f"(hardware limit {limit}); makespan = {result.makespan:.0f} cycles"
        ),
        extras={"trace": trace, "result": result},
    )


run = Experiment(plan, render)
