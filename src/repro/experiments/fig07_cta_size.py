"""Fig. 7: performance sensitivity to child CTA dimensions (c_cta).

Each benchmark's DP variant is re-run with every child kernel resized to
64, 128, and 256 threads per CTA, normalized (as in the paper) to the
32-threads/CTA configuration, under Baseline-DP.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.common import Experiment, ExperimentResult, PlannedRuns
from repro.harness.runner import RunConfig
from repro.workloads import TABLE1_NAMES

CTA_SIZES = (32, 64, 128, 256)


def plan(seed: int = 1, benchmarks: Optional[Sequence[str]] = None) -> List[RunConfig]:
    return [
        RunConfig(benchmark=name, scheme="baseline-dp", seed=seed, cta_threads=cta)
        for name in benchmarks or TABLE1_NAMES
        for cta in CTA_SIZES
    ]


def render(
    runs: PlannedRuns,
    seed: int = 1,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    rows = []
    for name in benchmarks or TABLE1_NAMES:
        makespans = {}
        for cta in CTA_SIZES:
            result = runs.run(
                RunConfig(
                    benchmark=name,
                    scheme="baseline-dp",
                    seed=seed,
                    cta_threads=cta,
                )
            )
            makespans[cta] = result.makespan
        base = makespans[32]
        rows.append(
            (
                name,
                round(base / makespans[64], 3),
                round(base / makespans[128], 3),
                round(base / makespans[256], 3),
            )
        )
    return ExperimentResult(
        experiment="fig07",
        title="Sensitivity to child CTA size (speedup over 32 threads/CTA)",
        headers=["benchmark", "CTA-64", "CTA-128", "CTA-256"],
        rows=rows,
    )


run = Experiment(plan, render)
