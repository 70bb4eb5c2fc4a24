"""Fig. 16: SMX occupancy under the three schemes.

SMX occupancy = average active warps per cycle over the warp capacity.  The
paper reports SPAWN at 1.96x the Baseline-DP occupancy and within 4% of
Offline-Search.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.common import Experiment, ExperimentResult, PlannedRuns
from repro.harness.runner import RunConfig, geometric_mean
from repro.workloads import TABLE1_NAMES


#: The schemes Figs. 16-18 compare, in column order.
SCHEMES = ("baseline-dp", "offline", "spawn")


def plan(seed: int = 1, benchmarks: Optional[Sequence[str]] = None) -> List[RunConfig]:
    """Baseline-DP, Offline-Search and SPAWN per benchmark (Figs. 16-18)."""
    return [
        RunConfig(benchmark=name, scheme=scheme, seed=seed)
        for name in benchmarks or TABLE1_NAMES
        for scheme in SCHEMES
    ]


def render(
    runs: PlannedRuns,
    seed: int = 1,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    rows = []
    ratios = []
    for name in benchmarks or TABLE1_NAMES:
        occ = tuple(
            runs.run(RunConfig(benchmark=name, scheme=scheme, seed=seed))
            .stats.smx_occupancy
            for scheme in SCHEMES
        )
        if occ[0] > 0 and occ[2] > 0:
            ratios.append(occ[2] / occ[0])
        rows.append(
            (
                name,
                f"{100 * occ[0]:.1f}%",
                f"{100 * occ[1]:.1f}%",
                f"{100 * occ[2]:.1f}%",
            )
        )
    note = ""
    if ratios:
        note = (
            f"SPAWN occupancy over Baseline-DP (geomean): "
            f"{geometric_mean(ratios):.2f}x (paper: 1.96x)"
        )
    return ExperimentResult(
        experiment="fig16",
        title="SMX occupancy",
        headers=["benchmark", "Baseline-DP", "Offline-Search", "SPAWN"],
        rows=rows,
        notes=note,
    )


run = Experiment(plan, render)
