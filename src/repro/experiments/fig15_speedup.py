"""Fig. 15: speedup of Baseline-DP / Offline-Search / SPAWN over flat.

The headline evaluation: across the 13 benchmarks the paper reports SPAWN
at 1.69x over flat (geometric mean), 1.57x over Baseline-DP, and within a
few percent of Offline-Search.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.common import Experiment, ExperimentResult, PlannedRuns
from repro.harness.runner import RunConfig, geometric_mean
from repro.harness.sweep import offline_search
from repro.workloads import TABLE1_NAMES


def plan(seed: int = 1, benchmarks: Optional[Sequence[str]] = None) -> List[RunConfig]:
    return [
        RunConfig(benchmark=name, scheme=scheme, seed=seed)
        for name in benchmarks or TABLE1_NAMES
        for scheme in ("flat", "baseline-dp", "offline", "spawn")
    ]


def render(
    runs: PlannedRuns,
    seed: int = 1,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    rows = []
    speedups = {"baseline-dp": [], "offline": [], "spawn": []}
    results = {}
    for name in benchmarks or TABLE1_NAMES:
        flat = runs.run(RunConfig(benchmark=name, scheme="flat", seed=seed))
        base = runs.run(RunConfig(benchmark=name, scheme="baseline-dp", seed=seed))
        threshold, offline = offline_search(runs, name, seed=seed)
        spawn = runs.run(RunConfig(benchmark=name, scheme="spawn", seed=seed))
        trio = (
            flat.makespan / base.makespan,
            flat.makespan / offline.makespan,
            flat.makespan / spawn.makespan,
        )
        speedups["baseline-dp"].append(trio[0])
        speedups["offline"].append(trio[1])
        speedups["spawn"].append(trio[2])
        results[name] = {
            "flat": flat, "baseline-dp": base, "offline": offline, "spawn": spawn,
            "offline_threshold": threshold,
        }
        rows.append(
            (name, round(trio[0], 3), round(trio[1], 3), round(trio[2], 3), threshold)
        )
    means = {k: geometric_mean(v) for k, v in speedups.items()}
    rows.append(
        (
            "GEOMEAN",
            round(means["baseline-dp"], 3),
            round(means["offline"], 3),
            round(means["spawn"], 3),
            "",
        )
    )
    return ExperimentResult(
        experiment="fig15",
        title="Speedup over the flat (non-DP) implementation",
        headers=["benchmark", "Baseline-DP", "Offline-Search", "SPAWN", "best THRESHOLD"],
        rows=rows,
        notes=(
            f"SPAWN over Baseline-DP (geomean): "
            f"{means['spawn'] / means['baseline-dp']:.2f}x "
            f"(paper: 1.57x); SPAWN vs Offline-Search: "
            f"{means['spawn'] / means['offline']:.2f}x"
        ),
        extras={"results": results, "geomeans": means},
    )


run = Experiment(plan, render)
