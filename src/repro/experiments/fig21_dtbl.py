"""Fig. 21: SPAWN vs Dynamic Thread Block Launch (DTBL, Wang et al.).

DTBL coalesces child CTAs onto running kernels: it eliminates the
per-kernel launch overhead but not the CTA queuing.  The paper's pattern:
SPAWN wins on SA (CTA-concurrency-bound), roughly ties on MM, and loses on
SSSP (launch-overhead-bound, tiny child kernels) — both normalized to the
flat implementation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.experiments.common import (
    FIG21_PAIRS, Experiment, ExperimentResult, PlannedRuns,
)
from repro.harness.runner import RunConfig


def plan(
    seed: int = 1, pairs: Optional[Sequence[Tuple[str, str]]] = None
) -> List[RunConfig]:
    return [
        RunConfig(benchmark=name, scheme=scheme, seed=seed)
        for _app, name in pairs or FIG21_PAIRS
        for scheme in ("flat", "spawn", "dtbl")
    ]


def render(
    runs: PlannedRuns,
    seed: int = 1,
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
) -> ExperimentResult:
    rows = []
    for app, name in pairs or FIG21_PAIRS:
        flat = runs.run(RunConfig(benchmark=name, scheme="flat", seed=seed))
        spawn = runs.run(RunConfig(benchmark=name, scheme="spawn", seed=seed))
        dtbl = runs.run(RunConfig(benchmark=name, scheme="dtbl", seed=seed))
        rows.append(
            (
                app,
                name,
                round(flat.makespan / spawn.makespan, 3),
                round(flat.makespan / dtbl.makespan, 3),
            )
        )
    return ExperimentResult(
        experiment="fig21",
        title="SPAWN vs DTBL (normalized to flat)",
        headers=["application", "benchmark", "SPAWN", "DTBL"],
        rows=rows,
    )


run = Experiment(plan, render)
