"""Fig. 1: workload imbalance across BFS threads.

The paper's motivating sketch shows a handful of frontier threads owning
most of the traversal work.  We regenerate it quantitatively from the
BFS-citation input: the per-thread work (vertex degree) distribution of the
largest frontier level.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import Experiment, ExperimentResult, PlannedRuns, no_runs
from repro.workloads._traversal import input_graph, traversal_rounds
from repro.workloads.table import BFS, CITATION


def render(runs: PlannedRuns, seed: int = 1) -> ExperimentResult:
    graph = input_graph(CITATION, seed)
    levels = traversal_rounds(BFS, CITATION, seed)
    frontier = max(levels, key=len)
    work = np.sort(graph.degrees[np.asarray(frontier)])[::-1]
    total = int(work.sum())
    rows = []
    for pct in (1, 5, 10, 25, 50):
        top = work[: max(1, len(work) * pct // 100)]
        rows.append(
            (
                f"top {pct}% threads",
                int(top.sum()),
                f"{100.0 * top.sum() / total:.1f}%",
            )
        )
    rows.append(("all threads", total, "100.0%"))
    return ExperimentResult(
        experiment="fig01",
        title="Workload imbalance in BFS (largest frontier, citation input)",
        headers=["threads", "edges owned", "share of level work"],
        rows=rows,
        notes=(
            f"threads={len(work)}, max/mean per-thread work = "
            f"{work.max() / work.mean():.1f}x"
        ),
        extras={"work": work},
    )


run = Experiment(no_runs, render)
