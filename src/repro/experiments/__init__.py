"""One module per reproduced table/figure of the paper's evaluation.

Each module exposes ``run(runner=None, seed=1) -> ExperimentResult``.
``ALL_EXPERIMENTS`` maps experiment ids to their entry points, in paper
order; ``run_all`` executes everything against one shared runner (so the
common simulation runs are only performed once).
"""

from typing import Callable, Dict, Optional

from repro.experiments import (
    extra_bootstrap,
    extra_gpu_scaling,
    extra_policy_matrix,
    extra_scheme_zoo,
    fig01_imbalance,
    fig05_distribution,
    fig06_concurrency,
    fig07_cta_size,
    fig08_streams,
    fig12_cta_time_pdf,
    fig15_speedup,
    fig16_occupancy,
    fig17_l2,
    fig18_kernel_count,
    fig19_timeline,
    fig20_launch_cdf,
    fig21_dtbl,
    tables,
)
from repro.experiments.common import ExperimentResult
from repro.harness.runner import Runner

ALL_EXPERIMENTS: Dict[str, Callable] = {
    "table1": tables.run_table1,
    "table2": tables.run_table2,
    "fig01": fig01_imbalance.run,
    "fig05": fig05_distribution.run,
    "fig06": fig06_concurrency.run,
    "fig07": fig07_cta_size.run,
    "fig08": fig08_streams.run,
    "fig12": fig12_cta_time_pdf.run,
    "fig15": fig15_speedup.run,
    "fig16": fig16_occupancy.run,
    "fig17": fig17_l2.run,
    "fig18": fig18_kernel_count.run,
    "fig19": fig19_timeline.run,
    "fig20": fig20_launch_cdf.run,
    "fig21": fig21_dtbl.run,
}

#: Extension experiments beyond the paper's own evaluation.
EXTRA_EXPERIMENTS: Dict[str, Callable] = {
    "policy-matrix": extra_policy_matrix.run,
    "bootstrap-sensitivity": extra_bootstrap.run,
    "gpu-scaling": extra_gpu_scaling.run,
    "scheme-zoo": extra_scheme_zoo.run,
}


def run_all(
    runner: Optional[Runner] = None, seed: int = 1, jobs: int = 1, policy=None
):
    """Run every experiment against one shared runner; yields results.

    ``jobs > 1`` first fans the union of every experiment's declared
    run-set (:func:`repro.experiments.plans.suite_plan`) out across
    worker processes; the experiments then execute against a warm cache.
    ``policy`` is an optional
    :class:`~repro.harness.parallel.ExecutionPolicy` for the fan-out.
    """
    shared = runner if runner is not None else Runner()
    if jobs > 1:
        from repro.experiments.plans import suite_plan
        from repro.harness.parallel import ParallelRunner

        ParallelRunner(shared, policy=policy).run_many(suite_plan(seed), jobs=jobs)
    for name, entry in ALL_EXPERIMENTS.items():
        yield entry(shared, seed)


__all__ = ["ALL_EXPERIMENTS", "EXTRA_EXPERIMENTS", "ExperimentResult", "run_all"]
