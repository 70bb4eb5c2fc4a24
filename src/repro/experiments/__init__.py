"""One module per reproduced table/figure of the paper's evaluation.

Each paper module declares its run-set once (``plan``), renders its table
from the finished runs (``render``), and exposes both as one
:class:`~repro.experiments.common.Experiment` entry point,
``run(runner=None, seed=1) -> ExperimentResult``.  ``ALL_EXPERIMENTS``
maps experiment ids to those entry points, in paper order; ``repro
suite`` fans the union of their plans out once and renders each of them
from it.  ``EXTRA_EXPERIMENTS`` are plain ``run(runner, seed)``
functions: three of the four build GPU configurations or policies that
no :class:`~repro.harness.runner.RunConfig` can name.
"""

from typing import Callable, Dict

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
from repro.experiments.common import Experiment, ExperimentResult

ALL_EXPERIMENTS: Dict[str, Experiment] = {
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

__all__ = ["ALL_EXPERIMENTS", "EXTRA_EXPERIMENTS", "Experiment", "ExperimentResult"]
