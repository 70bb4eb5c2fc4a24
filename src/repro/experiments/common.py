"""Shared infrastructure for the per-figure experiment modules.

Every paper experiment module declares its run-set once, as
``plan(seed=1, **options) -> List[RunConfig]``, and its table as
``render(runs, seed=1, **options) -> ExperimentResult``, which reads each
run through ``runs.run(config)``.  ``run = Experiment(plan, render)`` is
its entry point; ``repro suite`` instead fans the union of the requested
plans out once and renders every experiment from one
:class:`PlannedRuns`.  An :class:`ExperimentResult` carries the same
rows/series the paper's table or figure reports, renders as an aligned
ASCII table, and keeps the raw data available for tests and benchmarks.

Passing one :class:`~repro.harness.runner.Runner` to several experiments
reuses its cached simulation results across figures (Fig. 15, 16, 17,
and 18 all derive from the same three runs per benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import HarnessError
from repro.harness.parallel import ParallelRunner, SuiteReport
from repro.harness.report import format_table
from repro.harness.runner import RunConfig, Runner
from repro.sim.engine import SimResult


@dataclass
class ExperimentResult:
    """Structured output of one reproduced table or figure."""

    experiment: str  # e.g. "fig15"
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]]
    notes: str = ""
    extras: Dict[str, object] = field(default_factory=dict)

    def table(self) -> str:
        text = format_table(self.headers, self.rows, title=f"{self.experiment}: {self.title}")
        if self.notes:
            text += f"\n{self.notes}"
        return text

    def row_dict(self, key_column: int = 0) -> Dict[object, Sequence[object]]:
        """Index rows by one column (usually the benchmark name)."""
        return {row[key_column]: row for row in self.rows}


def ensure_runner(runner: Optional[Runner]) -> Runner:
    return runner if runner is not None else Runner()


class PlannedRuns:
    """The finished runs of one fanned-out plan, read without simulating.

    ``run(config)`` accepts the requested configs and their expansion (an
    ``offline`` entry plans its whole threshold sweep, so
    :func:`~repro.harness.sweep.offline_search` reads through this object
    unchanged) and answers with ``Runner.cached``.  A config outside the
    plan raises :class:`~repro.errors.HarnessError`, so a plan that
    under-declares its experiment fails loudly.  A config without a
    result raises ``SuiteReport.failure_of``: it is never attempted again.
    """

    def __init__(self, runner: Runner, report: SuiteReport):
        self._runner = runner
        self._report = report
        #: The GPU configuration every planned run simulated.
        self.config = runner.config
        self._planned = {
            c.key()
            for c in (*report.configs, *ParallelRunner.expand(report.configs))
        }

    def run(self, config: RunConfig) -> SimResult:
        if config.key() not in self._planned:
            raise HarnessError(
                f"{config.benchmark}/{config.scheme} (seed {config.seed}) "
                "is not in the experiment's plan"
            )
        result = self._runner.cached(config)
        if result is None:
            raise self._report.failure_of(config)
        return result


@dataclass(frozen=True)
class Experiment:
    """A paper experiment's entry point: plan, one fan-out, render.

    ``plan`` and ``render`` take the same keyword options; a plan
    ignores those that only shape the table (``samples``).
    """

    plan: Callable[..., List[RunConfig]]
    render: Callable[..., ExperimentResult]

    def __call__(
        self, runner: Optional[Runner] = None, seed: int = 1, **options
    ) -> ExperimentResult:
        runner = ensure_runner(runner)
        parallel = ParallelRunner(runner, jobs=1)
        report = parallel.run_suite(self.plan(seed, **options))
        return self.render(PlannedRuns(runner, report), seed, **options)


def no_runs(seed: int = 1) -> List[RunConfig]:
    """The plan of an experiment that derives from static inputs."""
    return []


#: Benchmarks the paper's deep-dive figures use.
DEEP_DIVE_BENCHMARK = "BFS-graph500"
FIG12_BENCHMARKS = ("MM-small", "SA-thaliana", "BFS-graph500", "SSSP-graph500")
FIG21_PAIRS = (
    ("SA", "SA-thaliana"),
    ("SA", "SA-elegans"),
    ("MM", "MM-small"),
    ("MM", "MM-large"),
    ("SSSP", "SSSP-citation"),
    ("SSSP", "SSSP-graph500"),
)
