"""Threshold sweeps and Offline-Search (Section III-A / Fig. 5).

Offline-Search is "the best workload distribution ratio [picked] by
performing an exhaustive sweep of the THRESHOLD metric" — here: run every
``threshold:<T>`` in the benchmark's sweep list plus the flat end point, and
keep the fastest.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import HarnessError
from repro.harness import schemes as sch
from repro.harness.runner import RunConfig, Runner
from repro.sim.engine import SimResult
from repro.workloads.base import get_benchmark


@dataclass(frozen=True)
class SweepPoint:
    """One static-threshold run of the Fig. 5 characterization."""

    threshold: int
    offload_fraction: float  # x-axis of Fig. 5
    makespan: float
    speedup_over_flat: float
    child_kernels: int


@dataclass(frozen=True)
class SweepResult:
    benchmark: str
    points: Tuple[SweepPoint, ...]

    def best(self) -> SweepPoint:
        """Offline-Search's pick: the highest speedup over flat, the
        first threshold winning ties."""
        return max(self.points, key=lambda p: p.speedup_over_flat)


def sweep_variants(
    config: RunConfig, thresholds: Optional[Tuple[int, ...]] = None
) -> List[RunConfig]:
    """``config`` under flat, then under every ``threshold:<T>`` of the sweep.

    Only the scheme changes: every run keeps ``config``'s seed, child CTA
    size, stream policy and trace interval.  ``thresholds`` defaults to
    the benchmark's sweep list.
    """
    if thresholds is None:
        thresholds = get_benchmark(config.benchmark).sweep_thresholds
    schemes = [sch.FLAT, *(f"threshold:{threshold}" for threshold in thresholds)]
    return [dataclasses.replace(config, scheme=scheme) for scheme in schemes]


def sweep_result(
    benchmark_name: str,
    thresholds: Sequence[int],
    flat: SimResult,
    results: Sequence[SimResult],
) -> SweepResult:
    """The sweep over finished runs (``results`` in ``thresholds`` order).

    Raises :class:`~repro.errors.HarnessError` on a zero makespan, which
    has no speedup over flat.
    """
    points = []
    for threshold, result in zip(thresholds, results):
        if result.makespan <= 0:
            raise HarnessError(
                f"{benchmark_name}/threshold:{threshold}: zero makespan"
            )
        points.append(
            SweepPoint(
                threshold=threshold,
                offload_fraction=result.stats.offload_fraction,
                makespan=result.makespan,
                speedup_over_flat=flat.makespan / result.makespan,
                child_kernels=result.stats.child_kernels_launched,
            )
        )
    return SweepResult(benchmark=benchmark_name, points=tuple(points))


def threshold_sweep(
    runner: Runner,
    benchmark_name: str,
    *,
    seed: int = 1,
    thresholds: Optional[Tuple[int, ...]] = None,
) -> SweepResult:
    """Run the benchmark at every static THRESHOLD (plus the flat bound).

    ``runner`` is a :class:`Runner` or anything with its ``run(config)``,
    such as an experiment's
    :class:`~repro.experiments.common.PlannedRuns`.  To run a sweep in
    parallel, fan an ``offline`` config out through
    :meth:`~repro.harness.parallel.ParallelRunner.run_suite` first; the
    sweep then reads cache hits.
    """
    if thresholds is None:
        thresholds = get_benchmark(benchmark_name).sweep_thresholds
    flat_config = RunConfig(benchmark=benchmark_name, scheme=sch.FLAT, seed=seed)
    flat, *results = [
        runner.run(config) for config in sweep_variants(flat_config, thresholds)
    ]
    return sweep_result(benchmark_name, thresholds, flat, results)


def offline_search(
    runner: Runner,
    benchmark_name: str,
    *,
    seed: int = 1,
) -> Tuple[int, SimResult]:
    """Best static threshold and its run (the paper's Offline-Search).

    The flat implementation is *not* a candidate: Offline-Search picks the
    best *DP* workload distribution; a benchmark that prefers ~0% offload
    expresses that through a large THRESHOLD.
    """
    sweep = threshold_sweep(runner, benchmark_name, seed=seed)
    best = sweep.best()
    result = runner.run(
        RunConfig(
            benchmark=benchmark_name,
            scheme=f"threshold:{best.threshold}",
            seed=seed,
        )
    )
    return best.threshold, result
