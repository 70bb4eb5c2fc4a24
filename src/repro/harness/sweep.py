"""Threshold sweeps and Offline-Search (Section III-A / Fig. 5).

Offline-Search is "the best workload distribution ratio [picked] by
performing an exhaustive sweep of the THRESHOLD metric" — here: run every
``threshold:<T>`` in the benchmark's sweep list plus the flat end point, and
keep the fastest.  :func:`offline_choice` is the one home of that rule;
:class:`~repro.harness.runner.Runner` applies it to every ``offline``
config, so ``offline`` runs like any other scheme.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

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


def _read_sweep(
    config: RunConfig,
    thresholds: Optional[Tuple[int, ...]],
    read: Callable[[RunConfig], Optional[SimResult]],
) -> Optional[SweepResult]:
    """The sweep of ``config``'s variants, each run read through ``read``.

    None as soon as ``read`` answers None.  A zero makespan, which has no
    speedup over flat, raises :class:`~repro.errors.HarnessError`.
    """
    if thresholds is None:
        thresholds = get_benchmark(config.benchmark).sweep_thresholds
    results = []
    for variant in sweep_variants(config, thresholds):
        result = read(variant)
        if result is None:
            return None
        results.append(result)
    flat, *runs = results
    points = []
    for threshold, result in zip(thresholds, runs):
        if result.makespan <= 0:
            raise HarnessError(
                f"{config.benchmark}/threshold:{threshold}: zero makespan"
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
    return SweepResult(benchmark=config.benchmark, points=tuple(points))


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
    flat_config = RunConfig(benchmark=benchmark_name, scheme=sch.FLAT, seed=seed)
    return _read_sweep(flat_config, thresholds, runner.run)


def offline_choice(
    config: RunConfig, read: Callable[[RunConfig], Optional[SimResult]]
) -> Optional[RunConfig]:
    """Offline-Search's pick: ``config`` under its best ``threshold:<T>``.

    ``read`` answers each run of ``config``'s sweep (``Runner.run``
    simulates a missing one; ``Runner.cached`` makes the pick None).  The
    flat implementation is *not* a candidate: Offline-Search picks the
    best *DP* workload distribution; a benchmark that prefers ~0% offload
    expresses that through a large THRESHOLD.
    """
    sweep = _read_sweep(config, None, read)
    if sweep is None:
        return None
    best = sweep.best().threshold
    return dataclasses.replace(config, scheme=f"threshold:{best}")


def offline_search(
    runner: Runner,
    benchmark_name: str,
    *,
    seed: int = 1,
) -> Tuple[int, SimResult]:
    """Best static threshold and its run, the run ``runner.run`` answers
    for an ``offline`` config (the paper's Offline-Search)."""
    offline = RunConfig(benchmark=benchmark_name, scheme=sch.OFFLINE, seed=seed)
    best = offline_choice(offline, runner.run)
    return sch.SchemeSpec.parse(best.scheme).threshold, runner.run(best)
