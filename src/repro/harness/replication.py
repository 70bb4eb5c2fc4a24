"""Seed replication: run schemes across input seeds and aggregate.

The paper reports single-input results; a reproduction should show its
conclusions are not one-seed artifacts.  ``replicate`` re-generates each
benchmark's synthetic input under several seeds, re-runs the requested
schemes, and reports per-scheme speedup statistics over the flat variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import HarnessError
from repro.harness.runner import RunConfig, Runner


@dataclass(frozen=True)
class SchemeStats:
    """Speedup-over-flat statistics for one scheme across seeds."""

    scheme: str
    speedups: Tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(self.speedups) / len(self.speedups)

    @property
    def std(self) -> float:
        if len(self.speedups) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(
            sum((s - mu) ** 2 for s in self.speedups) / (len(self.speedups) - 1)
        )

    @property
    def min(self) -> float:
        return min(self.speedups)

    @property
    def max(self) -> float:
        return max(self.speedups)

    def always_above(self, bound: float) -> bool:
        """True if every seed's speedup exceeds ``bound``."""
        return all(s > bound for s in self.speedups)


@dataclass(frozen=True)
class ReplicationResult:
    benchmark: str
    seeds: Tuple[int, ...]
    stats: Dict[str, SchemeStats]

    def scheme(self, name: str) -> SchemeStats:
        try:
            return self.stats[name]
        except KeyError:
            raise HarnessError(
                f"scheme {name!r} was not part of this replication"
            ) from None

    def consistently_ordered(self, faster: str, slower: str) -> bool:
        """True if ``faster`` beats ``slower`` on every seed."""
        fast = self.scheme(faster).speedups
        slow = self.scheme(slower).speedups
        return all(f > s for f, s in zip(fast, slow))


def replicate(
    benchmark: str,
    *,
    schemes: Sequence[str] = ("baseline-dp", "spawn"),
    seeds: Sequence[int] = (1, 2, 3),
    runner: Optional[Runner] = None,
) -> ReplicationResult:
    """Run ``schemes`` on ``benchmark`` across ``seeds``; aggregate speedups.

    To run the seed/scheme grid in parallel, fan it out through
    :meth:`~repro.harness.parallel.ParallelRunner.run_suite` on
    ``runner`` first; the aggregation then reads cache hits.
    """
    if not seeds:
        raise HarnessError("replication needs at least one seed")
    if not schemes:
        raise HarnessError("replication needs at least one scheme")
    runner = runner or Runner()
    stats: Dict[str, SchemeStats] = {}
    for scheme in schemes:
        speedups = []
        for seed in seeds:
            flat = runner.run(RunConfig(benchmark=benchmark, scheme="flat", seed=seed))
            result = runner.run(RunConfig(benchmark=benchmark, scheme=scheme, seed=seed))
            speedups.append(flat.makespan / result.makespan)
        stats[scheme] = SchemeStats(scheme=scheme, speedups=tuple(speedups))
    return ReplicationResult(
        benchmark=benchmark, seeds=tuple(seeds), stats=stats
    )
