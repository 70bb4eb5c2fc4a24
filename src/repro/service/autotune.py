"""Online autotuning: successive halving over the Offline-Search grid.

The paper's Offline-Search finds the best static THRESHOLD by exhaustive
sweep *before* any traffic arrives (Section III-A); KLARAPTOR
(arXiv:1911.02373) instead fits performance models at runtime and picks
launch parameters on the fly.  This module combines them one level up,
in the serving layer: live traffic *is* the sweep.  Each
``(benchmark, scheme family)`` pair gets a bandit running **successive
halving** over exactly the grid Offline-Search would have swept —

* ``threshold`` family (``baseline-dp`` / ``spawn`` / ``dtbl`` /
  ``threshold:<T>`` requests): the benchmark's ``sweep_thresholds``
  rendered as ``threshold:<T>`` arms, the Fig. 5 grid;
* ``consolidate`` family: merged-kernel batch sizes
  (:data:`CONSOLIDATE_BATCH_GRID`) as ``consolidate:<B>`` arms;
* ``aggregate`` family: the three aggregation granularities.

Tunable requests are rewritten to the tuner's current proposal before
they reach coalescing/cache/admission, so the service's own dedup
machinery makes repeat pulls of an arm free, and every completion —
inline, batched, or cache-served — feeds one observation back.  The
objective is the run's **makespan** (simulated cycles): deterministic,
bit-identical across hosts, and exactly what Offline-Search minimizes,
so a converged tuner lands on the Offline-Search-best arm.  Wall-clock
seconds (the :class:`~repro.service.admission.CostModel` signal) are the
fallback objective when a completion carries no makespan.

Determinism contract (property-tested in ``tests/test_autotune.py``):

* the tuner is a pure function of ``(arms, seed, observation sequence)``
  — the seed only permutes the exploration order;
* a proposal is always a grid arm (never anything else);
* each elimination round keeps the better ``ceil(alive / 2)`` arms, so
  halving terminates after exactly ``ceil(log2(len(arms)))`` rounds;
* the per-round incumbent cost is monotone non-increasing under
  deterministic per-arm costs (the makespan objective guarantees that).

Warm start: on first contact with a pair, any arm whose run is already
in the :class:`~repro.harness.runner.Runner` caches (memory or the
persistent :class:`~repro.harness.store.ResultStore`) is credited with
its stored makespan as a free pull — a service started over a store an
earlier service or suite filled inherits that completed exploration.
"""

from __future__ import annotations

import math
import random
import time
import zlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import HarnessError
from repro.harness import schemes as sch
from repro.harness.runner import RunConfig, Runner
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import (
    NULL_TRACER,
    SERVICE_AUTOTUNE_ARM,
    SERVICE_AUTOTUNE_CONVERGED,
    SERVICE_AUTOTUNE_ROUND,
    SERVICE_AUTOTUNE_WARM,
    Tracer,
)
from repro.workloads.base import get_benchmark

#: Scheme families the tuner searches.
THRESHOLD_FAMILY = "threshold"
CONSOLIDATE_FAMILY = "consolidate"
AGGREGATE_FAMILY = "aggregate"

#: Merged-kernel batch sizes swept for the ``consolidate`` family.
CONSOLIDATE_BATCH_GRID: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)

#: Schemes that pin a family but are themselves tunable *parameters* of
#: it (a ``threshold:64`` request still searches the whole grid).
_THRESHOLD_SCHEMES = (sch.BASELINE_DP, sch.SPAWN, sch.DTBL)


def family_of(scheme: str) -> Optional[str]:
    """The tunable family of ``scheme``, or None when it is not tunable.

    ``flat`` has no launch parameters; ``offline`` is already the sweep's
    answer; ``acs`` reorders queue binding rather than admitting by a
    swept parameter — none of them autotune.
    """
    if scheme in _THRESHOLD_SCHEMES or scheme.startswith("threshold:"):
        return THRESHOLD_FAMILY
    if scheme == sch.CONSOLIDATE or scheme.startswith(f"{sch.CONSOLIDATE}:"):
        return CONSOLIDATE_FAMILY
    if scheme.startswith(f"{sch.AGGREGATE}:"):
        return AGGREGATE_FAMILY
    return None


def arm_grid(benchmark: str, family: str) -> Tuple[str, ...]:
    """The sweep grid for one ``(benchmark, family)`` pair, as schemes."""
    if family == THRESHOLD_FAMILY:
        thresholds = get_benchmark(benchmark).sweep_thresholds
        return tuple(f"threshold:{t}" for t in thresholds)
    if family == CONSOLIDATE_FAMILY:
        return tuple(f"{sch.CONSOLIDATE}:{b}" for b in CONSOLIDATE_BATCH_GRID)
    if family == AGGREGATE_FAMILY:
        return tuple(
            f"{sch.AGGREGATE}:{g}" for g in sch.AGGREGATE_GRANULARITIES
        )
    raise HarnessError(f"unknown autotune family {family!r}")


@dataclass
class ArmState:
    """Observation ledger of one arm."""

    scheme: str
    pulls: int = 0
    total_cost: float = 0.0
    warm_pulls: int = 0  # pulls credited from the store at warm start

    @property
    def mean_cost(self) -> Optional[float]:
        return self.total_cost / self.pulls if self.pulls else None


@dataclass(frozen=True)
class RoundSummary:
    """One elimination round, as recorded in the tuner's history."""

    round: int  # 1-based index of the cut that produced this state
    alive: Tuple[str, ...]  # survivors, best mean cost first
    eliminated: Tuple[str, ...]  # arms cut this round
    incumbent: str  # best surviving arm at cut time
    incumbent_cost: float  # its mean observed cost


class SuccessiveHalvingTuner:
    """Deterministic successive halving over a fixed arm grid.

    ``propose()`` names the arm the next pull should run; ``observe()``
    feeds one completed pull's cost back.  When every alive arm has
    reached the current round's cumulative quota
    (``pulls_per_round * (round + 1)`` observations), the worse half is
    eliminated; the survivor of the final round is the incumbent and
    ``propose()`` returns it forever.  All tie-breaks are by grid order,
    and the only randomness is a seeded shuffle of the exploration
    order, so the whole trajectory is a pure function of
    ``(arms, seed, observation sequence)``.
    """

    def __init__(
        self,
        arms: Sequence[str],
        *,
        seed: int = 0,
        pulls_per_round: int = 1,
    ):
        arms = tuple(arms)
        if not arms:
            raise HarnessError("tuner needs at least one arm")
        if len(set(arms)) != len(arms):
            raise HarnessError(f"duplicate arms in grid: {arms}")
        if pulls_per_round < 1:
            raise HarnessError(
                f"pulls_per_round must be >= 1, got {pulls_per_round}"
            )
        self.arms = arms
        self.seed = seed
        self.pulls_per_round = pulls_per_round
        self._states: Dict[str, ArmState] = {
            scheme: ArmState(scheme) for scheme in arms
        }
        order = list(arms)
        random.Random(seed).shuffle(order)
        #: Alive arms in exploration order (seeded permutation of the grid).
        self._alive: List[str] = order
        self.round = 0
        #: Rounds a full halving takes: ceil(n/2) per cut reaches one
        #: survivor in exactly ceil(log2(n)) cuts.
        self.rounds_total = (
            math.ceil(math.log2(len(arms))) if len(arms) > 1 else 0
        )
        self.total_pulls = 0
        self.history: List[RoundSummary] = []

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def alive(self) -> Tuple[str, ...]:
        """Surviving arms, in exploration order."""
        return tuple(self._alive)

    @property
    def converged(self) -> bool:
        return len(self._alive) == 1

    def state(self, scheme: str) -> ArmState:
        try:
            return self._states[scheme]
        except KeyError:
            raise HarnessError(
                f"{scheme!r} is not an arm of this grid: {self.arms}"
            ) from None

    def _quota(self) -> int:
        return self.pulls_per_round * (self.round + 1)

    def incumbent(self) -> Optional[Tuple[str, float]]:
        """Best (arm, mean cost) among observed alive arms, or None."""
        best: Optional[Tuple[str, float]] = None
        for scheme in self._alive:
            mean = self._states[scheme].mean_cost
            if mean is None:
                continue
            if best is None or mean < best[1]:
                best = (scheme, mean)
        return best

    def regret_estimate(self) -> Optional[float]:
        """Mean cost paid per pull so far, minus the incumbent's mean.

        The exploration overhead of tuning online: 0 means every pull ran
        the best-known arm; it shrinks toward 0 as the halving narrows.
        """
        incumbent = self.incumbent()
        if incumbent is None or self.total_pulls == 0:
            return None
        paid = sum(s.total_cost for s in self._states.values())
        return max(paid / self.total_pulls - incumbent[1], 0.0)

    # ------------------------------------------------------------------
    # The search
    # ------------------------------------------------------------------
    def propose(self) -> str:
        """The arm the next pull should run.  Always a grid arm.

        The first alive arm (exploration order) still short of the
        current round's quota; the incumbent once converged.  Between a
        proposal and its observation the answer does not change, so
        concurrent duplicate requests coalesce onto one simulation.
        """
        if not self.converged:
            quota = self._quota()
            for scheme in self._alive:
                if self._states[scheme].pulls < quota:
                    return scheme
        return self._alive[0]

    def observe(self, scheme: str, cost: float, *, warm: bool = False) -> bool:
        """Record one completed pull; returns True if a round was cut.

        Observations for already-eliminated arms (in flight when the cut
        happened) are recorded but cannot resurrect the arm.
        """
        state = self.state(scheme)
        if cost < 0:
            raise HarnessError(f"cost must be >= 0, got {cost}")
        state.pulls += 1
        state.total_cost += cost
        if warm:
            state.warm_pulls += 1
        self.total_pulls += 1
        cut = False
        while not self.converged and all(
            self._states[s].pulls >= self._quota() for s in self._alive
        ):
            self._cut()
            cut = True
        return cut

    def _cut(self) -> None:
        """Eliminate the worse half of the alive arms (grid-order ties)."""
        ranked = sorted(
            self._alive,
            key=lambda s: (self._states[s].mean_cost, self.arms.index(s)),
        )
        keep = math.ceil(len(self._alive) / 2)
        survivors = set(ranked[:keep])
        eliminated = tuple(s for s in self._alive if s not in survivors)
        self._alive = [s for s in self._alive if s in survivors]
        self.round += 1
        best = ranked[0]
        self.history.append(
            RoundSummary(
                round=self.round,
                alive=tuple(ranked[:keep]),
                eliminated=eliminated,
                incumbent=best,
                incumbent_cost=self._states[best].mean_cost,
            )
        )

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready state for stats reporting."""
        incumbent = self.incumbent()
        return {
            "arms": len(self.arms),
            "arms_alive": len(self._alive),
            "round": self.round,
            "rounds_total": self.rounds_total,
            "pulls": self.total_pulls,
            "warm_pulls": sum(s.warm_pulls for s in self._states.values()),
            "converged": self.converged,
            "incumbent": incumbent[0] if incumbent else None,
            "incumbent_cost": incumbent[1] if incumbent else None,
            "regret_estimate": self.regret_estimate(),
        }


class AutoTuner:
    """Per-(benchmark, family) tuners behind one service-facing façade.

    :meth:`rewrite` maps an incoming tunable request onto its pair's
    current proposal (identity for non-tunable schemes);
    :meth:`observe` routes a completion's cost back to the owning tuner.
    Tuners are created lazily on first contact with a pair and
    warm-started from the runner's caches, so a persistent store lets a
    new service inherit the exploration earlier ones completed.
    """

    def __init__(
        self,
        *,
        runner: Optional[Runner] = None,
        pulls_per_round: int = 1,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if pulls_per_round < 1:
            raise HarnessError(
                f"pulls_per_round must be >= 1, got {pulls_per_round}"
            )
        self.runner = runner
        self.pulls_per_round = pulls_per_round
        self.seed = seed
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tuners: Dict[Tuple[str, str], SuccessiveHalvingTuner] = {}

    # ------------------------------------------------------------------
    # Tuner lifecycle
    # ------------------------------------------------------------------
    @staticmethod
    def pair_name(benchmark: str, family: str) -> str:
        return f"{benchmark}/{family}"

    def _pair_seed(self, benchmark: str, family: str) -> int:
        # Per-pair exploration order, stable across processes (crc32, not
        # the salted builtin hash).
        return self.seed ^ zlib.crc32(
            self.pair_name(benchmark, family).encode("utf-8")
        )

    def tuner_for(
        self, benchmark: str, family: str, *, template: Optional[RunConfig] = None
    ) -> SuccessiveHalvingTuner:
        """The pair's tuner, created (and warm-started) on first use."""
        key = (benchmark, family)
        tuner = self._tuners.get(key)
        if tuner is None:
            tuner = SuccessiveHalvingTuner(
                arm_grid(benchmark, family),
                seed=self._pair_seed(benchmark, family),
                pulls_per_round=self.pulls_per_round,
            )
            self._tuners[key] = tuner
            self._warm_start(benchmark, family, tuner, template)
        return tuner

    def _warm_start(
        self,
        benchmark: str,
        family: str,
        tuner: SuccessiveHalvingTuner,
        template: Optional[RunConfig],
    ) -> None:
        """Credit arms already simulated (memory or shared store)."""
        if self.runner is None:
            return
        if template is None:
            template = RunConfig(benchmark=benchmark, scheme=tuner.arms[0])
        pair = self.pair_name(benchmark, family)
        for arm in tuner.arms:
            cached = self.runner.cached(replace(template, scheme=arm))
            if cached is None:
                continue
            tuner.observe(arm, float(cached.makespan), warm=True)
            self._emit(
                SERVICE_AUTOTUNE_WARM,
                pair=pair, arm=arm, cost=float(cached.makespan),
            )
        if tuner.converged:
            self._emit_converged(pair, tuner)

    # ------------------------------------------------------------------
    # The service-facing surface
    # ------------------------------------------------------------------
    def rewrite(self, config: RunConfig) -> RunConfig:
        """Apply the pair's current proposal to one tunable request.

        Non-tunable schemes pass through untouched.  The returned config
        is what the service should coalesce/cache/run — identical
        proposals dedup onto one simulation, which is what makes repeat
        pulls free.
        """
        family = family_of(config.scheme)
        if family is None:
            return config
        tuner = self.tuner_for(config.benchmark, family, template=config)
        arm = tuner.propose()
        self.metrics.counter(
            "autotune.proposals_total",
            pair=self.pair_name(config.benchmark, family),
        ).inc()
        if arm == config.scheme:
            return config
        self._emit(
            SERVICE_AUTOTUNE_ARM,
            pair=self.pair_name(config.benchmark, family),
            requested=config.scheme, arm=arm,
        )
        return replace(config, scheme=arm)

    def observe(
        self,
        config: RunConfig,
        *,
        seconds: Optional[float] = None,
        makespan: Optional[float] = None,
    ) -> None:
        """Feed one completion back to the owning tuner.

        Prefers the deterministic makespan objective; falls back to
        wall-clock seconds.  Completions for pairs never proposed, or
        schemes outside the pair's grid, are ignored.
        """
        family = family_of(config.scheme)
        if family is None:
            return
        tuner = self._tuners.get((config.benchmark, family))
        if tuner is None or config.scheme not in tuner.arms:
            return
        cost = makespan if makespan is not None else seconds
        if cost is None:
            return
        pair = self.pair_name(config.benchmark, family)
        was_converged = tuner.converged
        rounds_before = len(tuner.history)
        tuner.observe(config.scheme, float(cost))
        for summary in tuner.history[rounds_before:]:
            self._emit(
                SERVICE_AUTOTUNE_ROUND,
                pair=pair, round=summary.round,
                alive=list(summary.alive),
                eliminated=list(summary.eliminated),
                incumbent=summary.incumbent,
                incumbent_cost=summary.incumbent_cost,
            )
        if tuner.converged and not was_converged:
            self._emit_converged(pair, tuner)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-pair tuner state, JSON-ready (``repro serve --stats-json``)."""
        return {
            self.pair_name(benchmark, family): tuner.snapshot()
            for (benchmark, family), tuner in sorted(self._tuners.items())
        }

    def _emit_converged(
        self, pair: str, tuner: SuccessiveHalvingTuner
    ) -> None:
        incumbent = tuner.incumbent()
        self._emit(
            SERVICE_AUTOTUNE_CONVERGED,
            pair=pair,
            incumbent=incumbent[0] if incumbent else tuner.alive[0],
            rounds=tuner.round, pulls=tuner.total_pulls,
        )

    def _emit(self, kind: str, **args) -> None:
        if self.tracer.enabled:
            self.tracer.emit(kind, ts=time.perf_counter(), **args)
