"""SPAWN-style admission control for the simulation service.

The paper's controller (Algorithm 1, :mod:`repro.core.controller`)
estimates what a prospective child kernel would cost *before* launching
it, and either launches, runs the work in the parent thread, or declines.
This module applies the same idea to the serving layer, one level up:
every incoming simulation request is priced by an online cost model
before it may touch the worker pool.

The analogy, term for term (also tabulated in DESIGN §11):

=====================  ==============================================
SPAWN (Algorithm 1)    service (this module)
=====================  ==============================================
launch request         submitted :class:`RunConfig`
``t_cta == 0`` boot    no cost observation yet -> admit unconditionally
``t_child`` (Eq. 1)    predicted job seconds (windowed EWMA per pair)
``t_parent`` (Eq. 2)   inline threshold ("parent does the work")
``n + x <= max_q``     queue depth / predicted-delay deadline
launch                 admit to the batch scheduler
serialize in parent    run inline on the event-loop thread
(no SPAWN analog)      shed with :class:`~repro.errors.ServiceOverloaded`
=====================  ==============================================

The cost model mirrors :mod:`repro.core.metrics` in structure: a
windowed, exponentially-weighted average per ``benchmark/scheme`` pair
(the service's ``t_cta``), updated online as jobs complete, plus a
cycles-per-second throughput estimate for reporting.  Like the paper's
monitor, it starts empty — and like Algorithm 1 lines 2-3, requests with
no estimate are admitted unconditionally (the service deliberately
reproduces the paper's bootstrap behaviour, SSSP pathology and all).

Decision invariants (property-tested in ``tests/test_service_admission.py``,
mirroring the Algorithm 1 re-evaluation of :mod:`repro.check`):

* the verdict is *monotonic* in the predicted cost: growing cost can only
  move a request from ``inline`` to ``admit``/``shed``, never back;
* an empty queue never sheds (shedding depends only on backlog, exactly
  as the paper's capacity check depends only on ``n + x``);
* ``inline`` fires iff the predicted cost is at or below the small-job
  threshold (and never on bootstrap, which has no prediction);
* every ``shed`` decision carries its evidence: the predicted delay that
  exceeded the deadline, or the depth that hit the queue cap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from repro.errors import HarnessError

#: Admission verdicts.
ADMIT = "admit"  # hand the job to the batching scheduler (SPAWN: launch)
INLINE = "inline"  # run on the event-loop thread (SPAWN: serialize in parent)
SHED = "shed"  # reject with ServiceOverloaded (no SPAWN analog: GPUs queue)


class WindowedEWMA:
    """Exponentially-weighted average over a bounded observation window.

    The service-layer sibling of
    :class:`repro.core.metrics.WindowedConcurrencyAverage`: recent
    observations dominate (``alpha`` per update), and only the last
    ``window`` raw samples are retained for introspection, so a pair
    whose cost drifts (input regeneration, host contention) re-converges
    quickly instead of being anchored by ancient history.
    """

    def __init__(self, *, alpha: float = 0.3, window: int = 32):
        if not 0.0 < alpha <= 1.0:
            raise HarnessError(f"alpha must be in (0, 1], got {alpha}")
        if window < 1:
            raise HarnessError(f"window must be >= 1, got {window}")
        self.alpha = alpha
        self._samples: Deque[float] = deque(maxlen=window)
        self._value: Optional[float] = None

    def observe(self, sample: float) -> None:
        if sample < 0:
            raise HarnessError(f"observation must be >= 0, got {sample}")
        self._samples.append(sample)
        if self._value is None:
            self._value = sample
        else:
            self._value = self.alpha * sample + (1 - self.alpha) * self._value

    @property
    def value(self) -> Optional[float]:
        """Current estimate, or None before the first observation."""
        return self._value

    @property
    def count(self) -> int:
        """Samples currently inside the window."""
        return len(self._samples)


class CostModel:
    """Online per-``benchmark/scheme`` cost estimates (seconds + cycle rate).

    ``observe`` feeds one completed run: its wall-clock seconds and,
    when known, the simulated cycles it covered, maintaining both the
    seconds-per-run EWMA that admission decisions use and a
    cycles-per-second throughput EWMA for operators (``repro serve
    --stats`` prints it; it is the service's cycles/seconds analog of
    the paper's ``T`` estimate).
    """

    def __init__(self, *, alpha: float = 0.3, window: int = 32):
        self.alpha = alpha
        self.window = window
        self._seconds: Dict[Tuple[str, str], WindowedEWMA] = {}
        self._rate: Dict[Tuple[str, str], WindowedEWMA] = {}

    def _ewma(self, table, key) -> WindowedEWMA:
        ewma = table.get(key)
        if ewma is None:
            ewma = table[key] = WindowedEWMA(
                alpha=self.alpha, window=self.window
            )
        return ewma

    def observe(
        self,
        benchmark: str,
        scheme: str,
        seconds: float,
        *,
        cycles: Optional[float] = None,
    ) -> None:
        key = (benchmark, scheme)
        self._ewma(self._seconds, key).observe(seconds)
        if cycles is not None and seconds > 0:
            self._ewma(self._rate, key).observe(cycles / seconds)

    def predict(self, benchmark: str, scheme: str) -> Optional[float]:
        """Predicted seconds for one run, or None (bootstrap: no data)."""
        ewma = self._seconds.get((benchmark, scheme))
        return ewma.value if ewma is not None else None

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready per-pair estimates for stats reporting."""
        out: Dict[str, Dict[str, float]] = {}
        for (benchmark, scheme), ewma in sorted(self._seconds.items()):
            entry: Dict[str, float] = {
                "seconds": ewma.value,
                "samples": ewma.count,
            }
            rate = self._rate.get((benchmark, scheme))
            if rate is not None and rate.value is not None:
                entry["cycles_per_second"] = rate.value
            out[f"{benchmark}/{scheme}"] = entry
        return out


@dataclass(frozen=True)
class AdmissionDecision:
    """One admission verdict plus the evidence it was computed from."""

    verdict: str  # ADMIT | INLINE | SHED
    bootstrap: bool  # True when no cost estimate existed (always admits)
    predicted_cost_s: Optional[float]  # EWMA estimate; None on bootstrap
    predicted_delay_s: float  # backlog_seconds / workers at decision time
    deadline_s: Optional[float]  # the shed deadline in force (None = off)
    queue_depth: int  # admitted-but-unfinished jobs at decision time

    def evidence(self) -> Dict[str, object]:
        """Flat dict attached to ServiceOverloaded / tracer events."""
        return {
            "verdict": self.verdict,
            "bootstrap": self.bootstrap,
            "predicted_cost_s": self.predicted_cost_s,
            "predicted_delay_s": self.predicted_delay_s,
            "deadline_s": self.deadline_s,
            "queue_depth": self.queue_depth,
        }


class AdmissionController:
    """Prices requests against live queue state; Algorithm 1, one level up.

    The controller tracks the *predicted* backlog — the sum of cost
    estimates of every admitted-but-unfinished job — exactly as the
    paper's controller tracks ``n``, the CCQS population.  ``classify``
    is the pure decision function over (predicted cost, queue state);
    ``decide`` is the keyed wrapper the service calls.
    """

    def __init__(
        self,
        model: CostModel,
        *,
        workers: int = 2,
        deadline_s: Optional[float] = None,
        inline_threshold_s: float = 0.0,
        max_queue: Optional[int] = None,
    ):
        if workers < 1:
            raise HarnessError(f"workers must be >= 1, got {workers}")
        if deadline_s is not None and deadline_s <= 0:
            raise HarnessError(f"deadline must be positive, got {deadline_s}")
        if inline_threshold_s < 0:
            raise HarnessError(
                f"inline threshold must be >= 0, got {inline_threshold_s}"
            )
        if max_queue is not None and max_queue < 1:
            raise HarnessError(f"max_queue must be >= 1, got {max_queue}")
        self.model = model
        self.workers = workers
        self.deadline_s = deadline_s
        self.inline_threshold_s = inline_threshold_s
        self.max_queue = max_queue
        #: Predicted seconds of admitted-but-unfinished work (the "n").
        self.backlog_seconds = 0.0
        #: Admitted-but-unfinished job count.
        self.queue_depth = 0

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def predicted_delay(self) -> float:
        """Seconds a new arrival is predicted to wait behind the queue."""
        return self.backlog_seconds / self.workers

    def classify(self, predicted_cost_s: Optional[float]) -> AdmissionDecision:
        """The pure verdict for one request given the current queue state.

        Branch order mirrors Algorithm 1: bootstrap launches
        unconditionally (lines 2-3); small jobs run in the parent (the
        ``t_child > t_parent`` serialize branch); then the capacity
        check — here a predicted-delay deadline and an optional depth
        cap, both independent of the request's own cost, so an empty
        queue can never shed and the verdict stays monotonic in cost.
        """
        delay = self.predicted_delay()
        if predicted_cost_s is None:
            return self._decision(ADMIT, True, None, delay)
        if predicted_cost_s <= self.inline_threshold_s:
            return self._decision(INLINE, False, predicted_cost_s, delay)
        if self.max_queue is not None and self.queue_depth >= self.max_queue:
            return self._decision(SHED, False, predicted_cost_s, delay)
        if self.deadline_s is not None and delay > self.deadline_s:
            return self._decision(SHED, False, predicted_cost_s, delay)
        return self._decision(ADMIT, False, predicted_cost_s, delay)

    def decide(self, benchmark: str, scheme: str) -> AdmissionDecision:
        """Price one request through the cost model and classify it."""
        return self.classify(self.model.predict(benchmark, scheme))

    def _decision(
        self,
        verdict: str,
        bootstrap: bool,
        cost: Optional[float],
        delay: float,
    ) -> AdmissionDecision:
        return AdmissionDecision(
            verdict=verdict,
            bootstrap=bootstrap,
            predicted_cost_s=cost,
            predicted_delay_s=delay,
            deadline_s=self.deadline_s,
            queue_depth=self.queue_depth,
        )

    # ------------------------------------------------------------------
    # Backlog bookkeeping (the service calls these around job lifetimes)
    # ------------------------------------------------------------------
    def on_admitted(self, decision: AdmissionDecision) -> None:
        """An admitted job joined the queue: grow the predicted backlog.

        Bootstrap jobs carry no estimate and contribute zero backlog —
        faithfully reproducing Algorithm 1's blind spot (all bootstrap
        launches are in flight before the first feedback arrives).
        """
        self.queue_depth += 1
        if decision.predicted_cost_s is not None:
            self.backlog_seconds += decision.predicted_cost_s

    def on_finished(self, decision: AdmissionDecision) -> None:
        """The matching job left the queue: shrink the backlog again."""
        self.queue_depth = max(self.queue_depth - 1, 0)
        if decision.predicted_cost_s is not None:
            self.backlog_seconds = max(
                self.backlog_seconds - decision.predicted_cost_s, 0.0
            )
