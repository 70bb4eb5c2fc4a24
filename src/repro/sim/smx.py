"""SMX (streaming multiprocessor) model.

Each SMX is a processor-sharing server over its resident CTAs.  A CTA's
*work* is its critical-path latency in cycles (the slowest of its warps,
stalls included); its *demand* is the issue-slot occupancy of its warps.
When the summed demand of resident CTAs exceeds the SMX's issue capacity,
everything slows down uniformly by ``capacity / total_demand`` —
proportional-share scheduling, which is what a fine-grained GTO warp
scheduler averages out to at the timescales the paper's mechanism operates
on.

This is the component that reproduces the paper's utilization story: a lone
lightweight child CTA leaves most issue slots idle (Fig. 6's low
utilization tail), while a healthy mix of parent and child CTAs keeps the
SMX saturated.

Besides completions, the SMX also surfaces *decision points*: progress
positions at which a resident parent CTA's threads execute their device
launch calls (see :class:`repro.sim.instances.PendingDecision`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.config import GPUConfig
from repro.sim.instances import EPSILON, CTAInstance


class SMXResources:
    """Resource accounting of one SMX: residency caps and issue demand.

    Shared by :class:`SMX` and the scalar reference SMX in
    :mod:`repro.check.reference`; progress integration is each subclass's
    own.
    """

    __slots__ = ("index", "config", "capacity", "resident", "used_threads",
                 "used_regs", "used_shmem", "used_warps", "_total_demand",
                 "_last_update")

    def __init__(self, index: int, config: GPUConfig):
        self.index = index
        self.config = config
        self.capacity = config.issue_width
        self.resident: List[CTAInstance] = []
        self.used_threads = 0
        self.used_regs = 0
        self.used_shmem = 0
        self.used_warps = 0
        self._total_demand = 0.0
        self._last_update = 0.0

    def can_fit(self, *, threads: int, regs: int, shmem: int) -> bool:
        cfg = self.config
        return (
            len(self.resident) < cfg.max_ctas_per_smx
            and self.used_threads + threads <= cfg.max_threads_per_smx
            and self.used_regs + regs <= cfg.registers_per_smx
            and self.used_shmem + shmem <= cfg.shared_mem_per_smx
        )

    @property
    def has_free_cta_slot(self) -> bool:
        return len(self.resident) < self.config.max_ctas_per_smx

    @property
    def num_resident(self) -> int:
        return len(self.resident)

    @property
    def scale(self) -> float:
        """Current uniform progress rate of resident CTAs (<= 1)."""
        if self._total_demand <= self.capacity:
            return 1.0
        return self.capacity / self._total_demand

    @property
    def compute_utilization(self) -> float:
        """Fraction of issue capacity in use."""
        return min(self._total_demand, self.capacity) / self.capacity

    def _backwards(self, now: float) -> SimulationError:
        return SimulationError(
            f"SMX {self.index} asked to advance backwards "
            f"({self._last_update} -> {now})"
        )

    def _check_fits(self, cta: CTAInstance) -> None:
        if not self.can_fit(threads=cta.num_threads, regs=cta.regs,
                            shmem=cta.shmem):
            raise SimulationError(f"CTA {cta!r} does not fit on SMX {self.index}")

    def _occupy(self, cta: CTAInstance) -> None:
        cta.smx_index = self.index
        self.resident.append(cta)
        self.used_threads += cta.num_threads
        self.used_regs += cta.regs
        self.used_shmem += cta.shmem
        self.used_warps += cta.num_warps
        self._total_demand += cta.demand

    def _release(self, cta: CTAInstance) -> None:
        """Give back a (no longer resident) CTA's resources and demand."""
        self.used_threads -= cta.num_threads
        self.used_regs -= cta.regs
        self.used_shmem -= cta.shmem
        self.used_warps -= cta.num_warps
        self._total_demand -= cta.demand
        if self._total_demand < EPSILON:
            self._total_demand = 0.0
        cta.smx_index = -1

    def _shift_demand(self, cta: CTAInstance) -> None:
        old = cta.demand
        new = cta.refresh_demand()
        self._total_demand += new - old
        if self._total_demand < EPSILON:
            self._total_demand = 0.0

    def snapshot(self) -> Tuple[int, int, int, int]:
        """(ctas, warps, regs, shmem) currently in use."""
        return (len(self.resident), self.used_warps, self.used_regs, self.used_shmem)

    # ------------------------------------------------------------------
    # Conformance
    # ------------------------------------------------------------------
    def check_invariants(self) -> List[str]:
        """Internal-consistency audit used by :mod:`repro.check`.

        Verifies that the incrementally maintained resource counters and
        demand sum match a from-scratch recomputation over the resident
        CTAs, and that residency respects the configured caps.  Returns a
        list of human-readable violation messages (empty when healthy).
        """
        problems: List[str] = []
        cfg = self.config
        sums = {
            "used_threads": sum(c.num_threads for c in self.resident),
            "used_warps": sum(c.num_warps for c in self.resident),
            "used_regs": sum(c.regs for c in self.resident),
            "used_shmem": sum(c.shmem for c in self.resident),
        }
        for name, expected in sums.items():
            actual = getattr(self, name)
            if actual != expected:
                problems.append(
                    f"SMX {self.index}: {name}={actual} but residents sum "
                    f"to {expected}"
                )
        demand = sum(c.demand for c in self.resident)
        if abs(self._total_demand - demand) > 1e-6 * max(1.0, demand):
            problems.append(
                f"SMX {self.index}: total_demand={self._total_demand} but "
                f"residents sum to {demand}"
            )
        caps = (
            (len(self.resident), cfg.max_ctas_per_smx, "CTAs"),
            (self.used_threads, cfg.max_threads_per_smx, "threads"),
            (self.used_regs, cfg.registers_per_smx, "registers"),
            (self.used_shmem, cfg.shared_mem_per_smx, "shared memory"),
        )
        for used, cap, what in caps:
            if used > cap:
                problems.append(
                    f"SMX {self.index}: {used} {what} resident, cap {cap}"
                )
        return problems


class SMX(SMXResources):
    """Processor-sharing progress over columnar resident-CTA state.

    ``_consumed`` / ``_total`` / ``_target`` / ``_has_dec`` are
    row-aligned with ``resident``.  While a CTA is resident its progress
    lives in ``_consumed`` (``CTAInstance.consumed`` reads through to it,
    see :attr:`~repro.sim.instances.CTAInstance.consumed`).  A CTA's
    critical path and next target are copied at placement and at
    :meth:`refresh_demand`, which the engine calls after every decision
    pass that changed them.  Every arithmetic statement is the per-CTA
    scalar statement applied row by row, so the stored float64 values are
    those of the scalar model.

    The columns are plain lists, not numpy: residency is capped at
    ``max_ctas_per_smx`` (16 in the paper's configuration), and at that
    size numpy's per-call overhead makes every operation slower.

    Two caches turn the engine's per-event scans into O(1) checks:

    * The event horizon ``min(next_target - consumed)`` is cached until
      the clock moves or a resident changes.  Placements at the same
      timestamp update it incrementally (``min`` is order-independent,
      so the incremental value equals the full reduction bit for bit);
      that makes the engine's reschedule-after-every-placement O(1).
    * ``_dec_count`` counts residents that had a pending decision when
      last seen (at placement or :meth:`refresh_demand`).  Decisions never
      appear on a resident CTA, so the count is an upper bound, and zero
      means the fired-decision scan can be skipped.
    """

    __slots__ = ("_consumed", "_total", "_target", "_has_dec", "_dec_count",
                 "_slack", "_slack_valid")

    def __init__(self, index: int, config: GPUConfig):
        super().__init__(index, config)
        self._consumed: List[float] = []
        self._total: List[float] = []
        self._target: List[float] = []
        self._has_dec: List[bool] = []
        self._dec_count = 0
        self._slack = 0.0
        self._slack_valid = False

    def consumed_of(self, cta: CTAInstance) -> float:
        """Progress of a resident CTA."""
        return self._consumed[self.resident.index(cta)]

    # ------------------------------------------------------------------
    # Progress integration
    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Integrate progress of resident CTAs up to ``now``."""
        last = self._last_update
        if now <= last:
            if now - last < -EPSILON:
                raise self._backwards(now)
            return
        consumed = self._consumed
        if consumed:
            step = self.scale * (now - last)
            total = self._total
            for i in range(len(consumed)):
                c = consumed[i] + step
                t = total[i]
                consumed[i] = c if c < t else t
            self._slack_valid = False
        self._last_update = now

    def add(self, cta: CTAInstance, now: float) -> None:
        """Place a CTA on this SMX (caller must have checked ``can_fit``)."""
        self._check_fits(cta)
        self.advance(now)
        self._occupy(cta)
        self._consumed.append(cta._consumed)
        cta._host = self
        self._total.append(cta.total_work)
        self._target.append(cta.next_target)
        has_dec = cta.next_decision < len(cta.decisions)
        self._has_dec.append(has_dec)
        if has_dec:
            self._dec_count += 1
        if self._slack_valid:
            slack = cta.next_target - cta._consumed
            if slack < self._slack:
                self._slack = slack

    def _drop_row(self, i: int) -> CTAInstance:
        """Detach row ``i``, writing its progress back to the CTA."""
        cta = self.resident.pop(i)
        cta._consumed = self._consumed.pop(i)
        cta._host = None
        del self._total[i]
        del self._target[i]
        if self._has_dec.pop(i):
            self._dec_count -= 1
        return cta

    def remove(self, cta: CTAInstance, now: float) -> None:
        self.advance(now)
        try:
            i = self.resident.index(cta)
        except ValueError:
            raise SimulationError(
                f"CTA {cta!r} not resident on SMX {self.index}"
            ) from None
        self._release(self._drop_row(i))
        self._slack_valid = False

    def refresh_demand(self, cta: CTAInstance, now: float) -> None:
        """Re-derive a resident CTA's demand after its warp work changed.

        The caller must have already advanced this SMX to ``now`` (decision
        processing does), so the demand change applies from ``now`` onward.
        It is also how the SMX learns that the CTA's decisions advanced.
        """
        self.advance(now)
        self._shift_demand(cta)
        i = self.resident.index(cta)
        self._total[i] = cta.total_work
        self._target[i] = cta.next_target
        has_dec = cta.next_decision < len(cta.decisions)
        if has_dec != self._has_dec[i]:
            self._dec_count += 1 if has_dec else -1
            self._has_dec[i] = has_dec
        self._slack_valid = False

    # ------------------------------------------------------------------
    # Event horizon
    # ------------------------------------------------------------------
    def next_event_time(self, now: float) -> Optional[float]:
        """Earliest completion *or* decision-point crossing, or None.

        All resident CTAs progress at the same rate, so the horizon is
        ``now + min(next_target - consumed) / rate``.
        """
        if not self.resident:
            return None
        self.advance(now)
        if self._slack_valid:
            slack = self._slack
        else:
            consumed = self._consumed
            target = self._target
            slack = min(target[i] - consumed[i] for i in range(len(consumed)))
            self._slack = slack
            self._slack_valid = True
        if slack <= 0.0:
            return now
        return now + slack / self.scale

    def ctas_with_fired_decisions(self) -> List[CTAInstance]:
        """Resident CTAs whose next decision point has been crossed."""
        if self._dec_count == 0:
            return []
        resident = self.resident
        consumed = self._consumed
        return [
            cta
            for i, cta in enumerate(resident)
            if cta.next_decision < len(cta.decisions)
            and cta.next_target <= consumed[i] + EPSILON
        ]

    def pop_finished(self, now: float) -> List[CTAInstance]:
        """Advance to ``now`` and detach every CTA whose compute is done."""
        self.advance(now)
        resident = self.resident
        consumed = self._consumed
        total = self._total
        rows = [
            i
            for i in range(len(resident))
            if consumed[i] >= total[i] - EPSILON
            and resident[i].next_decision >= len(resident[i].decisions)
        ]
        if not rows:
            return []
        # Drop rows from the highest index so lower row numbers stay valid,
        # then release in resident order: the sequential demand subtraction
        # (with its underflow clamp) matches remove() once per CTA.
        finished = [self._drop_row(i) for i in reversed(rows)]
        finished.reverse()
        for cta in finished:
            self._release(cta)
        self._slack_valid = False
        return finished
