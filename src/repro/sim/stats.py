"""Statistics collected during a simulation run.

Everything the paper's evaluation section plots is derived from the fields
here: makespan/speedup (Fig. 5, 15, 21), SMX occupancy (Fig. 16), L2 hit rate
(Fig. 17), child-kernel counts (Fig. 18), concurrency/utilization timelines
(Fig. 6, 19), cumulative launch CDFs (Fig. 20), and child-CTA execution time
distributions (Fig. 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter, ne
from typing import Collection, Dict, Iterable, List, Optional

# ---------------------------------------------------------------------------
# Strict-JSON float handling.
#
# ``json.dumps`` happily emits ``NaN``/``Infinity`` literals, which are NOT
# JSON — any strict parser (and ``json.loads(..., parse_constant=...)``
# hardening) rejects the stored result.  Derived stats can legitimately be
# non-finite (a zero-duration run, a degenerate hit rate), so serialization
# tags them explicitly instead of hoping they never occur:
# ``float("nan")`` <-> ``{"$float": "nan"}``, ditto ``"inf"`` / ``"-inf"``.
# ---------------------------------------------------------------------------
_NONFINITE_DECODE = {
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
}


def encode_json_floats(value):
    """Recursively replace non-finite floats with strict-JSON-safe tags."""
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        if math.isnan(value):
            return {"$float": "nan"}
        return {"$float": "inf" if value > 0 else "-inf"}
    if isinstance(value, dict):
        return {key: encode_json_floats(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_json_floats(item) for item in value]
    return value


def decode_json_floats(value):
    """Inverse of :func:`encode_json_floats` (plain payloads pass through)."""
    if isinstance(value, dict):
        if len(value) == 1 and "$float" in value:
            tag = value["$float"]
            if tag in _NONFINITE_DECODE:
                return _NONFINITE_DECODE[tag]
        return {key: decode_json_floats(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_json_floats(item) for item in value]
    return value


@dataclass
class KernelRecord:
    """Lifecycle timestamps and identity of one kernel instance."""

    kernel_id: int
    name: str
    is_child: bool
    depth: int
    num_ctas: int
    stream_id: int = -1
    launch_call_time: Optional[float] = None
    arrival_time: Optional[float] = None
    first_dispatch_time: Optional[float] = None
    completion_time: Optional[float] = None

    @property
    def queuing_latency(self) -> Optional[float]:
        if self.arrival_time is None or self.first_dispatch_time is None:
            return None
        return self.first_dispatch_time - self.arrival_time

    @property
    def launch_overhead(self) -> Optional[float]:
        if self.launch_call_time is None or self.arrival_time is None:
            return None
        return self.arrival_time - self.launch_call_time


@dataclass
class TraceSample:
    """One point of the concurrency/utilization timeline (Fig. 6 / 19)."""

    time: float
    parent_ctas: int
    child_ctas: int
    utilization: float

    @property
    def total_ctas(self) -> int:
        return self.parent_ctas + self.child_ctas


# ---------------------------------------------------------------------------
# Columnar record payloads.  A DP run carries one KernelRecord per child
# kernel (1,908 for MM-small/baseline-dp), so ``kernels`` and ``trace``
# serialize as one list per dataclass field, and only a column that holds
# a NaN or ±inf is tagged element by element.
# ---------------------------------------------------------------------------
_INFINITIES = frozenset((math.inf, -math.inf))


def _encode_column(values: Iterable) -> list:
    """``values`` as a strict-JSON list (non-finite floats tagged)."""
    column = list(values)
    # NaN is the one value unequal to itself; ±inf are found by hash.
    if _INFINITIES.isdisjoint(column) and not any(map(ne, column, column)):
        return column
    return [encode_json_floats(value) for value in column]


def _decode_column(column) -> list:
    """Inverse of :func:`_encode_column`: only a tagged column is walked."""
    if dict in map(type, column):
        return decode_json_floats(column)
    return list(column)


def _to_columns(records: Collection, cls) -> Dict[str, list]:
    """One :func:`_encode_column` list per field of dataclass ``cls``."""
    return {
        field.name: _encode_column(map(attrgetter(field.name), records))
        for field in fields(cls)
    }


def _from_columns(columns: Dict[str, list], cls) -> list:
    """Rebuild ``cls`` records positionally from :func:`_to_columns`."""
    values = [_decode_column(columns[field.name]) for field in fields(cls)]
    if len(set(map(len, values))) > 1:
        raise ValueError(f"{cls.__name__} columns differ in length")
    return list(map(cls, *values))


class SimStats:
    """Mutable statistics sink owned by one simulator instance."""

    def __init__(self, *, trace_interval: float = 1000.0):
        self.trace_interval = trace_interval
        self.makespan: float = 0.0

        # Launch accounting.
        self.child_kernels_launched = 0
        self.child_kernels_declined = 0
        self.child_kernels_reused = 0  # Free Launch thread-reuse conversions
        self.child_kernels_consolidated = 0  # requests buffered by consolidate
        self.child_kernels_aggregated = 0  # requests buffered by aggregate:<g>
        self.merged_kernels_launched = 0  # merged kernels actually submitted
        self.child_ctas_launched = 0
        self.launch_times: List[float] = []  # one entry per launched child

        # Work partitioning (Fig. 5 x-axis).
        self.items_in_parent = 0
        self.items_in_child = 0

        # Per-kernel lifecycle records.
        self.kernels: Dict[int, KernelRecord] = {}

        # Child CTA execution times (Fig. 12) and warp times.
        self.child_cta_exec_times: List[float] = []

        # Occupancy integrals.
        self._warp_cycles = 0.0
        self._reg_cycles = 0.0
        self._shmem_cycles = 0.0
        self._last_state_time = 0.0
        self._current_warps = 0
        self._current_regs = 0
        self._current_shmem = 0
        self._current_parent_ctas = 0
        self._current_child_ctas = 0

        # Capacity (set once by the engine).
        self.total_warp_capacity = 1
        self.total_reg_capacity = 1
        self.total_shmem_capacity = 1

        # Timeline.
        self.trace: List[TraceSample] = []
        self._last_trace_time = -float("inf")

        # Memory results (filled in by the engine at the end of a run).
        self.l2_hits = 0
        self.l2_misses = 0

        # Peak CCQS depth (MetricsMonitor.peak_n, copied by the engine):
        # the deepest the child-CTA queuing system ever got.
        self.peak_ccqs_depth = 0

    # ------------------------------------------------------------------
    # Occupancy / timeline tracking
    # ------------------------------------------------------------------
    def set_capacity(self, warps: int, regs: int, shmem: int) -> None:
        self.total_warp_capacity = max(warps, 1)
        self.total_reg_capacity = max(regs, 1)
        self.total_shmem_capacity = max(shmem, 1)

    def _utilization(self) -> float:
        """Paper's "resource utilization": max of warp/reg/shmem usage."""
        return max(
            self._current_warps / self.total_warp_capacity,
            self._current_regs / self.total_reg_capacity,
            self._current_shmem / self.total_shmem_capacity,
        )

    def record_state(
        self,
        time: float,
        parent_ctas: int,
        child_ctas: int,
        warps: int,
        regs: int,
        shmem: int,
    ) -> None:
        """Called by the engine whenever the set of resident CTAs changes."""
        dt = time - self._last_state_time
        if dt > 0:
            self._warp_cycles += self._current_warps * dt
            self._reg_cycles += self._current_regs * dt
            self._shmem_cycles += self._current_shmem * dt
        self._last_state_time = time
        self._current_parent_ctas = parent_ctas
        self._current_child_ctas = child_ctas
        self._current_warps = warps
        self._current_regs = regs
        self._current_shmem = shmem
        if time - self._last_trace_time >= self.trace_interval:
            self.trace.append(
                TraceSample(time, parent_ctas, child_ctas, self._utilization())
            )
            self._last_trace_time = time

    def finalize(self, makespan: float) -> None:
        self.record_state(
            makespan,
            parent_ctas=self._current_parent_ctas,
            child_ctas=self._current_child_ctas,
            warps=self._current_warps,
            regs=self._current_regs,
            shmem=self._current_shmem,
        )
        self.makespan = makespan

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def smx_occupancy(self) -> float:
        """Average active warps per cycle / warp capacity (Fig. 16)."""
        if self.makespan <= 0:
            return 0.0
        return self._warp_cycles / (self.makespan * self.total_warp_capacity)

    @property
    def l2_hit_rate(self) -> float:
        total = self.l2_hits + self.l2_misses
        return self.l2_hits / total if total else 0.0

    @property
    def offload_fraction(self) -> float:
        """Fraction of work items executed inside child kernels (Fig. 5)."""
        total = self.items_in_parent + self.items_in_child
        return self.items_in_child / total if total else 0.0

    @property
    def mean_child_queuing_latency(self) -> float:
        latencies = [
            rec.queuing_latency
            for rec in self.kernels.values()
            if rec.is_child and rec.queuing_latency is not None
        ]
        return sum(latencies) / len(latencies) if latencies else 0.0

    @property
    def mean_child_cta_time(self) -> float:
        times = self.child_cta_exec_times
        return sum(times) / len(times) if times else 0.0

    def launch_cdf(self) -> List[tuple]:
        """(time, cumulative launched child kernels) points (Fig. 20)."""
        return [(t, i + 1) for i, t in enumerate(sorted(self.launch_times))]

    # ------------------------------------------------------------------
    # Serialization (persistent result store / parallel harness)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot of a *finalized* stats object.

        Round-trips every field the experiments and derived metrics read,
        including the private occupancy integrals — ``from_dict`` must
        reproduce ``summary()`` and the figure inputs bit-identically.
        ``kernels`` and ``trace`` are columnar: one list per
        :class:`KernelRecord` / :class:`TraceSample` field.  Non-finite
        floats are tagged (:func:`encode_json_floats`) so the payload is
        *strict* JSON end to end.
        """
        payload = encode_json_floats({
            "trace_interval": self.trace_interval,
            "makespan": self.makespan,
            "child_kernels_launched": self.child_kernels_launched,
            "child_kernels_declined": self.child_kernels_declined,
            "child_kernels_reused": self.child_kernels_reused,
            "child_kernels_consolidated": self.child_kernels_consolidated,
            "child_kernels_aggregated": self.child_kernels_aggregated,
            "merged_kernels_launched": self.merged_kernels_launched,
            "child_ctas_launched": self.child_ctas_launched,
            "items_in_parent": self.items_in_parent,
            "items_in_child": self.items_in_child,
            "warp_cycles": self._warp_cycles,
            "reg_cycles": self._reg_cycles,
            "shmem_cycles": self._shmem_cycles,
            "last_state_time": self._last_state_time,
            "capacity": [
                self.total_warp_capacity,
                self.total_reg_capacity,
                self.total_shmem_capacity,
            ],
            "l2_hits": self.l2_hits,
            "l2_misses": self.l2_misses,
            "peak_ccqs_depth": self.peak_ccqs_depth,
        })
        payload.update(
            launch_times=_encode_column(self.launch_times),
            child_cta_exec_times=_encode_column(self.child_cta_exec_times),
            kernels=_to_columns(self.kernels.values(), KernelRecord),
            trace=_to_columns(self.trace, TraceSample),
        )
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SimStats":
        """Rebuild a finalized stats object saved with :meth:`to_dict`."""
        columns = ("launch_times", "child_cta_exec_times", "kernels", "trace")
        scalars = decode_json_floats(
            {key: payload[key] for key in payload if key not in columns}
        )
        stats = cls(trace_interval=scalars["trace_interval"])
        stats.makespan = scalars["makespan"]
        stats.child_kernels_launched = scalars["child_kernels_launched"]
        stats.child_kernels_declined = scalars["child_kernels_declined"]
        stats.child_kernels_reused = scalars["child_kernels_reused"]
        stats.child_kernels_consolidated = scalars["child_kernels_consolidated"]
        stats.child_kernels_aggregated = scalars["child_kernels_aggregated"]
        stats.merged_kernels_launched = scalars["merged_kernels_launched"]
        stats.child_ctas_launched = scalars["child_ctas_launched"]
        stats.launch_times = _decode_column(payload["launch_times"])
        stats.items_in_parent = scalars["items_in_parent"]
        stats.items_in_child = scalars["items_in_child"]
        stats.kernels = {
            rec.kernel_id: rec
            for rec in _from_columns(payload["kernels"], KernelRecord)
        }
        stats.child_cta_exec_times = _decode_column(
            payload["child_cta_exec_times"]
        )
        stats._warp_cycles = scalars["warp_cycles"]
        stats._reg_cycles = scalars["reg_cycles"]
        stats._shmem_cycles = scalars["shmem_cycles"]
        stats._last_state_time = scalars["last_state_time"]
        warps, regs, shmem = scalars["capacity"]
        stats.set_capacity(warps=warps, regs=regs, shmem=shmem)
        stats.trace = _from_columns(payload["trace"], TraceSample)
        stats.l2_hits = scalars["l2_hits"]
        stats.l2_misses = scalars["l2_misses"]
        stats.peak_ccqs_depth = scalars["peak_ccqs_depth"]
        return stats

    def summary(self) -> Dict[str, float]:
        """Flat dictionary of headline metrics, for reports and tests."""
        return {
            "makespan": self.makespan,
            "child_kernels_launched": self.child_kernels_launched,
            "child_kernels_declined": self.child_kernels_declined,
            "child_kernels_reused": self.child_kernels_reused,
            "child_kernels_consolidated": self.child_kernels_consolidated,
            "child_kernels_aggregated": self.child_kernels_aggregated,
            "merged_kernels_launched": self.merged_kernels_launched,
            "child_ctas_launched": self.child_ctas_launched,
            "smx_occupancy": self.smx_occupancy,
            "l2_hit_rate": self.l2_hit_rate,
            "offload_fraction": self.offload_fraction,
            "mean_child_queuing_latency": self.mean_child_queuing_latency,
            "mean_child_cta_time": self.mean_child_cta_time,
            "peak_ccqs_depth": self.peak_ccqs_depth,
        }
