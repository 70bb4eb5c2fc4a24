"""GPU configuration (the paper's Table II).

The default :class:`GPUConfig` mirrors the simulated system of the paper: a
Kepler-class GPU (NVIDIA K20m-like) with 13 SMXs, 16 CTAs/SMX (208 concurrent
CTAs GPU-wide), 32 hardware work queues, and the measured device-side launch
latency model ``A*x + b`` with ``A = 1721`` and ``b = 20210`` cycles.

All limits are expressed in the same units the paper uses: cycles for time,
bytes for shared memory, 32-bit registers for the register file.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import ConfigError

#: Threads per warp on every generation of NVIDIA hardware the paper targets.
WARP_SIZE = 32


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one set-associative cache level."""

    size_bytes: int
    line_bytes: int
    associativity: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ConfigError("cache dimensions must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ConfigError(
                "cache size must be a multiple of line_bytes * associativity"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class LaunchOverheadConfig:
    """Device-side kernel launch latency model (Table II, bottom row).

    The latency for a warp that launches ``x`` child kernels is
    ``slope_cycles * x + base_cycles`` — the linear model Wang et al. measured
    and the paper adopts.  ``service_slots`` bounds how many warp launch
    batches the runtime can process concurrently; bursts beyond it queue,
    which is how "a large number of API calls cannot be serviced
    simultaneously" manifests.
    """

    slope_cycles: int = 1721
    base_cycles: int = 20210
    service_slots: int = 32

    def __post_init__(self) -> None:
        if self.slope_cycles < 0 or self.base_cycles < 0:
            raise ConfigError("launch latency coefficients must be non-negative")
        if self.service_slots <= 0:
            raise ConfigError("launch service_slots must be positive")

    def latency(self, num_kernels: int) -> int:
        """Latency in cycles for a warp batch launching ``num_kernels``."""
        if num_kernels <= 0:
            raise ConfigError("launch latency queried for a non-positive batch")
        return self.slope_cycles * num_kernels + self.base_cycles


def _default_l1() -> "CacheConfig":
    """Table II's per-SMX L1 D-cache: 16KB, 4-way, 128B lines."""
    return CacheConfig(size_bytes=16 * 1024, line_bytes=128, associativity=4)


@dataclass(frozen=True)
class MemoryConfig:
    """Latency/geometry of the memory hierarchy below the SMXs.

    The per-SMX L1 D-cache of Table II is modeled when ``l1_enabled`` is
    True; by default only the shared L2 is simulated (the paper's Fig. 17
    reports L2 behaviour, and at this reproduction's workload scale the L1
    mostly shifts absolute stall cycles without changing any scheme
    ordering — see DESIGN.md).
    """

    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=1536 * 1024, line_bytes=128, associativity=8
        )
    )
    l1: CacheConfig = field(default_factory=_default_l1)
    l1_enabled: bool = False
    l1_hit_cycles: int = 28
    l2_hit_cycles: int = 120
    dram_cycles: int = 320
    #: Memory-level parallelism: how many outstanding misses a warp overlaps.
    #: Stall cycles per access are divided by this factor.
    mlp: float = 4.0
    #: Optional DRAM bandwidth model (Table II: 6 MCs, 2 partitions each).
    #: Peak line transfers per cycle across all memory controllers; None
    #: disables bandwidth modeling (latency-only DRAM).
    dram_peak_lines_per_cycle: float = None
    #: Averaging window for DRAM utilization, cycles.
    dram_window_cycles: int = 4096

    def __post_init__(self) -> None:
        if self.l1_hit_cycles <= 0 or self.l2_hit_cycles <= 0 or self.dram_cycles <= 0:
            raise ConfigError("memory latencies must be positive")
        if self.dram_cycles < self.l2_hit_cycles:
            raise ConfigError("DRAM latency must be >= L2 hit latency")
        if self.l2_hit_cycles < self.l1_hit_cycles:
            raise ConfigError("L2 hit latency must be >= L1 hit latency")
        if self.l1.line_bytes != self.l2.line_bytes:
            raise ConfigError("L1 and L2 must share a line size")
        if self.mlp <= 0:
            raise ConfigError("mlp must be positive")
        if self.dram_peak_lines_per_cycle is not None:
            if self.dram_peak_lines_per_cycle <= 0:
                raise ConfigError("dram_peak_lines_per_cycle must be positive")
        if self.dram_window_cycles <= 0:
            raise ConfigError("dram_window_cycles must be positive")

    def stall_cycles(self, hit_rate: float, dram_factor: float = 1.0) -> float:
        """Average pipeline stall per memory access at a given L2 hit rate.

        ``dram_factor`` inflates the miss latency under DRAM bandwidth
        congestion (see :mod:`repro.sim.dram`).
        """
        if not 0.0 <= hit_rate <= 1.0:
            raise ConfigError(f"hit rate {hit_rate} outside [0, 1]")
        raw = hit_rate * self.l2_hit_cycles + (
            1.0 - hit_rate
        ) * self.dram_cycles * dram_factor
        return raw / self.mlp

    def stall_cycles_two_level(
        self, l1_rate: float, l2_rate: float, dram_factor: float = 1.0
    ) -> float:
        """Average stall per access with the L1 in front of the L2.

        ``l1_rate`` is the L1 hit rate over all accesses; ``l2_rate`` is the
        L2 hit rate over the L1 *misses*.
        """
        for rate in (l1_rate, l2_rate):
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"hit rate {rate} outside [0, 1]")
        miss1 = 1.0 - l1_rate
        raw = (
            l1_rate * self.l1_hit_cycles
            + miss1 * l2_rate * self.l2_hit_cycles
            + miss1 * (1.0 - l2_rate) * self.dram_cycles * dram_factor
        )
        return raw / self.mlp


@dataclass(frozen=True)
class GPUConfig:
    """Whole-GPU configuration; defaults reproduce the paper's Table II."""

    num_smx: int = 13
    clock_mhz: int = 1400
    max_threads_per_smx: int = 2048
    max_ctas_per_smx: int = 16
    max_warps_per_smx: int = 64
    registers_per_smx: int = 64 * 1024 // 4  # 64KB register file, 32-bit regs
    shared_mem_per_smx: int = 48 * 1024  # bytes
    num_hwq: int = 32
    #: Per-SMX issue capacity in warp-instructions per cycle; 5-stage dual
    #: warp scheduler (GTO) approximated as a processor-sharing capacity.
    issue_width: float = 2.0
    #: Max useful issue rate a single warp can sustain (ILP cap).
    per_warp_issue_rate: float = 0.25
    launch: LaunchOverheadConfig = field(default_factory=LaunchOverheadConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    #: CCQS bound from the Kepler pending-work limit: SPAWN declines a
    #: launch that would hold more child CTAs (``SpawnPolicy``), and the
    #: conformance checker's ``spawn`` invariant reads the same field.
    max_pending_child_ctas: int = 65536
    #: SPAWN metric window (cycles); averages are computed per window and
    #: the paper sizes it so the average is a 10-bit shift.
    metric_window_cycles: int = 1024

    def __post_init__(self) -> None:
        positive_fields = (
            "num_smx",
            "clock_mhz",
            "max_threads_per_smx",
            "max_ctas_per_smx",
            "max_warps_per_smx",
            "registers_per_smx",
            "shared_mem_per_smx",
            "num_hwq",
            "max_pending_child_ctas",
            "metric_window_cycles",
        )
        for name in positive_fields:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.issue_width <= 0 or self.per_warp_issue_rate <= 0:
            raise ConfigError("issue rates must be positive")
        if self.max_warps_per_smx * WARP_SIZE != self.max_threads_per_smx:
            raise ConfigError(
                "max_threads_per_smx must equal max_warps_per_smx * WARP_SIZE"
            )

    @property
    def max_concurrent_ctas(self) -> int:
        """GPU-wide CTA concurrency limit (208 on the paper's config)."""
        return self.num_smx * self.max_ctas_per_smx

    @property
    def max_concurrent_kernels(self) -> int:
        """Concurrent-kernel limit, set by the number of HWQs."""
        return self.num_hwq

    def replace(self, **kwargs) -> "GPUConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


def kepler_k20m() -> GPUConfig:
    """The paper's simulated system (Table II)."""
    return GPUConfig()


def small_debug_gpu() -> GPUConfig:
    """A tiny configuration that makes unit tests fast and limits easy to hit."""
    return GPUConfig(
        num_smx=2,
        max_threads_per_smx=256,
        max_ctas_per_smx=4,
        max_warps_per_smx=8,
        registers_per_smx=4096,
        shared_mem_per_smx=8 * 1024,
        num_hwq=4,
        launch=LaunchOverheadConfig(slope_cycles=100, base_cycles=500, service_slots=2),
        max_pending_child_ctas=256,
        metric_window_cycles=128,
    )
