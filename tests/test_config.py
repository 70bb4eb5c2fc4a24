"""Unit tests for repro.sim.config (Table II)."""

import pytest

from repro.errors import ConfigError
from repro.sim.config import (
    WARP_SIZE,
    CacheConfig,
    GPUConfig,
    LaunchOverheadConfig,
    MemoryConfig,
    kepler_k20m,
    small_debug_gpu,
)


class TestCacheConfig:
    def test_num_sets(self):
        cache = CacheConfig(size_bytes=1536 * 1024, line_bytes=128, associativity=8)
        assert cache.num_sets == 1536

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=0, line_bytes=128, associativity=8)
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1024, line_bytes=-1, associativity=8)
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1024, line_bytes=128, associativity=0)

    def test_rejects_non_divisible_geometry(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, line_bytes=128, associativity=8)


class TestLaunchOverheadConfig:
    def test_paper_constants(self):
        launch = LaunchOverheadConfig()
        assert launch.slope_cycles == 1721
        assert launch.base_cycles == 20210

    def test_latency_is_linear_in_batch_size(self):
        launch = LaunchOverheadConfig(slope_cycles=100, base_cycles=1000)
        assert launch.latency(1) == 1100
        assert launch.latency(5) == 1500

    def test_latency_rejects_non_positive_batch(self):
        with pytest.raises(ConfigError):
            LaunchOverheadConfig().latency(0)

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ConfigError):
            LaunchOverheadConfig(slope_cycles=-1)
        with pytest.raises(ConfigError):
            LaunchOverheadConfig(base_cycles=-1)
        with pytest.raises(ConfigError):
            LaunchOverheadConfig(service_slots=0)


class TestMemoryConfig:
    def test_stall_interpolates_between_l2_and_dram(self):
        mem = MemoryConfig(l2_hit_cycles=100, dram_cycles=300, mlp=1.0)
        assert mem.stall_cycles(1.0) == 100
        assert mem.stall_cycles(0.0) == 300
        assert mem.stall_cycles(0.5) == 200

    def test_mlp_divides_stall(self):
        mem = MemoryConfig(l2_hit_cycles=100, dram_cycles=300, mlp=4.0)
        assert mem.stall_cycles(1.0) == 25

    def test_rejects_bad_hit_rate(self):
        with pytest.raises(ConfigError):
            MemoryConfig().stall_cycles(1.5)
        with pytest.raises(ConfigError):
            MemoryConfig().stall_cycles(-0.1)

    def test_rejects_inconsistent_latencies(self):
        with pytest.raises(ConfigError):
            MemoryConfig(l2_hit_cycles=400, dram_cycles=300)
        with pytest.raises(ConfigError):
            MemoryConfig(mlp=0.0)


class TestGPUConfig:
    def test_table2_defaults(self):
        config = kepler_k20m()
        assert config.num_smx == 13
        assert config.max_ctas_per_smx == 16
        assert config.num_hwq == 32
        assert config.max_threads_per_smx == 2048
        assert config.shared_mem_per_smx == 48 * 1024

    def test_max_concurrent_ctas_is_208(self):
        assert kepler_k20m().max_concurrent_ctas == 208

    def test_max_concurrent_kernels_matches_hwqs(self):
        assert kepler_k20m().max_concurrent_kernels == 32

    def test_warp_capacity_consistency(self):
        config = kepler_k20m()
        assert config.max_warps_per_smx * WARP_SIZE == config.max_threads_per_smx

    def test_rejects_inconsistent_warp_capacity(self):
        with pytest.raises(ConfigError):
            GPUConfig(max_warps_per_smx=63)

    @pytest.mark.parametrize(
        "field",
        [
            "num_smx",
            "clock_mhz",
            "max_ctas_per_smx",
            "num_hwq",
            "max_pending_child_ctas",
            "metric_window_cycles",
        ],
    )
    def test_rejects_non_positive_fields(self, field):
        with pytest.raises(ConfigError):
            GPUConfig(**{field: 0})

    def test_rejects_non_positive_rates(self):
        with pytest.raises(ConfigError):
            GPUConfig(issue_width=0)
        with pytest.raises(ConfigError):
            GPUConfig(per_warp_issue_rate=-1)

    def test_replace_returns_modified_copy(self):
        config = kepler_k20m()
        smaller = config.replace(num_smx=4)
        assert smaller.num_smx == 4
        assert config.num_smx == 13

    def test_debug_config_is_valid_and_small(self):
        config = small_debug_gpu()
        assert config.num_smx < kepler_k20m().num_smx
        assert config.max_concurrent_ctas == 8

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            kepler_k20m().num_smx = 5
