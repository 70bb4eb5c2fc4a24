"""Unit tests for kernel/CTA descriptions (repro.sim.kernel)."""

import numpy as np
import pytest

from repro.check.reference import spec_from_request
from repro.errors import ResourceError, WorkloadError
from repro.sim.config import GPUConfig, small_debug_gpu
from repro.sim.kernel import (
    Application,
    ChildRequest,
    KernelSpec,
    normalize_requests,
    uses_dynamic_parallelism,
)


def simple_spec(**kwargs):
    defaults = dict(
        name="k",
        threads_per_cta=32,
        thread_items=np.full(64, 3, dtype=np.int64),
    )
    defaults.update(kwargs)
    return KernelSpec(**defaults)


class TestChildRequest:
    def test_grid_geometry(self):
        req = ChildRequest(name="c", items=100, cta_threads=32)
        assert req.num_threads == 100
        assert req.num_ctas == 4

    def test_items_per_thread_shrinks_grid(self):
        req = ChildRequest(name="c", items=100, cta_threads=32, items_per_thread=4)
        assert req.num_threads == 25
        assert req.num_ctas == 1

    def test_rejects_zero_items(self):
        with pytest.raises(WorkloadError):
            ChildRequest(name="c", items=0, cta_threads=32)

    def test_rejects_bad_dims(self):
        with pytest.raises(WorkloadError):
            ChildRequest(name="c", items=4, cta_threads=0)
        with pytest.raises(WorkloadError):
            ChildRequest(name="c", items=4, cta_threads=32, items_per_thread=0)

    def test_rejects_bad_at_fraction(self):
        with pytest.raises(WorkloadError):
            ChildRequest(name="c", items=4, cta_threads=32, at_fraction=1.5)

    def test_rejects_negative_costs(self):
        with pytest.raises(WorkloadError):
            ChildRequest(name="c", items=4, cta_threads=32, cycles_per_item=-1)

    def test_nested_bound_checked(self):
        with pytest.raises(WorkloadError):
            ChildRequest(
                name="c",
                items=4,
                cta_threads=32,
                nested={10: ChildRequest(name="g", items=2, cta_threads=32)},
            )

    def test_nested_accepts_single_request_and_lists(self):
        g = ChildRequest(name="g", items=2, cta_threads=32)
        req = ChildRequest(name="c", items=8, cta_threads=32, nested={0: g, 1: [g]})
        assert req.nested[0] == [g]
        assert req.nested[1] == [g]


class TestNormalizeRequests:
    def test_rejects_non_request_values(self):
        with pytest.raises(WorkloadError):
            normalize_requests({0: "not-a-request"})

    def test_rejects_empty_list(self):
        with pytest.raises(WorkloadError):
            normalize_requests({0: []})


class TestKernelSpec:
    def test_grid_geometry(self):
        spec = simple_spec()
        assert spec.num_threads == 64
        assert spec.num_ctas == 2
        assert spec.warps_per_cta == 1

    def test_ragged_final_cta(self):
        spec = simple_spec(thread_items=np.ones(70, dtype=np.int64))
        assert spec.num_ctas == 3
        assert list(spec.cta_thread_range(2)) == list(range(64, 70))

    def test_cta_thread_range_bounds(self):
        with pytest.raises(WorkloadError):
            simple_spec().cta_thread_range(2)

    def test_rejects_empty_grid(self):
        with pytest.raises(WorkloadError):
            simple_spec(thread_items=np.array([], dtype=np.int64))

    def test_rejects_negative_items(self):
        with pytest.raises(WorkloadError):
            simple_spec(thread_items=np.array([1, -1], dtype=np.int64))

    def test_rejects_misaligned_mem_bases(self):
        with pytest.raises(WorkloadError):
            simple_spec(mem_bases=np.zeros(3, dtype=np.int64))

    def test_rejects_negative_costs(self):
        with pytest.raises(WorkloadError):
            simple_spec(cycles_per_item=-5.0)
        with pytest.raises(WorkloadError):
            simple_spec(accesses_per_item=-1.0)
        assert simple_spec(cycles_per_item=0.0, accesses_per_item=0.0)

    def test_rejects_out_of_range_child_request(self):
        with pytest.raises(WorkloadError):
            simple_spec(
                child_requests={99: ChildRequest(name="c", items=4, cta_threads=32)}
            )

    def test_check_fits_thread_limit(self, debug_config):
        spec = simple_spec(
            threads_per_cta=512, thread_items=np.ones(512, dtype=np.int64)
        )
        with pytest.raises(ResourceError):
            spec.check_fits(debug_config)

    def test_check_fits_register_limit(self, debug_config):
        spec = simple_spec(regs_per_thread=4096)
        with pytest.raises(ResourceError):
            spec.check_fits(debug_config)

    def test_check_fits_shared_memory_limit(self, debug_config):
        spec = simple_spec(shmem_per_cta=debug_config.shared_mem_per_smx + 1)
        with pytest.raises(ResourceError):
            spec.check_fits(debug_config)

    def test_check_fits_accepts_valid(self):
        simple_spec().check_fits(GPUConfig())

    def test_item_accounting(self):
        req = ChildRequest(name="c", items=10, cta_threads=32)
        spec = simple_spec(child_requests={0: req, 1: [req, req]})
        assert spec.total_child_items() == 30
        assert spec.num_child_requests() == 3
        assert spec.total_items() == 64 * 3 + 30


class TestSpecFromRequest:
    def test_materializes_grid(self):
        req = ChildRequest(name="c", items=100, cta_threads=32, mem_base=1000)
        spec = spec_from_request(req, depth=1)
        assert spec.num_threads == 100
        assert spec.depth == 1
        assert spec.contiguous_footprint
        assert spec.thread_items.sum() == 100

    def test_remainder_on_last_thread(self):
        req = ChildRequest(name="c", items=10, cta_threads=32, items_per_thread=4)
        spec = spec_from_request(req, depth=1)
        assert list(spec.thread_items) == [4, 4, 2]

    def test_bases_tile_the_parent_range(self):
        req = ChildRequest(
            name="c", items=8, cta_threads=32, items_per_thread=2, mem_base=64, mem_stride=4
        )
        spec = spec_from_request(req, depth=1)
        assert list(spec.mem_bases) == [64, 72, 80, 88]

    def test_nested_requests_carried_over(self):
        g = ChildRequest(name="g", items=4, cta_threads=32)
        req = ChildRequest(name="c", items=8, cta_threads=32, nested={1: g})
        spec = spec_from_request(req, depth=1)
        assert spec.child_requests[1] == [g]


class TestApplication:
    def test_rejects_empty(self):
        with pytest.raises(WorkloadError):
            Application(name="a", kernels=[])

    def test_rejects_negative_flat_items(self):
        with pytest.raises(WorkloadError):
            Application(name="a", kernels=[simple_spec()], flat_items=-1)

    def test_validate_checks_all_kernels(self):
        bad = simple_spec(regs_per_thread=100000)
        app = Application(name="a", kernels=[simple_spec(), bad])
        with pytest.raises(ResourceError):
            app.validate(small_debug_gpu())

    def test_uses_dynamic_parallelism(self):
        plain = Application(name="a", kernels=[simple_spec()])
        assert not uses_dynamic_parallelism(plain)
        dp = Application(
            name="b",
            kernels=[
                simple_spec(
                    child_requests={0: ChildRequest(name="c", items=4, cta_threads=32)}
                )
            ],
        )
        assert uses_dynamic_parallelism(dp)
