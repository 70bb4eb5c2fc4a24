"""Edge-case tests for the simulator engine."""

import numpy as np
import pytest

from repro.core.policies import AggregatePolicy, AlwaysLaunchPolicy, DTBLPolicy
from repro.errors import ResourceError, SimulationError
from repro.sim.config import GPUConfig, small_debug_gpu
from repro.sim.engine import GPUSimulator
from repro.sim.instances import KernelState
from repro.sim.kernel import Application, ChildRequest, KernelSpec

from tests.conftest import make_dp_app


def run(app, policy=None, config=None, **kwargs):
    sim = GPUSimulator(config=config or small_debug_gpu(), policy=policy, **kwargs)
    return sim.run(app), sim


class TestDegenerateGrids:
    def test_single_thread_kernel(self):
        spec = KernelSpec(
            name="one", threads_per_cta=32, thread_items=np.array([5], dtype=np.int64)
        )
        result, _ = run(Application(name="one", kernels=[spec]))
        assert result.makespan > 0

    def test_zero_item_threads_still_cost_init(self):
        spec = KernelSpec(
            name="idle", threads_per_cta=32, thread_items=np.zeros(64, dtype=np.int64)
        )
        result, sim = run(Application(name="idle", kernels=[spec]))
        assert result.makespan >= sim.cta_init_cycles

    def test_child_grid_smaller_than_cta(self):
        """A child with fewer items than cta_threads shrinks its CTA."""
        spec = KernelSpec(
            name="p",
            threads_per_cta=32,
            thread_items=np.ones(32, dtype=np.int64),
            child_requests={0: ChildRequest(name="c", items=5, cta_threads=256)},
        )
        result, _ = run(
            Application(name="p", kernels=[spec]), policy=AlwaysLaunchPolicy()
        )
        child = [r for r in result.stats.kernels.values() if r.is_child][0]
        assert child.num_ctas == 1

    def test_at_fraction_one_fires_at_end(self):
        app = make_dp_app(at_fraction=1.0, base_items=16, child_every=8)
        result, sim = run(app, policy=AlwaysLaunchPolicy())
        assert result.stats.child_kernels_launched == 8
        assert sim._unfinished_kernels == 0

    def test_request_on_last_thread_of_partial_warp(self):
        items = np.ones(40, dtype=np.int64)  # second warp has 8 threads
        spec = KernelSpec(
            name="p",
            threads_per_cta=64,
            thread_items=items,
            child_requests={39: ChildRequest(name="c", items=16, cta_threads=32)},
        )
        result, _ = run(
            Application(name="p", kernels=[spec]), policy=AlwaysLaunchPolicy()
        )
        assert result.stats.child_kernels_launched == 1


#: Children no empty SMX can hold, alone or once padded into a merged grid
#: (each 100-thread child alone shrinks its CTA to 100 threads).
_PART = ChildRequest(name="part", items=100, cta_threads=4096)
NEVER_FITS = {
    "threads": (
        {0: ChildRequest(name="wide", items=5000, cta_threads=4096)},
        AlwaysLaunchPolicy,
        "kernel 'wide': 4096 threads/CTA exceeds SMX thread limit 2048",
    ),
    "registers": (
        {0: ChildRequest(name="heavy", items=5000, cta_threads=256,
                         regs_per_thread=255)},
        AlwaysLaunchPolicy,
        "kernel 'heavy': CTA needs 65280 registers, SMX has 16384",
    ),
    "merged": (
        {0: _PART, 1: _PART},
        lambda: AggregatePolicy(0, "block"),
        r"kernel 'part\+merge2': 4096 threads/CTA exceeds SMX thread limit",
    ),
}


@pytest.mark.parametrize("case", list(NEVER_FITS))
def test_child_cta_no_smx_holds_is_a_resource_error(case):
    """It fails typed, naming its kernel, instead of leaving the kernel
    queued until the run drains."""
    requests, policy, message = NEVER_FITS[case]
    spec = KernelSpec(name="host", threads_per_cta=32,
                      thread_items=np.ones(32, dtype=np.int64),
                      child_requests=requests)
    sim = GPUSimulator(config=GPUConfig(), policy=policy())
    with pytest.raises(ResourceError, match=message):
        sim.run(Application(name="host", kernels=[spec]))


class TestStreamPressure:
    def test_more_streams_than_hwqs_completes(self):
        # 64 children on a 4-HWQ debug GPU: streams queue for HWQs.
        app = make_dp_app(threads=64, child_every=1, child_items=40)
        result, sim = run(app, policy=AlwaysLaunchPolicy())
        assert result.stats.child_kernels_launched == 64
        assert sim.gmu.drained()

    def test_queuing_latency_reported_under_hwq_pressure(self):
        app = make_dp_app(threads=64, child_every=1, child_items=40)
        result, _ = run(app, policy=AlwaysLaunchPolicy())
        assert result.stats.mean_child_queuing_latency > 0


class TestNestedLaunching:
    def test_nested_depth_two_with_dtbl(self):
        app = make_dp_app(nested=True, child_every=8)
        result, sim = run(app, policy=DTBLPolicy(0))
        depths = {r.depth for r in result.stats.kernels.values()}
        assert depths == {0, 1, 2}
        assert sim.launch_unit.kernels_submitted == 0

    def test_suspended_parent_releases_hwq(self):
        """A kernel waiting only on children must not hold a HWQ."""
        app = make_dp_app(threads=32, child_every=4, child_items=64)
        result, sim = run(app, policy=AlwaysLaunchPolicy())
        root = sim.stats.kernels[0]
        # By completion the GMU must be fully drained.
        assert sim.gmu.num_bound == 0
        assert root.completion_time == result.makespan


class TestHostSequencing:
    def test_three_root_kernels_run_in_order(self):
        spec = KernelSpec(
            name="k", threads_per_cta=32, thread_items=np.ones(32, dtype=np.int64)
        )
        app = Application(name="seq", kernels=[spec] * 3)
        result, _ = run(app)
        roots = sorted(
            (r for r in result.stats.kernels.values() if not r.is_child),
            key=lambda r: r.kernel_id,
        )
        assert len(roots) == 3
        for prev, cur in zip(roots, roots[1:]):
            assert cur.arrival_time >= prev.completion_time

    def test_children_of_earlier_root_finish_before_next_root(self):
        dp = make_dp_app(threads=32, child_every=4)
        spec2 = KernelSpec(
            name="tail", threads_per_cta=32, thread_items=np.ones(32, dtype=np.int64)
        )
        app = Application(name="seq", kernels=[dp.kernels[0], spec2])
        result, _ = run(app, policy=AlwaysLaunchPolicy())
        tail = [r for r in result.stats.kernels.values() if r.name == "tail"][0]
        children = [r for r in result.stats.kernels.values() if r.is_child]
        assert tail.arrival_time >= max(c.completion_time for c in children)


class TestBudgetsAndMetrics:
    def test_event_budget_exhaustion_raises(self):
        app = make_dp_app(threads=256, child_every=1)
        with pytest.raises(SimulationError):
            GPUSimulator(
                config=small_debug_gpu(),
                policy=AlwaysLaunchPolicy(),
                max_events=50,
            ).run(app)

    def test_items_per_thread_normalizes_twarp(self):
        app_ipt1 = Application(
            name="a",
            kernels=[
                KernelSpec(
                    name="p",
                    threads_per_cta=32,
                    thread_items=np.ones(32, dtype=np.int64),
                    child_requests={
                        0: ChildRequest(
                            name="c", items=64, cta_threads=32, items_per_thread=4
                        )
                    },
                )
            ],
        )
        _, sim = run(app_ipt1, policy=AlwaysLaunchPolicy())
        assert sim.metrics.twarp == pytest.approx(sim.metrics.tcta / 4)

    def test_full_k20_config_micro_run(self):
        app = make_dp_app(threads=128, child_every=4)
        result, _ = run(app, policy=AlwaysLaunchPolicy(), config=GPUConfig())
        assert result.stats.child_kernels_launched == 32

    def test_rerunning_same_simulator_resets_state(self):
        sim = GPUSimulator(config=small_debug_gpu(), policy=AlwaysLaunchPolicy())
        first = sim.run(make_dp_app())
        second = sim.run(make_dp_app())
        assert first.makespan == second.makespan
        assert sim.metrics.n == 0
