"""Integration tests for the GPU simulator engine on micro-applications."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.policies import (
    AlwaysLaunchPolicy,
    DTBLPolicy,
    NeverLaunchPolicy,
    SpawnPolicy,
    StaticThresholdPolicy,
)
from repro.errors import SimulationError
from repro.runtime.streams import PerParentCTAStream
from repro.sim.config import small_debug_gpu
from repro.sim.engine import GPUSimulator
from repro.sim.kernel import Application, KernelSpec

from tests.conftest import make_dp_app, make_flat_app


def run(app, policy=None, config=None, **kwargs):
    sim = GPUSimulator(config=config or small_debug_gpu(), policy=policy, **kwargs)
    return sim.run(app), sim


class TestFlatExecution:
    def test_flat_app_completes(self, flat_app):
        result, sim = run(flat_app)
        assert result.makespan > 0
        assert sim._unfinished_kernels == 0
        assert result.stats.child_kernels_launched == 0
        assert result.stats.offload_fraction == 0.0

    def test_all_items_accounted(self, flat_app):
        result, _ = run(flat_app)
        assert result.stats.items_in_parent == flat_app.flat_items

    def test_more_work_takes_longer(self):
        small, _ = run(make_flat_app(items=4))
        large, _ = run(make_flat_app(items=40))
        assert large.makespan > small.makespan

    def test_heavy_thread_dominates_makespan(self):
        balanced, _ = run(make_flat_app(items=4))
        skewed, _ = run(make_flat_app(items=4, heavy_thread=0, heavy_items=4000))
        assert skewed.makespan > 5 * balanced.makespan

    def test_sequential_host_kernels(self):
        spec = make_flat_app().kernels[0]
        app = Application(name="two", kernels=[spec, spec], flat_items=0)
        single, _ = run(make_flat_app())
        double, _ = run(app)
        assert double.makespan > 1.5 * single.makespan

    def test_determinism(self, flat_app):
        a, _ = run(flat_app)
        b, _ = run(flat_app)
        assert a.makespan == b.makespan


class TestDynamicParallelism:
    def test_always_launch_spawns_children(self, dp_app):
        result, _ = run(dp_app, policy=AlwaysLaunchPolicy())
        assert result.stats.child_kernels_launched == 32
        assert result.stats.child_ctas_launched == 32
        assert result.stats.items_in_child == 32 * 32

    def test_never_launch_keeps_work_in_parent(self, dp_app):
        result, _ = run(dp_app, policy=NeverLaunchPolicy())
        assert result.stats.child_kernels_launched == 0
        assert result.stats.child_kernels_declined == 32
        assert result.stats.items_in_child == 0
        assert result.stats.items_in_parent == dp_app.flat_items

    def test_work_conserved_across_policies(self, dp_app):
        for policy in (AlwaysLaunchPolicy(), NeverLaunchPolicy(), SpawnPolicy()):
            result, _ = run(dp_app, policy=policy)
            total = result.stats.items_in_parent + result.stats.items_in_child
            assert total == dp_app.flat_items

    def test_launch_overhead_delays_children(self, dp_app):
        result, sim = run(dp_app, policy=AlwaysLaunchPolicy())
        launch = sim.config.launch
        for record in result.stats.kernels.values():
            if record.is_child:
                assert record.launch_overhead >= launch.base_cycles

    def test_threshold_policy_partitions(self):
        app = make_dp_app(child_items=64)
        result, _ = run(app, policy=StaticThresholdPolicy(64))
        assert result.stats.child_kernels_launched == 0
        result, _ = run(app, policy=StaticThresholdPolicy(63))
        assert result.stats.child_kernels_launched == 32

    def test_child_exec_times_recorded(self, dp_app):
        result, _ = run(dp_app, policy=AlwaysLaunchPolicy())
        times = result.stats.child_cta_exec_times
        assert len(times) == 32
        assert all(t > 0 for t in times)

    def test_metrics_drain_to_zero(self, dp_app):
        _, sim = run(dp_app, policy=AlwaysLaunchPolicy())
        assert sim.metrics.n == 0
        assert sim.metrics.current_concurrency == 0

    def test_parent_waits_for_children(self, dp_app):
        """The root kernel's completion is at least its children's last."""
        result, _ = run(dp_app, policy=AlwaysLaunchPolicy())
        root = result.stats.kernels[0]
        child_completions = [
            r.completion_time for r in result.stats.kernels.values() if r.is_child
        ]
        assert root.completion_time >= max(child_completions)

    def test_nested_children_complete(self):
        app = make_dp_app(nested=True, child_every=8)
        result, sim = run(app, policy=AlwaysLaunchPolicy())
        depths = {r.depth for r in result.stats.kernels.values()}
        assert depths == {0, 1, 2}
        assert sim._unfinished_kernels == 0

    def test_decision_at_fraction_defers_launch(self):
        early = make_dp_app(at_fraction=0.0, base_items=64)
        late = make_dp_app(at_fraction=1.0, base_items=64)
        r_early, _ = run(early, policy=AlwaysLaunchPolicy())
        r_late, _ = run(late, policy=AlwaysLaunchPolicy())
        first_early = min(r_early.stats.launch_times)
        first_late = min(r_late.stats.launch_times)
        assert first_late > first_early


class TestDTBL:
    def test_dtbl_children_bypass_launch_unit(self, dp_app):
        result, sim = run(dp_app, policy=DTBLPolicy(0))
        assert result.stats.child_kernels_launched == 32
        assert sim.launch_unit.kernels_submitted == 0

    def test_dtbl_latency_is_small(self, dp_app):
        result, sim = run(dp_app, policy=DTBLPolicy(0))
        for record in result.stats.kernels.values():
            if record.is_child:
                assert record.launch_overhead == pytest.approx(
                    sim.dtbl_coalesce_cycles
                )

    def test_dtbl_faster_than_kernel_launch_when_overhead_bound(self, dp_app):
        launched, _ = run(dp_app, policy=AlwaysLaunchPolicy())
        coalesced, _ = run(dp_app, policy=DTBLPolicy(0))
        assert coalesced.makespan < launched.makespan


class TestResourceLimits:
    def test_hwq_limit_serializes_kernels(self):
        """More concurrent children than HWQs -> queuing latency appears."""
        app = make_dp_app(threads=64, child_every=1, child_items=64)
        result, sim = run(app, policy=AlwaysLaunchPolicy())
        waits = [
            r.queuing_latency
            for r in result.stats.kernels.values()
            if r.is_child and r.queuing_latency is not None
        ]
        assert max(waits) > 0

    def test_oversized_cta_rejected(self):
        app = make_flat_app(threads_per_cta=64, threads=64)
        config = small_debug_gpu().replace(max_threads_per_smx=32, max_warps_per_smx=1)
        with pytest.raises(Exception):
            GPUSimulator(config=config).run(app)

    def test_stream_policy_serialization_slows_children(self):
        app = make_dp_app(threads=64, child_every=1, child_items=64)
        per_child, _ = run(app, policy=AlwaysLaunchPolicy())
        per_parent, _ = run(
            app, policy=AlwaysLaunchPolicy(), stream_policy=PerParentCTAStream()
        )
        assert per_parent.makespan >= per_child.makespan

    def test_latency_hiding_validation(self):
        with pytest.raises(SimulationError):
            GPUSimulator(latency_hiding=0.0)
        with pytest.raises(SimulationError):
            GPUSimulator(latency_hiding=1.5)


class TestStatsConsistency:
    def test_every_kernel_has_complete_lifecycle(self, dp_app):
        result, _ = run(dp_app, policy=AlwaysLaunchPolicy())
        for record in result.stats.kernels.values():
            assert record.arrival_time is not None
            assert record.first_dispatch_time is not None
            assert record.completion_time is not None
            assert record.arrival_time <= record.first_dispatch_time
            assert record.first_dispatch_time <= record.completion_time

    def test_occupancy_bounded(self, dp_app):
        result, _ = run(dp_app, policy=AlwaysLaunchPolicy())
        assert 0.0 < result.stats.smx_occupancy <= 1.0

    def test_trace_is_time_ordered(self, dp_app):
        result, _ = run(dp_app, policy=AlwaysLaunchPolicy())
        times = [s.time for s in result.stats.trace]
        assert times == sorted(times)

    def test_launch_cdf_monotone(self, dp_app):
        result, _ = run(dp_app, policy=AlwaysLaunchPolicy())
        cdf = result.stats.launch_cdf()
        counts = [c for _, c in cdf]
        assert counts == sorted(counts)
        assert counts[-1] == result.stats.child_kernels_launched

    def test_summary_keys(self, dp_app):
        result, _ = run(dp_app, policy=AlwaysLaunchPolicy())
        summary = result.summary()
        for key in (
            "makespan",
            "child_kernels_launched",
            "smx_occupancy",
            "l2_hit_rate",
            "offload_fraction",
        ):
            assert key in summary


class TestLifetime:
    @pytest.mark.parametrize("policy", [NeverLaunchPolicy, AlwaysLaunchPolicy,
                                        lambda: DTBLPolicy(0)])
    def test_finished_simulator_is_freed_without_the_cyclic_gc(self, dp_app,
                                                               policy):
        """A finished run leaves no reference cycle through the simulator,
        so dropping it frees its L2 model at once."""
        sim = GPUSimulator(config=small_debug_gpu(), policy=policy())
        gc.collect()
        gc.disable()
        try:
            result = sim.run(dp_app)
            alive = weakref.ref(sim)
            del sim
            assert alive() is None
        finally:
            gc.enable()
        assert result.makespan > 0


class _LoggingSimulator(GPUSimulator):
    """Logs dispatch passes, placements, SMX handlers and SMX schedules."""

    def _reset(self):
        super()._reset()
        self.log = []
        schedule = self.queue.schedule
        owner = {callback: i for i, callback in enumerate(self._smx_callbacks)}

        def logged(time, callback):
            if callback in owner:
                self.log.append(("schedule", owner[callback]))
            return schedule(time, callback)

        self.queue.schedule = logged

    def _dispatch(self):
        outer = not self._dispatching
        if outer:
            self.log.append(("pass", None))
        super()._dispatch()
        if outer:
            self.log.append(("end", None))

    def _place_on_smx(self, cta, smx, now):
        self.log.append(("place", smx.index))
        super()._place_on_smx(cta, smx, now)

    def _on_smx_event(self, smx):
        self.log.append(("handle", smx.index))
        super()._on_smx_event(smx)
        self.log.append(("handled", smx.index))

    def _reschedule_smx(self, smx):
        self.log.append(("reschedule", smx.index))
        super()._reschedule_smx(smx)


def _spans(log, opener, closer):
    """``(argument, entries)`` of every ``opener``..``closer`` span."""
    spans, current = [], None
    for kind, arg in log:
        if kind == opener:
            current = (arg, [])
        elif kind == closer:
            spans.append(current)
            current = None
        elif current is not None:
            current[1].append((kind, arg))
    return spans


class TestDeferredReschedule:
    """A dispatch pass schedules each SMX it placed on once, when it ends."""

    APPS = {
        "flat": (lambda: make_flat_app(threads=640), NeverLaunchPolicy),
        "dp": (lambda: make_dp_app(threads=256), AlwaysLaunchPolicy),
    }

    def _log(self, name):
        make_app, policy = self.APPS[name]
        sim = _LoggingSimulator(config=small_debug_gpu(), policy=policy())
        sim.run(make_app())
        return sim.log

    @pytest.mark.parametrize("name", sorted(APPS))
    def test_each_placed_smx_is_scheduled_once_in_last_placement_order(
        self, name
    ):
        handled = places = schedules = None
        repeated = 0
        for kind, arg in self._log(name):
            if kind == "handle":
                handled = arg
            elif kind == "handled":
                handled = None
            elif kind == "pass":
                places, schedules = [], []
            elif kind == "end":
                last_order = list(dict.fromkeys(reversed(places)))[::-1]
                assert schedules == [i for i in last_order if i != handled]
                repeated += len(places) > len(set(places))
                places = None
            elif places is not None and kind == "place":
                assert not schedules, "a placement after the pass scheduled"
                places.append(arg)
            elif places is not None and kind == "schedule":
                schedules.append(arg)
        assert repeated > 0  # some pass placed twice on one SMX

    @pytest.mark.parametrize("name", sorted(APPS))
    def test_the_handled_smx_is_scheduled_only_by_its_reschedule(self, name):
        placed_on_handled = 0
        for smx, entries in _spans(self._log(name), "handle", "handled"):
            own = [i for i, entry in enumerate(entries)
                   if entry == ("schedule", smx)]
            if ("place", smx) in entries:
                placed_on_handled += 1
                # One schedule, by the reschedule that ends the handler.
                assert own == [len(entries) - 1]
                assert entries[-2] == ("reschedule", smx)
            else:
                assert len(own) <= 1
        assert placed_on_handled > 0
