"""Tests for the structured event tracer (repro.obs.tracer)."""

import gc
import weakref

import pytest

from repro.harness import schemes as sch
from repro.obs.tracer import (
    CTA_DISPATCH,
    CTA_FINISH,
    HWQ_BIND,
    HWQ_RELEASE,
    KERNEL_ARRIVAL,
    KERNEL_COMPLETE,
    LAUNCH_DECISION,
    NULL_TRACER,
    NullTracer,
    Tracer,
    filter_events,
)
from repro.sim.engine import GPUSimulator
from repro.workloads.base import get_benchmark


class TestTracerBasics:
    def test_emit_stamps_bound_clock(self):
        t = Tracer()
        clock = [0.0]
        t.bind_clock(lambda: clock[0])
        t.emit(KERNEL_ARRIVAL, kernel_id=1)
        clock[0] = 42.0
        t.emit(KERNEL_COMPLETE, kernel_id=1)
        events = t.events()
        assert [e.ts for e in events] == [0.0, 42.0]

    def test_explicit_ts_overrides_clock(self):
        t = Tracer()
        t.emit(KERNEL_ARRIVAL, ts=7.5, kernel_id=1)
        assert t.events()[0].ts == 7.5

    def test_args_round_trip(self):
        t = Tracer()
        t.emit(CTA_DISPATCH, ts=1.0, kernel_id=3, smx=5, cta_index=0)
        event = t.events()[0]
        assert event.kind == CTA_DISPATCH
        assert event.args == {"kernel_id": 3, "smx": 5, "cta_index": 0}
        assert event.to_dict() == {
            "ts": 1.0,
            "kind": CTA_DISPATCH,
            "kernel_id": 3,
            "smx": 5,
            "cta_index": 0,
        }

    def test_empty_tracer_is_truthy(self):
        # `tracer or NULL_TRACER` defaults must never silently discard an
        # enabled-but-empty tracer.
        assert bool(Tracer())

    def test_clear_and_num_events(self):
        t = Tracer()
        t.emit(KERNEL_ARRIVAL, ts=0.0)
        assert t.num_events == 1
        t.clear()
        assert t.num_events == 0

    def test_filter_events(self):
        t = Tracer()
        t.emit(KERNEL_ARRIVAL, ts=0.0, kernel_id=0)
        t.emit(KERNEL_COMPLETE, ts=1.0, kernel_id=0)
        t.emit(KERNEL_ARRIVAL, ts=2.0, kernel_id=1)
        arrivals = filter_events(t.events(), KERNEL_ARRIVAL)
        assert len(arrivals) == 2
        assert [e.args["kernel_id"] for e in arrivals] == [0, 1]


class TestNullTracer:
    def test_disabled_and_empty(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit(KERNEL_ARRIVAL, kernel_id=1)
        assert NULL_TRACER.num_events == 0

    def test_fresh_instance_is_noop(self):
        t = NullTracer()
        t.emit(CTA_FINISH, ts=1.0)
        assert t.events() == []

    def test_finished_simulator_is_not_kept_alive(self):
        # The shared NULL_TRACER outlives every run; binding the run's
        # clock on it must not pin the simulator (its queue, L2 and SMXs).
        sim = GPUSimulator(policy=sch.make_policy(
            sch.SchemeSpec.parse("spawn"), get_benchmark("GC-citation")
        ))
        sim.run(get_benchmark("GC-citation").dp(1))
        ref = weakref.ref(sim)
        del sim
        gc.collect()
        assert ref() is None


class TestEngineInstrumentation:
    @pytest.fixture(scope="class")
    def traced(self):
        bench = get_benchmark("GC-citation")
        tracer = Tracer()
        sim = GPUSimulator(
            policy=sch.make_policy(sch.SchemeSpec.parse("spawn"), bench),
            tracer=tracer,
        )
        result = sim.run(bench.dp(1))
        return result, tracer.events()

    def test_traced_run_is_bit_identical_to_untraced(self, traced):
        result, _ = traced
        bench = get_benchmark("GC-citation")
        plain = GPUSimulator(
            policy=sch.make_policy(sch.SchemeSpec.parse("spawn"), bench)
        ).run(bench.dp(1))
        assert plain.makespan == result.makespan
        assert plain.summary() == result.summary()

    def test_all_event_families_present(self, traced):
        _, events = traced
        kinds = {e.kind for e in events}
        for kind in (
            KERNEL_ARRIVAL,
            KERNEL_COMPLETE,
            CTA_DISPATCH,
            CTA_FINISH,
            HWQ_BIND,
            HWQ_RELEASE,
            LAUNCH_DECISION,
        ):
            assert kind in kinds, f"missing {kind}"

    def test_timestamps_monotonic(self, traced):
        _, events = traced
        ts = [e.ts for e in events]
        assert ts == sorted(ts)

    def test_cta_dispatch_finish_balanced(self, traced):
        _, events = traced
        dispatched = filter_events(events, CTA_DISPATCH)
        finished = filter_events(events, CTA_FINISH)
        assert len(dispatched) == len(finished) > 0
        assert {(e.args["kernel_id"], e.args["cta_index"]) for e in dispatched} == {
            (e.args["kernel_id"], e.args["cta_index"]) for e in finished
        }

    def test_decision_count_matches_stats(self, traced):
        result, events = traced
        decisions = filter_events(events, LAUNCH_DECISION)
        launched = [e for e in decisions if e.args["verdict"] == "launch"]
        declined = [e for e in decisions if e.args["verdict"] == "serial"]
        assert len(launched) == result.stats.child_kernels_launched
        assert len(declined) == result.stats.child_kernels_declined

    def test_spawn_decisions_carry_audit_payload(self, traced):
        _, events = traced
        decisions = filter_events(events, LAUNCH_DECISION)
        predicted = [e for e in decisions if not e.args.get("bootstrap")]
        assert predicted, "expected post-bootstrap decisions"
        sample = predicted[0].args
        for field in ("n", "n_con", "t_cta", "t_warp", "t_child", "t_parent"):
            assert field in sample

    def test_hwq_occupancy_within_limit(self, traced):
        _, events = traced
        for e in events:
            if e.kind in (HWQ_BIND, HWQ_RELEASE):
                assert 0 <= e.args["bound"] <= 32
