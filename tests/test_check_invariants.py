"""Tests for the runtime invariant checker (``repro.check.invariants``).

Three layers:

* clean end-to-end runs report zero violations (attached directly and via
  ``Runner(check=True)``),
* synthetic event streams with hand-planted defects trip the matching
  invariant,
* deliberately seeded engine bugs (the subclasses in
  ``tests/seeded_bugs.py``) are caught — the LIFO-bind bug by BOTH the
  invariant checker and the golden-trace diff, which is the conformance
  subsystem's acceptance criterion.
"""

import pytest

from repro.check import ConformanceChecker, diff_traces
from repro.check.golden import canonical_events
from repro.errors import ConformanceError
from repro.harness.runner import RunConfig, Runner
from repro.harness.schemes import SchemeSpec, make_policy
from repro.obs.tracer import (
    CTA_DISPATCH,
    CTA_FINISH,
    HWQ_BIND,
    HWQ_RELEASE,
    KERNEL_ARRIVAL,
    KERNEL_COMPLETE,
    LAUNCH_MERGE,
)
from repro.runtime.streams import PerParentCTAStream
from repro.sim.config import GPUConfig
from repro.sim.engine import GPUSimulator
from repro.sim.gmu import GMU
from repro.sim.smx import SMX
from repro.workloads import get_benchmark
from tests.seeded_bugs import (
    CrossWarpMergeSimulator,
    LIFOBindGMU,
    ReversedRoundRobinGMU,
    UnguardedACSGMU,
    UnpaddedMergeSimulator,
)


def _checked_run(
    benchmark,
    scheme,
    *,
    config=None,
    sim_cls=GPUSimulator,
    stream_policy=None,
):
    """Simulate one benchmark/scheme cell with a checker attached."""
    config = config or GPUConfig()
    bench = get_benchmark(benchmark)
    spec = SchemeSpec.parse(scheme)
    policy = make_policy(spec, bench)
    app = bench.flat(1) if scheme == "flat" else bench.dp(1)
    checker = ConformanceChecker(config, scheme=scheme)
    sim = sim_cls(
        config=config,
        policy=policy,
        stream_policy=stream_policy,
        tracer=checker,
        bind_policy=spec.bind_policy,
    )
    result = sim.run(app)
    return checker, result


class TestCleanRuns:
    def test_mm_small_spawn_zero_violations(self):
        checker, result = _checked_run("MM-small", "spawn")
        checker.finalize(result)
        assert checker.violations == []
        assert checker.events_checked > 0

    def test_flat_scheme_zero_violations(self):
        checker, result = _checked_run("MM-small", "flat")
        checker.finalize(result)
        assert checker.violations == []

    def test_finalize_accepts_simresult_or_stats(self):
        checker, result = _checked_run("MM-small", "spawn")
        assert checker.finalize(result) == []
        other, result2 = _checked_run("MM-small", "spawn")
        assert other.finalize(result2.stats) == []

    def test_runner_check_flag(self):
        result = Runner().run(
            RunConfig(benchmark="MM-small", scheme="spawn"), check=True
        )
        assert result.makespan > 0

    def test_stats_tampering_is_caught(self):
        checker, result = _checked_run("MM-small", "spawn")
        result.stats.child_kernels_launched += 1
        checker.finalize(result)
        assert any(v.invariant == "stats" for v in checker.violations)

    def test_raise_if_violations(self):
        checker, result = _checked_run("MM-small", "spawn")
        checker.raise_if_violations()  # clean: no exception
        result.stats.makespan += 1.0
        checker.finalize(result)
        with pytest.raises(ConformanceError) as excinfo:
            checker.raise_if_violations()
        assert excinfo.value.violations
        assert "makespan" in str(excinfo.value)


class TestSyntheticViolations:
    """Hand-built event streams exercising each invariant's trip wire."""

    def _checker(self, **config_kwargs):
        return ConformanceChecker(GPUConfig(**config_kwargs))

    def test_clock_regression(self):
        checker = self._checker()
        checker.emit(HWQ_BIND, ts=10.0, swq=1, bound=1)
        checker.emit(HWQ_RELEASE, ts=5.0, swq=1, bound=0)
        assert [v.invariant for v in checker.violations] == ["clock"]

    def test_harness_events_exempt_from_clock(self):
        checker = self._checker()
        checker.emit(HWQ_BIND, ts=10.0, swq=1, bound=1)
        checker.emit("harness.run_start", ts=0.0)
        assert checker.violations == []

    def test_double_bind_and_overflow(self):
        checker = self._checker(num_hwq=2)
        checker.emit(HWQ_BIND, ts=0.0, swq=1, bound=1)
        checker.emit(HWQ_BIND, ts=1.0, swq=1, bound=1)
        assert any("already bound" in v.message for v in checker.violations)
        checker.emit(HWQ_BIND, ts=2.0, swq=2, bound=2)
        checker.emit(HWQ_BIND, ts=3.0, swq=3, bound=3)
        assert any(
            v.invariant == "hwq" and "concurrently bound" in v.message
            for v in checker.violations
        )

    def test_release_without_bind(self):
        checker = self._checker()
        checker.emit(HWQ_RELEASE, ts=0.0, swq=7, bound=0)
        assert any("was not bound" in v.message for v in checker.violations)

    def test_occupancy_counter_mismatch(self):
        checker = self._checker()
        checker.emit(HWQ_BIND, ts=0.0, swq=1, bound=5)  # mirror holds 1
        assert any(
            v.invariant == "hwq" and "reports bound=5" in v.message
            for v in checker.violations
        )

    def test_fcfs_bind_order(self):
        checker = self._checker(num_hwq=1)
        # Stream 1 binds immediately; streams 2 and 3 must wait.
        checker.emit(HWQ_BIND, ts=0.0, swq=1, bound=1)
        checker.emit(
            KERNEL_ARRIVAL, ts=0.0, kernel_id=1, num_ctas=1, stream=1
        )
        checker.emit(
            KERNEL_ARRIVAL, ts=1.0, kernel_id=2, num_ctas=1, stream=2
        )
        checker.emit(
            KERNEL_ARRIVAL, ts=2.0, kernel_id=3, num_ctas=1, stream=3
        )
        checker.emit(HWQ_RELEASE, ts=3.0, swq=1, bound=0)
        # Binding stream 3 jumps the queue: stream 2 waited longer.
        checker.emit(HWQ_BIND, ts=3.0, swq=3, bound=1)
        assert any(v.invariant == "fcfs" for v in checker.violations)

    def test_duplicate_arrival(self):
        checker = self._checker()
        for ts in (0.0, 1.0):
            checker.emit(
                KERNEL_ARRIVAL, ts=ts, kernel_id=9, num_ctas=1, stream=1
            )
        assert any("arrived twice" in v.message for v in checker.violations)

    def test_cta_conservation(self):
        checker = self._checker()
        checker.emit(
            CTA_FINISH, ts=0.0, kernel_id=1, cta_index=0, smx=0, exec_time=1.0
        )
        assert any(
            "finished without being dispatched" in v.message
            for v in checker.violations
        )

    def test_cta_double_dispatch(self):
        checker = self._checker()
        checker.emit(
            KERNEL_ARRIVAL, ts=0.0, kernel_id=1, num_ctas=2, stream=1
        )
        for ts in (1.0, 2.0):
            checker.emit(
                CTA_DISPATCH, ts=ts, kernel_id=1, cta_index=0, smx=0,
                is_child=False, warps=1, threads=32, regs=32, shmem=0,
            )
        assert any(
            "dispatched twice" in v.message for v in checker.violations
        )

    def test_residency_cap(self):
        checker = self._checker()
        cap = GPUConfig().max_threads_per_smx
        checker.emit(
            KERNEL_ARRIVAL, ts=0.0, kernel_id=1, num_ctas=2, stream=1
        )
        for cta in range(2):
            checker.emit(
                CTA_DISPATCH, ts=1.0, kernel_id=1, cta_index=cta, smx=0,
                is_child=False, warps=cap // 32, threads=cap, regs=0, shmem=0,
            )
        assert any(v.invariant == "residency" for v in checker.violations)

    def test_completion_with_unfinished_ctas(self):
        checker = self._checker()
        checker.emit(
            KERNEL_ARRIVAL, ts=0.0, kernel_id=1, num_ctas=3, stream=1
        )
        checker.emit(
            KERNEL_COMPLETE, ts=5.0, kernel_id=1, is_child=False, stream=1
        )
        assert any(
            v.invariant == "conservation" and "CTAs finished" in v.message
            for v in checker.violations
        )

    def test_finalize_flags_incomplete_kernels(self):
        checker = self._checker()
        checker.emit(
            KERNEL_ARRIVAL, ts=0.0, kernel_id=1, num_ctas=1, stream=1
        )
        checker.finalize()
        assert any("never completed" in v.message for v in checker.violations)

    @staticmethod
    def _merge_event(**overrides):
        """A well-formed two-constituent block-scope merge event."""
        args = dict(
            child_kernel_id=100,
            kernel="c+merge2",
            scope="block",
            num_ctas=3,
            num_requests=2,
            stream=5,
            src=[[1, 0, 0, 3, 1], [1, 0, 1, 40, 2]],
        )
        args.update(overrides)
        return args

    def test_merge_cta_conservation(self):
        checker = self._checker()
        checker.emit(LAUNCH_MERGE, ts=0.0, **self._merge_event(num_ctas=4))
        assert any(
            v.invariant == "merge" and "conservation" in v.message
            for v in checker.violations
        )

    def test_merge_scope_mixing(self):
        checker = self._checker()
        checker.emit(
            LAUNCH_MERGE,
            ts=0.0,
            **self._merge_event(src=[[1, 0, 0, 3, 1], [1, 1, 0, 3, 2]]),
        )
        assert any(
            v.invariant == "merge" and "distinct" in v.message
            for v in checker.violations
        )

    def test_merge_scope_must_match_scheme(self):
        checker = ConformanceChecker(GPUConfig(), scheme="aggregate:grid")
        checker.emit(LAUNCH_MERGE, ts=0.0, **self._merge_event())
        assert any(
            v.invariant == "merge" and "expected scope" in v.message
            for v in checker.violations
        )

    def test_merge_batch_bound(self):
        checker = ConformanceChecker(GPUConfig(), scheme="consolidate:2")
        checker.emit(
            LAUNCH_MERGE,
            ts=0.0,
            **self._merge_event(
                scope="cta",
                num_ctas=5,
                num_requests=3,
                src=[[1, 0, 0, 3, 1], [1, 0, 1, 40, 2], [1, 0, 1, 41, 2]],
            ),
        )
        assert any(
            v.invariant == "merge" and "batch bound" in v.message
            for v in checker.violations
        )

    def test_merge_arrival_cta_count_cross_check(self):
        checker = self._checker()
        checker.emit(LAUNCH_MERGE, ts=0.0, **self._merge_event())
        checker.emit(
            KERNEL_ARRIVAL, ts=1.0, kernel_id=100, num_ctas=7, stream=5
        )
        assert any(
            v.invariant == "merge" and "promised" in v.message
            for v in checker.violations
        )

    def test_merge_never_arriving_flagged_at_finalize(self):
        checker = self._checker()
        checker.emit(LAUNCH_MERGE, ts=0.0, **self._merge_event())
        checker.finalize()
        assert any(
            v.invariant == "merge" and "never arrived" in v.message
            for v in checker.violations
        )


class TestSmxSelfAudit:
    def test_fresh_smx_is_clean(self):
        assert SMX(0, GPUConfig()).check_invariants() == []

    def test_counter_drift_detected(self):
        smx = SMX(0, GPUConfig())
        smx.used_threads += 64  # simulate a lost decrement
        problems = smx.check_invariants()
        assert any("used_threads" in p for p in problems)


class TestSeededBugs:
    """The acceptance criterion: a deliberately seeded ordering bug must be
    caught by BOTH the invariant checker and the golden-trace diff."""

    @staticmethod
    def _gmu_trace(gmu_cls=GMU):
        """BFS-citation / baseline-dp with only 2 HWQs, so streams queue."""

        class Sim(GPUSimulator):
            gmu_factory = gmu_cls

        return _checked_run(
            "BFS-citation", "baseline-dp",
            config=GPUConfig(num_hwq=2), sim_cls=Sim,
        )

    def test_lifo_bind_caught_by_checker_and_diff(self):
        clean, clean_result = self._gmu_trace()
        clean.finalize(clean_result)
        assert clean.violations == []

        buggy, buggy_result = self._gmu_trace(LIFOBindGMU)
        buggy.finalize(buggy_result)
        # Leg 1: the invariant checker flags the FCFS violation directly.
        assert any(v.invariant == "fcfs" for v in buggy.violations)
        # Leg 2: the golden-trace diff reports the first divergence.
        divergence = diff_traces(
            canonical_events(clean.events()),
            canonical_events(buggy.events()),
        )
        assert divergence is not None
        assert divergence.index >= 0
        report = str(divergence)
        assert "diverge" in report and str(divergence.index) in report

    @pytest.mark.slow
    def test_reverse_rr_caught_by_trace_diff(self):
        """Reversed GMU round-robin passes every local invariant (it is a
        fairness bug, not a correctness bug) — only the trace diff sees it."""

        def join_trace(gmu_cls=GMU):
            class Sim(GPUSimulator):
                gmu_factory = gmu_cls

            return _checked_run("JOIN-uniform", "baseline-dp", sim_cls=Sim)

        clean, _ = join_trace()
        buggy, buggy_result = join_trace(ReversedRoundRobinGMU)
        buggy.finalize(buggy_result)
        assert not any(v.invariant == "fcfs" for v in buggy.violations)
        divergence = diff_traces(
            canonical_events(clean.events()),
            canonical_events(buggy.events()),
        )
        assert divergence is not None


class TestSchemeZooCleanRuns:
    """Every new scheme passes its own per-scheme invariants end-to-end."""

    @pytest.mark.parametrize(
        "scheme",
        ["consolidate", "consolidate:4", "aggregate:warp",
         "aggregate:block", "aggregate:grid", "acs"],
    )
    def test_zero_violations(self, scheme):
        checker, result = _checked_run("BFS-citation", scheme)
        checker.finalize(result)
        assert checker.violations == []
        assert checker.events_checked > 0

    @pytest.mark.parametrize("scheme", ["consolidate", "aggregate:block"])
    def test_merge_events_present(self, scheme):
        checker, result = _checked_run("BFS-citation", scheme)
        checker.finalize(result)
        assert result.stats.merged_kernels_launched > 0
        assert any(e.kind == LAUNCH_MERGE for e in checker.events())


class TestSchemeZooSeededBugs:
    """Each scheme-zoo invariant is proven live by a seeded engine bug:
    breaking the behaviour it guards must produce violations, and the
    matching clean run must not."""

    def test_unpadded_merge_breaks_cta_conservation(self):
        clean, clean_result = _checked_run("BFS-citation", "consolidate")
        clean.finalize(clean_result)
        assert clean.violations == []

        buggy, buggy_result = _checked_run(
            "BFS-citation", "consolidate", sim_cls=UnpaddedMergeSimulator
        )
        buggy.finalize(buggy_result)
        merge = [v for v in buggy.violations if v.invariant == "merge"]
        assert merge, "dropping the zero-pad must violate CTA conservation"
        assert any("conservation" in v.message for v in merge)

    def test_cross_warp_merge_breaks_scope_bound(self):
        clean, clean_result = _checked_run("BFS-citation", "aggregate:warp")
        clean.finalize(clean_result)
        assert clean.violations == []

        buggy, buggy_result = _checked_run(
            "BFS-citation", "aggregate:warp", sim_cls=CrossWarpMergeSimulator
        )
        buggy.finalize(buggy_result)
        merge = [v for v in buggy.violations if v.invariant == "merge"]
        assert merge, "collapsing warp ids must violate the scope bound"
        assert any("contexts" in v.message for v in merge)

    @staticmethod
    def _acs_trace(gmu_cls=GMU):
        """BFS-citation / acs with 2 HWQs and per-parent-CTA streams, so
        multiple kernels share a stream and streams queue for binding."""

        class Sim(GPUSimulator):
            gmu_factory = gmu_cls

        return _checked_run(
            "BFS-citation", "acs",
            config=GPUConfig(num_hwq=2),
            stream_policy=PerParentCTAStream(),
            sim_cls=Sim,
        )

    def test_acs_unguarded_breaks_same_stream_order(self):
        clean, clean_result = self._acs_trace()
        clean.finalize(clean_result)
        assert clean.violations == []

        buggy, buggy_result = self._acs_trace(UnguardedACSGMU)
        buggy.finalize(buggy_result)
        # Reordering *within* a stream is exactly what ACS must never do;
        # the same-stream FIFO invariant reports under "fcfs".
        assert any(v.invariant == "fcfs" for v in buggy.violations)

    def test_acs_reorders_but_clean_golden_differs_from_fcfs(self):
        """ACS genuinely reorders cross-stream binds (it is not a no-op):
        with the identical admission policy (baseline-dp shares ACS's
        StaticThreshold) and per-child streams queueing on 2 HWQs, its
        trace diverges from the FCFS trace."""
        acs, acs_result = _checked_run(
            "BFS-citation", "acs", config=GPUConfig(num_hwq=2)
        )
        acs.finalize(acs_result)
        assert acs.violations == []
        fcfs, _ = _checked_run(
            "BFS-citation", "baseline-dp", config=GPUConfig(num_hwq=2)
        )
        divergence = diff_traces(
            canonical_events(fcfs.events()),
            canonical_events(acs.events()),
        )
        assert divergence is not None
