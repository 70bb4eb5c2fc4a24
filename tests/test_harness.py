"""Tests for the experiment harness (schemes, runner, sweeps)."""

import pytest

from repro.errors import HarnessError, WorkloadError
from repro.harness import schemes as sch
from repro.harness.report import format_series, format_table, percent
from repro.harness.runner import PER_PARENT_CTA, RunConfig, Runner, geometric_mean
from repro.harness.sweep import offline_search, threshold_sweep
from repro.obs.tracer import Tracer
from repro.sim.config import GPUConfig
from repro.sim.engine import GPUSimulator
from repro.workloads import get_benchmark

#: The cheapest benchmark to simulate end-to-end.
FAST = "GC-citation"


@pytest.fixture(scope="module")
def runner():
    return Runner(GPUConfig())


class TestSchemeParsing:
    def test_known_schemes(self):
        assert sch.SchemeSpec.parse("flat").variant == "flat"
        assert sch.SchemeSpec.parse("baseline-dp").variant == "dp"
        assert sch.SchemeSpec.parse("spawn").name == "spawn"
        assert sch.SchemeSpec.parse("dtbl").name == "dtbl"

    def test_threshold_scheme(self):
        spec = sch.SchemeSpec.parse("threshold:128")
        assert spec.threshold == 128
        assert spec.variant == "dp"

    def test_bad_schemes(self):
        with pytest.raises(HarnessError):
            sch.SchemeSpec.parse("nope")
        with pytest.raises(HarnessError):
            sch.SchemeSpec.parse("threshold:abc")
        with pytest.raises(HarnessError):
            sch.SchemeSpec.parse("threshold:-4")

    def test_make_policy_matches_scheme(self):
        bench = get_benchmark(FAST)
        policy = sch.make_policy(sch.SchemeSpec.parse("baseline-dp"), bench)
        assert policy.threshold == bench.default_threshold
        policy = sch.make_policy(sch.SchemeSpec.parse("threshold:99"), bench)
        assert policy.threshold == 99
        policy = sch.make_policy(sch.SchemeSpec.parse("spawn"), bench)
        assert policy.name == "spawn"

    def test_offline_has_no_direct_policy(self):
        with pytest.raises(HarnessError):
            sch.make_policy(sch.SchemeSpec.parse("offline"), get_benchmark(FAST))


class TestRunner:
    def test_run_caches_results(self, runner):
        config = RunConfig(benchmark=FAST, scheme="flat")
        first = runner.run(config)
        second = runner.run(config)
        assert first is second

    def test_distinct_configs_not_conflated(self, runner):
        a = runner.run(RunConfig(benchmark=FAST, scheme="flat"))
        b = runner.run(RunConfig(benchmark=FAST, scheme="baseline-dp"))
        assert a is not b

    def test_speedup_definition(self, runner):
        speedup = runner.speedup(FAST, "baseline-dp")
        flat = runner.run(RunConfig(benchmark=FAST, scheme="flat"))
        base = runner.run(RunConfig(benchmark=FAST, scheme="baseline-dp"))
        assert speedup == pytest.approx(flat.makespan / base.makespan)

    def test_offline_is_offline_search_run(self, runner):
        offline = RunConfig(benchmark=FAST, scheme="offline")
        _, expected = offline_search(runner, FAST)
        assert runner.run(offline) is expected
        assert runner.cached(offline) is expected
        assert Runner().run(offline).summary() == expected.summary()

    def test_offline_is_not_cached_while_its_sweep_is_missing(self):
        fresh = Runner()
        offline = RunConfig(benchmark=FAST, scheme="offline")
        fresh.run(RunConfig(benchmark=FAST, scheme="flat"))
        assert fresh.cached(offline) is None
        assert fresh.metrics.counter("runner.cache_misses").value == 1

    def test_offline_traces_only_the_chosen_run(self):
        offline = RunConfig(benchmark=FAST, scheme="offline")
        threshold, _ = offline_search(Runner(), FAST)
        traced, direct = Tracer(), Tracer()
        Runner().run(offline, tracer=traced)
        Runner().run(
            RunConfig(benchmark=FAST, scheme=f"threshold:{threshold}"),
            tracer=direct,
        )
        assert direct.num_events > 0
        assert [(e.ts, e.kind, e.args) for e in traced.events()] == [
            (e.ts, e.kind, e.args) for e in direct.events()
        ]

    def test_one_default_event_budget(self):
        assert GPUSimulator().max_events == Runner().max_events

    def test_stream_policy_selection(self, runner):
        result = runner.run(
            RunConfig(benchmark=FAST, scheme="baseline-dp", stream_policy=PER_PARENT_CTA)
        )
        assert result.makespan > 0
        with pytest.raises(HarnessError):
            runner.run(RunConfig(benchmark=FAST, scheme="flat", stream_policy="bogus"))

    def test_runner_times_simulations_and_counts_cache(self):
        runner = Runner()
        config = RunConfig(benchmark=FAST, scheme="flat")
        runner.run(config)
        runner.run(config)  # cache hit
        metrics = runner.metrics.to_dict()
        assert metrics["counters"] == {
            "runner.cache_hits": 1.0,
            "runner.cache_misses": 1.0,
        }
        (timer,) = metrics["histograms"].items()
        assert timer[0] == f"runner.sim_seconds{{benchmark={FAST},scheme=flat}}"
        assert timer[1]["count"] == 1 and timer[1]["sum"] > 0

    def test_a_run_that_fails_to_build_is_no_simulation(self):
        runner = Runner()
        with pytest.raises(WorkloadError):
            runner.run(RunConfig(benchmark=FAST, scheme="spawn", seed=-1))
        assert runner.metrics.counter("runner.cache_misses").value == 0


class TestSweep:
    def test_threshold_sweep_covers_thresholds(self, runner):
        sweep = threshold_sweep(runner, FAST, thresholds=(48, 4096))
        assert [p.threshold for p in sweep.points] == [48, 4096]
        # A higher threshold offloads less work.
        assert sweep.points[0].offload_fraction >= sweep.points[1].offload_fraction

    def test_best_point_maximizes_speedup(self, runner):
        sweep = threshold_sweep(runner, FAST, thresholds=(48, 4096))
        best = sweep.best()
        assert best.speedup_over_flat == max(
            p.speedup_over_flat for p in sweep.points
        )

    def test_offline_search_returns_best_run(self, runner):
        threshold, result = offline_search(runner, FAST)
        bench = get_benchmark(FAST)
        assert threshold in bench.sweep_thresholds
        assert result.makespan > 0


class TestAggregation:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geometric_mean_validation(self):
        with pytest.raises(HarnessError):
            geometric_mean([])
        with pytest.raises(HarnessError):
            geometric_mean([1.0, 0.0])


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xx", 3.0]], title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "2.500" in text

    def test_format_series_downsamples(self):
        text = format_series("s", [(float(i), i) for i in range(100)], max_points=5)
        assert text.count("\n") <= 8

    def test_percent(self):
        assert percent(0.5) == "50.0%"
