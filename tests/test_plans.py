"""Tests of the experiments' declared plans and of rendering from them."""

import dataclasses

import pytest

from repro.errors import HarnessError, RunFailure, SimulationError
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments import (
    fig06_concurrency,
    fig15_speedup,
    fig19_timeline,
    fig20_launch_cdf,
)
from repro.experiments.common import Experiment, PlannedRuns
from repro.harness import schemes as sch
from repro.harness.parallel import ParallelRunner
from repro.harness.runner import RunConfig, Runner
from repro.harness.sweep import offline_search
from repro.sim.engine import GPUSimulator
from repro.workloads import get_benchmark

FAST = "GC-citation"


def fan_out(runner, configs):
    """``configs`` through one serial ``run_suite``; their PlannedRuns."""
    return PlannedRuns(runner, ParallelRunner(runner, jobs=1).run_suite(configs))


class TestPlanTable:
    def test_every_experiment_has_a_plan(self):
        for entry in ALL_EXPERIMENTS.values():
            assert isinstance(entry, Experiment)

    def test_plans_parse_and_dedupe(self):
        for name, entry in ALL_EXPERIMENTS.items():
            keys = [config.key() for config in entry.plan()]
            assert len(keys) == len(set(keys)), name
            for config in entry.plan():
                sch.SchemeSpec.parse(config.scheme)  # raises on an invalid scheme

    def test_static_experiments_plan_nothing(self):
        for name in ("table1", "table2", "fig01"):
            assert ALL_EXPERIMENTS[name].plan(1) == []

    def test_seed_threads_through(self):
        for entry in ALL_EXPERIMENTS.values():
            assert all(config.seed == 7 for config in entry.plan(7))

    def test_subset_selection(self):
        plan = ALL_EXPERIMENTS["fig19"].plan()
        assert {config.benchmark for config in plan} == {"BFS-graph500"}
        plan = fig15_speedup.plan(benchmarks=(FAST,))
        assert {config.benchmark for config in plan} == {FAST}


class TestPlanCoverage:
    """A plan must cover its experiment: rendering simulates nothing."""

    @pytest.mark.parametrize(
        "name,entry",
        [
            pytest.param("fig06", fig06_concurrency.run, id="fig06-run"),
            pytest.param("fig19", fig19_timeline.run, id="fig19-run"),
            pytest.param("fig20", fig20_launch_cdf.run, id="fig20-run"),
        ],
    )
    def test_plan_covers_experiment(self, name, entry):
        runner = Runner()
        runs = fan_out(runner, entry.plan(1))
        misses = runner.metrics.counter("runner.cache_misses")
        planned = misses.value
        entry.render(runs, 1)
        assert misses.value == planned, f"{name}'s plan under-declares its run-set"


class TestPlannedRuns:
    def test_a_config_outside_the_plan_raises(self):
        runner = Runner()
        runs = fan_out(runner, [RunConfig(benchmark=FAST, scheme="flat")])
        with pytest.raises(HarnessError, match="not in the experiment's plan"):
            runs.run(RunConfig(benchmark=FAST, scheme="spawn"))
        assert runner.cache_size() == 1

    def test_an_offline_entry_plans_its_sweep(self):
        runner = Runner()
        offline = RunConfig(benchmark=FAST, scheme="offline")
        report = ParallelRunner(runner, jobs=1).run_suite([offline])
        _, result = offline_search(PlannedRuns(runner, report), FAST)
        assert result is report.results[0]

    def test_an_offline_entry_answers_its_offline_config(self):
        runner = Runner()
        offline = RunConfig(benchmark=FAST, scheme="offline")
        runs = fan_out(runner, [offline])
        _, expected = offline_search(Runner(), FAST)
        assert runs.run(offline).summary() == expected.summary()

    def test_a_quarantined_sweep_run_fails_its_offline_config(self, monkeypatch):
        doomed = f"threshold:{get_benchmark(FAST).sweep_thresholds[1]}"
        make_policy = sch.make_policy

        def failing(spec, benchmark):
            if spec.name == doomed:
                raise SimulationError("doomed sweep run")
            return make_policy(spec, benchmark)

        monkeypatch.setattr(sch, "make_policy", failing)
        offline = RunConfig(benchmark=FAST, scheme="offline")
        runs = fan_out(Runner(), [offline])
        with pytest.raises(RunFailure, match="doomed sweep run") as caught:
            runs.run(offline)
        assert caught.value.config == dataclasses.replace(offline, scheme=doomed)

    def test_a_quarantined_config_raises_without_simulating(self, monkeypatch):
        calls = []
        simulate = GPUSimulator.run

        def counted(self, app):
            calls.append(app)
            return simulate(self, app)

        monkeypatch.setattr(GPUSimulator, "run", counted)
        doomed = RunConfig(benchmark=FAST, scheme="baseline-dp")
        runs = fan_out(Runner(max_events=50), [doomed])
        assert len(calls) == 1
        with pytest.raises(RunFailure, match="event budget") as caught:
            runs.run(doomed)
        assert caught.value.config == doomed
        assert len(calls) == 1
