"""Tests for the stable ``repro.api`` façade and its deprecation shims."""

import pytest

from repro import api
from repro.errors import HarnessError
from repro.harness.runner import RunConfig, Runner

#: The cheapest benchmark to simulate end-to-end.
FAST = "GC-citation"


@pytest.fixture(scope="module")
def runner():
    return Runner()


class TestSimulate:
    def test_end_to_end(self, runner):
        result = api.simulate(FAST, "spawn", runner=runner)
        assert result.makespan > 0
        assert result is runner.run(RunConfig(benchmark=FAST, scheme="spawn"))

    def test_explicit_parameters_reach_the_config(self, runner):
        result = api.simulate(
            FAST, "baseline-dp", runner=runner, trace_interval=500.0
        )
        expected = runner.run(
            RunConfig(benchmark=FAST, scheme="baseline-dp", trace_interval=500.0)
        )
        assert result is expected

    def test_speedup(self, runner):
        speedup = api.speedup(FAST, "spawn", runner=runner)
        flat = runner.run(RunConfig(benchmark=FAST, scheme="flat"))
        spawn = runner.run(RunConfig(benchmark=FAST, scheme="spawn"))
        assert speedup == pytest.approx(flat.makespan / spawn.makespan)


class TestRunSuite:
    def test_accepts_tuples_and_configs(self, runner):
        report = api.run_suite(
            [(FAST, "flat"), RunConfig(benchmark=FAST, scheme="spawn")],
            runner=runner,
            jobs=1,
        )
        assert report.ok
        assert all(r is not None and r.makespan > 0 for r in report.results)

    def test_seed_applies_to_tuple_entries(self, runner):
        report = api.run_suite([(FAST, "flat")], runner=runner, jobs=1, seed=3)
        assert report.configs[0].seed == 3

    def test_rejects_garbage_entries(self):
        with pytest.raises(HarnessError):
            api.run_suite([42], jobs=1)

    def test_policy_knobs_validate(self):
        with pytest.raises(HarnessError):
            api.run_suite([(FAST, "flat")], jobs=1, timeout=-1.0)


class TestRunnerConflicts:
    """Arguments that configure a new runner cannot ride beside one."""

    @pytest.mark.parametrize("call,names", [
        ("simulate", ["store"]),
        ("simulate", ["gpu"]),
        ("simulate", ["max_events"]),
        ("run_suite", ["store"]),
        ("run_suite", ["gpu", "max_events"]),
        ("speedup", ["gpu"]),
        ("serve", ["store"]),
    ])
    def test_conflict_raises_naming_the_arguments(self, runner, tmp_path,
                                                  call, names):
        values = {
            "store": api.open_store(f"sqlite://{tmp_path}/results.db"),
            "gpu": api.small_debug_gpu(),
            "max_events": 10,
        }
        args = {name: values[name] for name in names}
        positional = {
            "simulate": (FAST, "flat"),
            "run_suite": ([(FAST, "flat")],),
            "speedup": (FAST, "spawn"),
            "serve": (),
        }[call]
        with pytest.raises(HarnessError) as raised:
            getattr(api, call)(*positional, runner=runner, **args)
        for name in names:
            assert f"{name}=" in str(raised.value)
        assert (runner.store, runner.config) == (None, api.GPUConfig())

    def test_arguments_without_a_runner_build_it(self, tmp_path):
        store = api.open_store(f"sqlite://{tmp_path}/results.db")
        result = api.simulate(FAST, "flat", gpu=api.GPUConfig(num_smx=6),
                              store=store)
        assert result.makespan > 0
        assert store.stats().entries == 1


class TestSurface:
    def test_every_exported_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_core_reexports_are_the_real_types(self):
        assert api.RunConfig is RunConfig
        assert api.Runner is Runner


class TestDeprecationShims:
    """The explicit ``Runner.run_simple`` signature: no pass-through."""

    def test_run_simple_explicit_keywords_do_not_warn(self, runner):
        # pytest is configured with error::DeprecationWarning, so a stray
        # warning here would fail the test on its own.
        result = runner.run_simple(FAST, "flat", seed=1)
        assert result is runner.run(RunConfig(benchmark=FAST, scheme="flat"))

    def test_run_simple_unknown_kwarg_is_still_a_typeerror(self, runner):
        with pytest.raises(TypeError, match="unexpected keyword"):
            runner.run_simple(FAST, "flat", trace_intervall=500.0)
