"""Chaos tests: deterministic faults against the suite executor.

Faults come from ``tests/fault_injection.py``, which patches the pool's
worker entry point and the result store from outside the package.  With
worker kills, hangs past the timeout, torn payloads or flaky store IO
injected, a parallel suite still completes, and every retried task's
result is **bit-identical** to a fault-free serial run.  A deterministic
failure, a real ``WorkloadError``, is quarantined on its first attempt
and reported without aborting the others.

``TestServiceChaos`` lifts the same guarantees one layer up: the same
faults injected *under live service traffic* must leave the
:class:`~repro.service.SimulationService` standing — quarantined jobs
fail their own handles and show up in the stats ledger, everything else
completes bit-identically, and no submission is ever lost.
"""

import asyncio
import dataclasses
import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

from repro.api import run_suite
from repro.errors import HarnessError, RunFailure, WorkloadError
from repro.harness import parallel
from repro.harness.parallel import (
    FAILED,
    OK,
    SKIPPED,
    ExecutionPolicy,
    ParallelRunner,
)
from repro.harness.runner import RunConfig, Runner
from repro.harness.store import ResultStore, open_store
from repro.obs.tracer import HARNESS_REQUEUE, Tracer
from repro.service import ServiceConfig, SimulationService
from repro.sim.engine import GPUSimulator
from tests.fault_injection import ENV_FAULTS, FaultPlan, injected

#: The two cheapest end-to-end benchmarks.
FAST = "GC-citation"
FAST2 = "MM-small"

#: The chaos suite: four cheap runs across two benchmarks.
CONFIGS = [
    RunConfig(benchmark=FAST, scheme="flat"),
    RunConfig(benchmark=FAST, scheme="spawn"),
    RunConfig(benchmark=FAST2, scheme="flat"),
    RunConfig(benchmark=FAST2, scheme="spawn"),
]

#: A run that fails the same way on every attempt: its workload builder
#: raises WorkloadError for a negative child CTA size.
DOOMED = RunConfig(benchmark=FAST, scheme="spawn", cta_threads=-32)

#: The chaos suite with its second run replaced by the doomed one.
WITH_DOOMED = [CONFIGS[0], DOOMED, *CONFIGS[2:]]


@pytest.fixture(scope="module")
def baseline():
    """Fault-free serial summaries, the bit-identity reference."""
    runner = Runner()
    return [runner.run(config).summary() for config in CONFIGS]


def assert_bit_identical(report, baseline):
    assert report.ok
    assert [r.summary() for r in report.results] == baseline


def survivors_of_doomed(results, baseline):
    """(summaries of the runs that completed, what they should equal)."""
    survivors = [
        result.summary()
        for result in results
        if not isinstance(result, RunFailure)
    ]
    return survivors, [baseline[0], *baseline[2:]]


def assert_doomed_quarantined_once(report, baseline):
    assert report.quarantined == 1
    assert report.retries == 0
    [failure] = report.failures
    assert failure.config == DOOMED
    assert failure.attempts == 1
    assert isinstance(failure.failure.__cause__, WorkloadError)
    # Exactly the doomed slot is None; every other run completed.
    assert [r is None for r in report.results] == [
        c is DOOMED for c in WITH_DOOMED
    ]
    survivors = [r.summary() for r in report.results if r is not None]
    assert survivors == [baseline[0], *baseline[2:]]


class TestFaultPlanModel:
    def test_round_trips_through_dict(self, monkeypatch):
        plan = FaultPlan(kill_on_dispatch=3, delay_on_dispatch=1, delay_seconds=0.5)
        monkeypatch.setenv(ENV_FAULTS, json.dumps(dataclasses.asdict(plan)))
        assert FaultPlan.from_env() == plan

    def test_rejects_unknown_fields(self, monkeypatch):
        monkeypatch.setenv(ENV_FAULTS, json.dumps({"kill_on_dispach": 3}))
        with pytest.raises(HarnessError, match="unknown fault plan field"):
            FaultPlan.from_env()

    def test_delay_needs_duration(self):
        with pytest.raises(HarnessError):
            FaultPlan(delay_on_dispatch=0)

    def test_noop_detection(self):
        """An empty plan patches nothing; a task fault patches the pool's
        worker entry point only."""
        def hooks():
            return parallel._simulate_payload, ResultStore.load, ResultStore.save

        originals = hooks()
        assert not FaultPlan().injects_task_faults()
        with injected(FaultPlan()):
            assert hooks() == originals
        with injected(FaultPlan(kill_on_dispatch=0)):
            patched = hooks()
            assert patched[0] is not originals[0]
            assert patched[1:] == originals[1:]
        assert hooks() == originals

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(ENV_FAULTS, raising=False)
        assert FaultPlan.from_env() == FaultPlan()
        monkeypatch.setenv(ENV_FAULTS, json.dumps({"kill_on_dispatch": 2}))
        assert FaultPlan.from_env() == FaultPlan(kill_on_dispatch=2)
        monkeypatch.setenv(ENV_FAULTS, "{not json")
        with pytest.raises(HarnessError):
            FaultPlan.from_env()
        monkeypatch.setenv(ENV_FAULTS, "[1, 2]")
        with pytest.raises(HarnessError):
            FaultPlan.from_env()

    def test_install_needs_the_fork_start_method(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda: "spawn")
        with pytest.raises(RuntimeError, match="fork"):
            with injected(FaultPlan(kill_on_dispatch=0)):
                pass
        assert parallel._simulate_payload.__module__ == "repro.harness.parallel"
        assert not hasattr(parallel._simulate_payload, "__wrapped__")


class TestExecutionPolicy:
    def test_validation(self):
        with pytest.raises(HarnessError):
            ExecutionPolicy(timeout=0)
        with pytest.raises(HarnessError):
            ExecutionPolicy(max_retries=-1)
        with pytest.raises(HarnessError):
            ExecutionPolicy(max_pool_rebuilds=-1)

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(ExecutionPolicy)] == [
            "timeout", "max_retries", "fail_fast", "max_pool_rebuilds",
        ]


class TestFlakyStore:
    def test_budgeted_errors_then_delegates(self, tmp_path):
        store = open_store(tmp_path / "results.db")
        key = store.key_for(CONFIGS[0], Runner().config, 1000)
        with injected(FaultPlan(store_load_errors=1)):
            with pytest.raises(OSError):
                store.load(key)
            assert store.load(key) is None  # budget spent; real (empty) store

    def test_runner_survives_store_io_errors(self, tmp_path):
        runner = Runner(store=open_store(tmp_path / "results.db"))
        with injected(FaultPlan(store_save_errors=10, store_load_errors=10)):
            result = runner.run(CONFIGS[0])
        assert result.makespan > 0
        # Every disk write failed, but the memory cache still answers.
        assert runner.cached(CONFIGS[0]) is result
        assert runner.metrics.counter("runner.store_errors").value == 2
        assert open_store(tmp_path / "results.db").stats().entries == 0

    def test_flaky_store_passthrough_when_no_budget(self):
        load, save = ResultStore.load, ResultStore.save
        with injected(FaultPlan(corrupt_on_dispatch=0)):
            assert (ResultStore.load, ResultStore.save) == (load, save)
        with injected(FaultPlan(store_save_errors=1)):
            assert ResultStore.load is load
            assert ResultStore.save is not save

    def test_run_suite_applies_the_plans_store_faults(self, tmp_path):
        runner = Runner(store=open_store(tmp_path / "results.db"))
        with injected(FaultPlan(store_save_errors=1)):
            report = run_suite(
                [RunConfig(benchmark=FAST, scheme="flat")], jobs=1, runner=runner
            )
        assert report.ok
        assert open_store(tmp_path / "results.db").stats().entries == 0
        assert runner.metrics.counter("runner.store_errors").value == 1

    def test_store_is_wrapped_once(self):
        """A second plan cannot stack its budget on the first."""
        save = ResultStore.save
        plan = FaultPlan(store_save_errors=1)
        with injected(plan):
            wrapped = ResultStore.save
            with pytest.raises(RuntimeError, match="already installed"):
                with injected(plan):
                    pass
            assert ResultStore.save is wrapped
        assert ResultStore.save is save


class TestChaosDeterminism:
    """Injected faults may cost retries, never change a result."""

    def test_worker_kill_is_retried_bit_identically(self, baseline):
        with injected(FaultPlan(kill_on_dispatch=0)):
            report = ParallelRunner(Runner(), jobs=2).run_suite(CONFIGS)
        assert report.worker_crashes >= 1
        assert report.pool_rebuilds >= 1
        assert report.retries >= 1
        assert report.dispatched == len(CONFIGS) + report.retries
        assert_bit_identical(report, baseline)

    def test_hung_task_times_out_and_retries_bit_identically(self, baseline):
        pr = ParallelRunner(Runner(), jobs=2, policy=ExecutionPolicy(timeout=2.0))
        with injected(FaultPlan(delay_on_dispatch=1, delay_seconds=6.0)):
            report = pr.run_suite(CONFIGS)
        assert report.timeouts >= 1
        assert report.retries >= 1
        assert_bit_identical(report, baseline)

    def test_corrupt_payload_is_retried_bit_identically(self, baseline):
        with injected(FaultPlan(corrupt_on_dispatch=0)):
            report = ParallelRunner(Runner(), jobs=2).run_suite(CONFIGS)
        assert report.retries >= 1
        assert_bit_identical(report, baseline)

    def test_dying_pool_degrades_to_serial_bit_identically(self, baseline):
        pr = ParallelRunner(
            Runner(), jobs=2, policy=ExecutionPolicy(max_pool_rebuilds=0)
        )
        with injected(FaultPlan(kill_on_dispatch=0)):
            report = pr.run_suite(CONFIGS)
        assert report.serial_fallback
        assert report.worker_crashes >= 1
        assert report.pool_rebuilds == 0
        assert_bit_identical(report, baseline)

    def test_inline_faults_follow_the_same_retry_path(self, baseline):
        """A transient error on the serial path is retried like a pooled one."""

        class FailsOnce(Runner):
            failed = False

            def run(self, run_config, **kwargs):
                if not self.failed:
                    self.failed = True
                    raise OSError("transient host error")
                return super().run(run_config, **kwargs)

        report = ParallelRunner(FailsOnce(), jobs=1).run_suite(CONFIGS)
        assert report.retries == 1
        assert report.worker_crashes == 0
        assert report.dispatched == 0
        assert [o.attempts for o in report.outcomes] == [2, 1, 1, 1]
        assert_bit_identical(report, baseline)


class TestQuarantine:
    def test_permanent_failure_is_quarantined_not_fatal(self, baseline):
        pr = ParallelRunner(Runner(), jobs=2)
        report = pr.run_suite(WITH_DOOMED)
        assert not report.ok
        assert_doomed_quarantined_once(report, baseline)
        with pytest.raises(RunFailure):
            report.raise_if_failed()

    def test_permanent_failure_is_quarantined_serially(self, baseline):
        report = ParallelRunner(Runner(), jobs=1).run_suite(WITH_DOOMED)
        assert_doomed_quarantined_once(report, baseline)

    def test_exhausted_event_budget_is_simulated_once(self, monkeypatch):
        calls = []
        simulate = GPUSimulator.run

        def counted(self, app):
            calls.append(app)
            return simulate(self, app)

        monkeypatch.setattr(GPUSimulator, "run", counted)
        config = RunConfig(benchmark=FAST, scheme="baseline-dp")
        report = ParallelRunner(Runner(max_events=50), jobs=1).run_suite([config])
        assert len(calls) == 1
        [failure] = report.failures
        assert failure.attempts == 1
        assert "event budget" in failure.error

    def test_negative_seed_is_quarantined_after_one_attempt(self):
        report = run_suite([(FAST, "flat"), (FAST, "spawn")], seed=-1, jobs=1)
        assert report.quarantined == 2
        assert report.retries == 0
        assert [o.attempts for o in report.outcomes] == [1, 1]
        assert all(
            isinstance(o.failure.__cause__, WorkloadError) for o in report.outcomes
        )

    def test_kill_then_legitimate_failure_takes_two_attempts(self):
        """A crash is retried; the real failure behind it is not."""
        doomed = [DOOMED, dataclasses.replace(DOOMED, scheme="baseline-dp")]
        tracer = Tracer()
        pr = ParallelRunner(Runner(), jobs=2, tracer=tracer)
        with injected(FaultPlan(kill_on_dispatch=0)):
            report = pr.run_suite(doomed)
        requeued = Counter(
            event.args["scheme"]
            for event in tracer.events()
            if event.kind == HARNESS_REQUEUE
        )
        assert report.worker_crashes >= 1
        assert report.quarantined == 2
        assert [o.status for o in report.outcomes] == [FAILED, FAILED]
        # Each run had one attempt per crash it was lost to, plus the one
        # that raised WorkloadError; the kill hit one of them.
        assert [o.attempts for o in report.outcomes] == [
            1 + requeued[config.scheme] for config in doomed
        ]
        assert max(o.attempts for o in report.outcomes) == 2
        assert all(
            isinstance(o.failure.__cause__, WorkloadError) for o in report.outcomes
        )

    def test_fail_fast_skips_the_rest(self):
        pr = ParallelRunner(
            Runner(), jobs=1, policy=ExecutionPolicy(fail_fast=True)
        )
        # Doomed config first, so everything behind it is skipped.
        report = pr.run_suite([DOOMED, CONFIGS[0], CONFIGS[2]])
        statuses = [o.status for o in report.outcomes]
        assert statuses == [FAILED, SKIPPED, SKIPPED]
        assert report.results == [None, None, None]
        with pytest.raises(RunFailure):
            report.raise_if_failed()


class TestResume:
    def test_resume_dispatches_only_missing_configs(self, tmp_path):
        # First (partial) pass: two of the four runs reach the store.
        first = Runner(store=open_store(tmp_path / "results.db"))
        for config in CONFIGS[:2]:
            first.run(config)
        # Fresh process-equivalent: cold memory cache, same store.
        pr = ParallelRunner(Runner(store=open_store(tmp_path / "results.db")), jobs=2)
        report = pr.run_suite(CONFIGS)
        assert report.resumed == 2
        # Only the two missing configs became work items.
        assert [o.config.key() for o in report.outcomes] == [
            c.key() for c in CONFIGS[2:]
        ]
        assert all(o.status == OK for o in report.outcomes)
        assert report.ok and all(r is not None for r in report.results)
        assert open_store(tmp_path / "results.db").stats().entries == 4

    def test_fully_cached_suite_dispatches_nothing(self, tmp_path):
        warm = Runner(store=open_store(tmp_path / "results.db"))
        ParallelRunner(warm, jobs=1).run_suite(CONFIGS).raise_if_failed()
        pr = ParallelRunner(Runner(store=open_store(tmp_path / "results.db")), jobs=2)
        report = pr.run_suite(CONFIGS)
        assert report.resumed == len(CONFIGS)
        assert report.outcomes == []
        assert report.dispatched == 0
        assert report.ok


def serve_chaos(configs, *, faults, runner=None, jobs=2):
    """Burst ``configs`` through one service under ``faults``; (stats, results)."""

    async def _drive():
        service = SimulationService(
            runner if runner is not None else Runner(),
            config=ServiceConfig(jobs=jobs),
        )
        async with service:
            handles = [await service.submit(config) for config in configs]
            results = await service.gather(handles, return_exceptions=True)
        return service.stats(), results

    with injected(faults):
        return asyncio.run(_drive())


class TestServiceChaos:
    """The execution layer's chaos guarantees hold behind the service."""

    def test_worker_kill_under_live_traffic_is_retried(self, baseline):
        stats, results = serve_chaos(
            CONFIGS, faults=FaultPlan(kill_on_dispatch=0)
        )
        assert stats.worker_crashes >= 1
        assert stats.retries >= 1
        # The kill cost a retry inside the batch, never a client error.
        assert stats.failed == 0
        assert stats.completed == len(CONFIGS)
        assert stats.lost == 0
        assert [r.summary() for r in results] == baseline

    def test_permanent_failure_quarantines_only_its_own_handle(
        self, baseline
    ):
        stats, results = serve_chaos(WITH_DOOMED, faults=FaultPlan())
        # The ledger reports the quarantined job, retried never...
        assert stats.quarantined == 1
        assert stats.retries == 0
        assert stats.failed == 1
        assert stats.completed == len(CONFIGS) - 1
        assert stats.lost == 0
        # ...and only the doomed handle failed, with the typed error.
        assert [isinstance(r, RunFailure) for r in results] == [
            c is DOOMED for c in WITH_DOOMED
        ]
        [failure] = [r for r in results if isinstance(r, RunFailure)]
        assert failure.config == DOOMED
        assert failure.attempts == 1
        survivors, expected = survivors_of_doomed(results, baseline)
        assert survivors == expected

    def test_flaky_store_under_live_traffic(self, baseline, tmp_path):
        plan = FaultPlan(store_save_errors=10, store_load_errors=10)
        runner = Runner(store=open_store(tmp_path / "results.db"))
        stats, results = serve_chaos(CONFIGS, faults=plan, runner=runner)
        assert stats.failed == 0
        assert stats.lost == 0
        assert [r.summary() for r in results] == baseline
        # Every disk write failed; the service never noticed.
        assert open_store(tmp_path / "results.db").stats().entries == 0

    def test_combined_kill_and_flaky_store_completes_the_rest(
        self, baseline, tmp_path
    ):
        """Worker kill + torn store IO + a deterministically failing
        run, all under one live service."""
        plan = FaultPlan(
            kill_on_dispatch=0, store_save_errors=10, store_load_errors=10
        )
        runner = Runner(store=open_store(tmp_path / "results.db"))
        stats, results = serve_chaos(WITH_DOOMED, faults=plan, runner=runner)
        assert stats.worker_crashes >= 1
        assert stats.quarantined == 1
        assert stats.failed == 1
        assert stats.completed == len(CONFIGS) - 1
        assert stats.lost == 0
        survivors, expected = survivors_of_doomed(results, baseline)
        assert survivors == expected

    def test_repro_serve_honours_env_fault_plan(self, tmp_path):
        """``python -m tests.fault_injection serve`` installs
        ``$REPRO_FAULTS`` before the CLI runs, and a faulted serve still
        drains clean (exit 0, nothing lost)."""
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
        )
        env[ENV_FAULTS] = json.dumps(
            {"kill_on_dispatch": 0, "store_save_errors": 5, "store_load_errors": 5}
        )
        stats_path = tmp_path / "stats.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "tests.fault_injection",
                "serve", "--synthetic", "6", "--jobs", "2",
                "--store", str(tmp_path / "results.db"),
                "--stats-json", str(stats_path),
            ],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "chaos: injecting faults" in proc.stderr
        stats = json.loads(stats_path.read_text())
        assert stats["submitted"] == 6
        assert stats["failed"] == 0
        assert stats["lost"] == 0
        assert stats["worker_crashes"] >= 1
