"""Unit tests for SPAWN's decision rule (Algorithm 1) in ``SpawnPolicy``."""

from repro.core.policies import DecisionKind
from tests.conftest import bind_spawn, feed_history, free_launch, launch_request


class TestBootstrap:
    def test_launches_unconditionally_before_first_completion(self):
        policy, _, _ = bind_spawn()
        policy.set_audit(True)
        for _ in range(5):
            verdict = policy.decide(launch_request(items=1, num_ctas=100))
            assert verdict is DecisionKind.LAUNCH
        audit = policy.decision_audit()
        assert audit["bootstrap"] is True
        assert audit["t_cta"] == audit["t_child"] == audit["t_parent"] == 0.0


class TestDecisionRule:
    def test_large_workload_launches(self):
        policy, monitor, _ = bind_spawn()
        feed_history(monitor, tcta=100.0, ncon=4)
        # t_parent = 10000 * 100 = 1e6 >> t_child = 21931 + small queue.
        verdict = policy.decide(launch_request(items=10000, num_ctas=2, time=300.0))
        assert verdict is DecisionKind.LAUNCH

    def test_small_workload_declines(self):
        policy, monitor, _ = bind_spawn()
        feed_history(monitor, tcta=100.0, ncon=4)
        # t_parent = 10 * 100 = 1000 << t_child >= 21931.
        verdict = policy.decide(launch_request(items=10, num_ctas=1, time=300.0))
        assert verdict is DecisionKind.SERIAL

    def test_queue_backlog_tips_the_balance(self):
        policy, monitor, _ = bind_spawn(**free_launch())
        feed_history(monitor, tcta=100.0, ncon=1)
        # Borderline workload: t_parent = 50*100 = 5000.
        # Empty queue: t_child = (0+1)*100 = 100 -> launch.
        verdict = policy.decide(launch_request(items=50, num_ctas=1, time=300.0))
        assert verdict is DecisionKind.LAUNCH
        # Pile up backlog: n large makes t_child exceed t_parent.
        monitor.on_ctas_admitted(200)
        verdict = policy.decide(launch_request(items=50, num_ctas=1, time=301.0))
        assert verdict is DecisionKind.SERIAL

    def test_queue_capacity_blocks_launch(self):
        policy, monitor, _ = bind_spawn(max_pending_child_ctas=10)
        feed_history(monitor, tcta=100.0, ncon=4)
        monitor.on_ctas_admitted(8)
        # Even a hugely profitable launch is blocked by the CCQS bound...
        verdict = policy.decide(launch_request(items=10**6, num_ctas=5, time=300.0))
        assert verdict is DecisionKind.SERIAL
        # ...which is inclusive: n + x == bound still launches.
        verdict = policy.decide(launch_request(items=10**6, num_ctas=2, time=300.0))
        assert verdict is DecisionKind.LAUNCH

    def test_equal_estimates_launch(self):
        """Algorithm 1 launches on t_child <= t_parent (inclusive)."""
        policy, monitor, _ = bind_spawn(**free_launch())
        feed_history(monitor, tcta=100.0, ncon=1)
        # After history: n == 0. t_child = (0+1)*100 = 100; t_parent = 1*100.
        verdict = policy.decide(launch_request(items=1, num_ctas=1, time=300.0))
        assert verdict is DecisionKind.LAUNCH


class TestBookkeeping:
    def test_trace_records_estimates(self):
        """The audited payload carries both estimates of the last decision."""
        policy, monitor, _ = bind_spawn()
        feed_history(monitor, tcta=100.0, ncon=4)
        policy.set_audit(True)
        verdict = policy.decide(launch_request(items=10, num_ctas=2, time=300.0))
        assert verdict is DecisionKind.SERIAL
        audit = policy.decision_audit()
        assert audit["bootstrap"] is False
        assert audit["t_parent"] == 10 * monitor.twarp
        assert audit["t_child"] > audit["t_parent"]

    def test_auto_admit_disabled(self):
        """SPAWN never admits: the engine is responsible for admission."""
        policy, monitor, _ = bind_spawn(**free_launch())
        verdict = policy.decide(launch_request(items=1, num_ctas=5))
        assert verdict is DecisionKind.LAUNCH
        assert monitor.n == 0
        feed_history(monitor)
        monitor.on_ctas_admitted(3)
        for items in (1, 10**6):
            policy.decide(launch_request(items=items, num_ctas=2, time=300.0))
            assert monitor.n == 3
