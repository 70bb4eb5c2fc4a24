"""Unit tests for the Child CTA Queuing System term of Algorithm 1.

The CCQS (Section IV-A) is no class of its own: ``SpawnPolicy`` reads its
``n``, ``n_con`` and ``t_cta`` from the engine's ``MetricsMonitor`` and its
bound from ``GPUConfig.max_pending_child_ctas``.  These tests check the
queue-plus-server estimate through the audited decision payload.
"""

from repro.core.policies import DecisionKind
from tests.conftest import bind_spawn, feed_history, free_launch, launch_request


class TestCapacity:
    def test_has_capacity_respects_bound(self):
        # A free launch and a huge workload: only the bound can say no.
        policy, monitor, _ = bind_spawn(max_pending_child_ctas=4, **free_launch())
        feed_history(monitor, tcta=100.0, ncon=4)
        big = 10**6
        verdict = policy.decide(launch_request(items=big, num_ctas=4, time=300.0))
        assert verdict is DecisionKind.LAUNCH
        monitor.on_ctas_admitted(3)
        verdict = policy.decide(launch_request(items=big, num_ctas=1, time=300.0))
        assert verdict is DecisionKind.LAUNCH
        verdict = policy.decide(launch_request(items=big, num_ctas=2, time=300.0))
        assert verdict is DecisionKind.SERIAL

    def test_admit_tracks_n(self):
        """The CCQS's n is the monitor's n, which the engine's admissions drive."""
        policy, monitor, _ = bind_spawn()
        monitor.on_ctas_admitted(5)
        policy.set_audit(True)
        policy.decide(launch_request())
        assert policy.decision_audit()["n"] == 5
        assert monitor.n == 5


class TestThroughput:
    def test_zero_before_any_completion(self):
        """Without a finished CTA there is no throughput and no estimate."""
        policy, _, _ = bind_spawn()
        policy.set_audit(True)
        assert policy.decide(launch_request(num_ctas=3)) is DecisionKind.LAUNCH
        audit = policy.decision_audit()
        assert audit["bootstrap"] is True
        assert audit["t_cta"] == audit["t_child"] == 0.0

    def test_throughput_is_ncon_over_tcta(self):
        policy, monitor, _ = bind_spawn(**free_launch())
        monitor.on_ctas_admitted(4)
        for _ in range(4):
            monitor.on_cta_started(0.0)
        monitor.advance(128.0)  # ncon window closes at 4
        monitor.on_cta_finished(200.0, exec_time=200.0, items_per_thread=1)
        policy.set_audit(True)
        # n = 3 now; with no overhead t_child is (n + x) / (ncon / tcta).
        policy.decide(launch_request(items=10, num_ctas=1, time=200.0))
        audit = policy.decision_audit()
        assert (audit["n"], audit["n_con"], audit["t_cta"]) == (3, 4, 200.0)
        assert audit["t_child"] == (3 + 1) / (4 / 200.0)

    def test_drain_time_is_equation_one(self):
        policy, monitor, config = bind_spawn()
        monitor.on_ctas_admitted(10)
        for _ in range(2):
            monitor.on_cta_started(0.0)
        monitor.advance(128.0)
        monitor.on_cta_finished(200.0, exec_time=100.0, items_per_thread=1)
        policy.set_audit(True)
        # n = 9 now; t_child = overhead + (9 + x) / (ncon / tcta).
        policy.decide(launch_request(items=10, num_ctas=3, time=200.0))
        audit = policy.decision_audit()
        assert audit["n"] == 9
        assert audit["t_child"] == config.launch.latency(1) + (9 + 3) / (2 / 100.0)

    def test_ncon_floor_of_one(self):
        """Before a concurrency window completes, ncon=0 clamps to 1."""
        policy, monitor, config = bind_spawn()
        monitor.on_ctas_admitted(1)
        monitor.on_cta_started(0.0)
        monitor.on_cta_finished(50.0, exec_time=50.0, items_per_thread=1)
        policy.set_audit(True)
        policy.decide(launch_request(items=10, num_ctas=3, time=60.0))
        audit = policy.decision_audit()
        assert audit["n_con"] == 0
        assert audit["t_child"] == config.launch.latency(1) + 3 / (1 / 50.0)
