"""Unit tests for launch policies and stream policies."""

import pytest

from repro.core.metrics import MetricsMonitor
from repro.core.policies import (
    AlwaysLaunchPolicy,
    DecisionKind,
    DTBLPolicy,
    NeverLaunchPolicy,
    SpawnPolicy,
    StaticThresholdPolicy,
)
from repro.errors import ConfigError
from repro.runtime.streams import PerChildStream, PerParentCTAStream
from repro.sim.config import GPUConfig
from tests.conftest import bind_spawn, feed_history, launch_request


class TestStaticPolicies:
    def test_always_launch(self):
        assert AlwaysLaunchPolicy().decide(launch_request(1)) is DecisionKind.LAUNCH

    def test_never_launch(self):
        assert NeverLaunchPolicy().decide(launch_request(10**9)) is DecisionKind.SERIAL

    def test_threshold_boundary_is_strict(self):
        policy = StaticThresholdPolicy(100)
        assert policy.decide(launch_request(items=100)) is DecisionKind.SERIAL
        assert policy.decide(launch_request(items=101)) is DecisionKind.LAUNCH

    def test_threshold_rejects_negative(self):
        with pytest.raises(ConfigError):
            StaticThresholdPolicy(-1)

    def test_names_describe_policy(self):
        assert StaticThresholdPolicy(64).describe() == "threshold-64"
        assert AlwaysLaunchPolicy().describe() == "always-launch"


class TestSpawnPolicy:
    def test_requires_bind(self):
        with pytest.raises(ConfigError):
            SpawnPolicy().decide(launch_request())

    def test_bind_builds_controller_with_paper_overhead(self):
        policy = SpawnPolicy()
        config = GPUConfig()
        policy.bind(MetricsMonitor(), config)
        assert policy.metrics is not None
        assert policy.launch_overhead_cycles == config.launch.latency(1)

    def test_bootstrap_decision_launches(self):
        policy = SpawnPolicy()
        policy.bind(MetricsMonitor(), GPUConfig())
        assert policy.decide(launch_request()) is DecisionKind.LAUNCH

    def test_max_queue_size_forwarded(self):
        """The CCQS bound is GPUConfig.max_pending_child_ctas."""
        policy = SpawnPolicy()
        policy.bind(MetricsMonitor(), GPUConfig(max_pending_child_ctas=77))
        assert policy.ccqs_bound == 77

    def test_audit_off_keeps_nothing(self):
        policy, monitor, _ = bind_spawn()
        policy.decide(launch_request(items=10, num_ctas=1, time=0.0))
        feed_history(monitor)
        policy.decide(launch_request(items=10, num_ctas=1, time=300.0))
        assert policy.decision_audit() is None
        policy.set_audit(True)
        policy.decide(launch_request(items=10, num_ctas=1, time=300.0))
        assert policy.decision_audit() is not None
        # A new run starts with no decision to report.
        policy.bind(MetricsMonitor(), GPUConfig())
        assert policy.decision_audit() is None


class TestDTBLPolicy:
    def test_coalesces_above_threshold(self):
        policy = DTBLPolicy(50)
        assert policy.decide(launch_request(items=51)) is DecisionKind.COALESCE
        assert policy.decide(launch_request(items=50)) is DecisionKind.SERIAL

    def test_rejects_negative_threshold(self):
        with pytest.raises(ConfigError):
            DTBLPolicy(-1)


class TestStreamPolicies:
    def test_per_child_streams_are_unique(self):
        policy = PerChildStream()
        ids = {policy.stream_for(0, 0) for _ in range(100)}
        assert len(ids) == 100

    def test_per_child_reset_restarts_sequence(self):
        policy = PerChildStream()
        first = policy.stream_for(0, 0)
        policy.reset()
        assert policy.stream_for(0, 0) == first

    def test_per_parent_cta_is_stable(self):
        policy = PerParentCTAStream()
        a = policy.stream_for(3, 7)
        b = policy.stream_for(3, 7)
        assert a == b

    def test_per_parent_cta_distinguishes_ctas(self):
        policy = PerParentCTAStream()
        assert policy.stream_for(3, 7) != policy.stream_for(3, 8)
        assert policy.stream_for(3, 7) != policy.stream_for(4, 7)
