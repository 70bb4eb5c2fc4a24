"""The paper's contribution: monitored CCQS metrics, SPAWN, policies."""

from repro.core.metrics import MetricsMonitor, RunningMean, WindowedConcurrencyAverage
from repro.core.policies import (
    AlwaysLaunchPolicy,
    DecisionKind,
    DTBLPolicy,
    FreeLaunchPolicy,
    LaunchPolicy,
    LaunchRequest,
    NeverLaunchPolicy,
    SpawnPolicy,
    StaticThresholdPolicy,
)

__all__ = [
    "AlwaysLaunchPolicy",
    "DecisionKind",
    "DTBLPolicy",
    "FreeLaunchPolicy",
    "LaunchPolicy",
    "LaunchRequest",
    "MetricsMonitor",
    "NeverLaunchPolicy",
    "RunningMean",
    "SpawnPolicy",
    "StaticThresholdPolicy",
    "WindowedConcurrencyAverage",
]
