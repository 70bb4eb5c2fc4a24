"""Experiment harness: runners, schemes, sweeps, and report formatting."""

from repro.harness.runner import RunConfig, Runner, geometric_mean
from repro.harness.schemes import (
    BASELINE_DP,
    DP_SCHEMES,
    DTBL,
    FLAT,
    OFFLINE,
    SPAWN,
    SchemeSpec,
    make_policy,
)
from repro.harness.faults import FaultPlan, FlakyStore
from repro.harness.parallel import (
    ExecutionPolicy,
    ParallelRunner,
    SuiteReport,
    TaskOutcome,
    default_jobs,
)
from repro.harness.plotting import bar_chart, timeline
from repro.harness.replication import (
    ReplicationResult,
    SchemeStats,
    replicate,
    replication_plan,
)
from repro.harness.store import (
    ResultStore,
    StoreStats,
    default_cache_dir,
    open_store,
)
from repro.harness.sweep import (
    SweepPoint,
    SweepResult,
    offline_search,
    sweep_plan,
    threshold_sweep,
)

__all__ = [
    "BASELINE_DP",
    "DP_SCHEMES",
    "DTBL",
    "ExecutionPolicy",
    "FLAT",
    "FaultPlan",
    "FlakyStore",
    "OFFLINE",
    "SPAWN",
    "ParallelRunner",
    "ResultStore",
    "SuiteReport",
    "TaskOutcome",
    "RunConfig",
    "Runner",
    "SchemeSpec",
    "StoreStats",
    "SweepPoint",
    "SweepResult",
    "ReplicationResult",
    "SchemeStats",
    "bar_chart",
    "default_cache_dir",
    "default_jobs",
    "geometric_mean",
    "make_policy",
    "offline_search",
    "open_store",
    "replicate",
    "replication_plan",
    "sweep_plan",
    "threshold_sweep",
    "timeline",
]
