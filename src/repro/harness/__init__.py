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
from repro.harness.export import (
    experiment_to_csv,
    experiment_to_json,
    result_to_dict,
    result_to_json,
)
from repro.harness.bench import BENCH_PAIRS, run_bench, write_report
from repro.harness.faults import FaultPlan, FlakyStore
from repro.harness.parallel import (
    ExecutionPolicy,
    ParallelRunner,
    SuiteReport,
    TaskOutcome,
    default_jobs,
)
from repro.harness.plotting import bar_chart, sparkline, timeline
from repro.harness.replication import (
    ReplicationResult,
    SchemeStats,
    replicate,
    replication_plan,
)
from repro.harness.store import (
    ResultStore,
    StoreBackend,
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
    "BENCH_PAIRS",
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
    "StoreBackend",
    "StoreStats",
    "SweepPoint",
    "SweepResult",
    "ReplicationResult",
    "SchemeStats",
    "bar_chart",
    "default_cache_dir",
    "default_jobs",
    "experiment_to_csv",
    "experiment_to_json",
    "geometric_mean",
    "make_policy",
    "offline_search",
    "open_store",
    "replicate",
    "replication_plan",
    "result_to_dict",
    "result_to_json",
    "run_bench",
    "sparkline",
    "sweep_plan",
    "threshold_sweep",
    "timeline",
    "write_report",
]
