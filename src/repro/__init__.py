"""SPAWN reproduction: controlled kernel launch for GPU dynamic parallelism.

A from-scratch Python reproduction of Tang et al., *Controlled Kernel Launch
for Dynamic Parallelism in GPUs* (HPCA 2017).  The package contains:

* ``repro.sim`` — an approximate cycle-level, event-driven GPU simulator with
  dynamic-parallelism support (GMU, HWQs, launch overhead, SMX occupancy);
* ``repro.core`` — the paper's contribution: the monitored CCQS metrics and
  SPAWN's Algorithm 1 (``SpawnPolicy``), plus the alternative launch
  policies;
* ``repro.runtime`` — stream (SWQ) assignment policies;
* ``repro.workloads`` — the 13 benchmarks of Table I with synthetic inputs;
* ``repro.harness`` — runners, threshold sweeps, and report formatting;
* ``repro.experiments`` — one module per paper table/figure.

Quickstart::

    from repro import GPUSimulator, SpawnPolicy
    from repro.workloads import get_benchmark

    app = get_benchmark("BFS-graph500").dp(seed=1)
    result = GPUSimulator(policy=SpawnPolicy()).run(app)
    print(result.makespan, result.summary())
"""

from repro.core.metrics import MetricsMonitor
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
from repro.errors import (
    ConfigError,
    HarnessError,
    LaunchError,
    ReproError,
    ResourceError,
    SimulationError,
    WorkloadError,
)
from repro.runtime.streams import PerChildStream, PerParentCTAStream, StreamPolicy
from repro.sim.config import GPUConfig, kepler_k20m, small_debug_gpu
from repro.sim.engine import GPUSimulator, SimResult
from repro.sim.kernel import Application, ChildRequest, KernelSpec

__version__ = "1.0.0"

__all__ = [
    "Application",
    "AlwaysLaunchPolicy",
    "ChildRequest",
    "ConfigError",
    "DecisionKind",
    "DTBLPolicy",
    "FreeLaunchPolicy",
    "GPUConfig",
    "GPUSimulator",
    "HarnessError",
    "KernelSpec",
    "LaunchError",
    "LaunchPolicy",
    "LaunchRequest",
    "MetricsMonitor",
    "NeverLaunchPolicy",
    "PerChildStream",
    "PerParentCTAStream",
    "ReproError",
    "ResourceError",
    "SimResult",
    "SimulationError",
    "SpawnPolicy",
    "StaticThresholdPolicy",
    "StreamPolicy",
    "WorkloadError",
    "kepler_k20m",
    "small_debug_gpu",
    "__version__",
]
