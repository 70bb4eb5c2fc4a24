"""Ablation benches for the design choices called out in DESIGN.md.

Each ablation perturbs one component of the system and reports how the
headline behaviour moves — these are the knobs a hardware designer would
sweep before committing to SPAWN's specific constants.
"""

import pytest

from benchmarks.conftest import once
from repro.core.policies import (
    AlwaysLaunchPolicy,
    FreeLaunchPolicy,
    NeverLaunchPolicy,
    SpawnPolicy,
    StaticThresholdPolicy,
)
from repro.harness.report import format_table
from repro.sim.config import GPUConfig, LaunchOverheadConfig
from repro.sim.engine import GPUSimulator
from repro.workloads import get_benchmark

BENCH = "BFS-graph500"


def simulate(policy, config=None, **kwargs):
    app = get_benchmark(BENCH).dp(1)
    sim = GPUSimulator(config=config or GPUConfig(), policy=policy, **kwargs)
    return sim.run(app)


def test_ablation_policy_spectrum(benchmark):
    """SPAWN vs the trivial policies it subsumes (always/never/static)."""

    def run():
        rows = []
        for policy in (
            AlwaysLaunchPolicy(),
            NeverLaunchPolicy(),
            StaticThresholdPolicy(256),
            SpawnPolicy(),
            FreeLaunchPolicy(16),
        ):
            result = simulate(policy)
            rows.append(
                (
                    policy.name,
                    int(result.makespan),
                    result.stats.child_kernels_launched,
                )
            )
        return rows

    rows = once(benchmark, run)
    print()
    print(format_table(["policy", "makespan", "kernels"], rows,
                       title=f"ablation: launch policy spectrum ({BENCH})"))
    makespans = {name: m for name, m, _ in rows}
    # SPAWN must beat both trivial extremes on this benchmark.
    assert makespans["spawn"] < makespans["always-launch"]
    assert makespans["spawn"] < makespans["never-launch"]


def test_ablation_metric_window(benchmark):
    """Sensitivity to the n_con averaging window (paper: 1024 cycles)."""

    def run():
        rows = []
        for window in (256, 1024, 4096):
            config = GPUConfig(metric_window_cycles=window)
            result = simulate(SpawnPolicy(), config=config)
            rows.append((window, int(result.makespan),
                         result.stats.child_kernels_launched))
        return rows

    rows = once(benchmark, run)
    print()
    print(format_table(["window", "makespan", "kernels"], rows,
                       title=f"ablation: metric window ({BENCH})"))
    makespans = [m for _, m, _ in rows]
    # The mechanism should be robust to the window size (same order).
    assert max(makespans) < 3 * min(makespans)


def test_ablation_launch_overhead_constants(benchmark):
    """Scaling the measured A/b constants moves Baseline-DP as expected."""

    def run():
        rows = []
        for scale in (0.5, 1.0, 2.0):
            config = GPUConfig(
                launch=LaunchOverheadConfig(
                    slope_cycles=int(1721 * scale),
                    base_cycles=int(20210 * scale),
                )
            )
            result = simulate(AlwaysLaunchPolicy(), config=config)
            rows.append((scale, int(result.makespan)))
        return rows

    rows = once(benchmark, run)
    print()
    print(format_table(["overhead scale", "makespan"], rows,
                       title=f"ablation: launch overhead constants ({BENCH})"))
    makespans = [m for _, m in rows]
    # Baseline-DP is launch-overhead sensitive: monotone in the constants.
    assert makespans[0] <= makespans[1] <= makespans[2]


def test_ablation_ccqs_queue_cap(benchmark):
    """The CCQS bound (paper: 65,536) only binds when tiny."""

    def run():
        rows = []
        for cap in (64, 4096, 65536):
            config = GPUConfig(max_pending_child_ctas=cap)
            result = simulate(SpawnPolicy(), config=config)
            rows.append((cap, int(result.makespan),
                         result.stats.child_kernels_launched))
        return rows

    rows = once(benchmark, run)
    print()
    print(format_table(["queue cap", "makespan", "kernels"], rows,
                       title=f"ablation: CCQS queue cap ({BENCH})"))
    kernels = {cap: k for cap, _, k in rows}
    assert kernels[64] <= kernels[65536]


def test_ablation_latency_hiding(benchmark):
    """The inter-warp latency-hiding factor shifts absolute time, not order."""

    def run():
        rows = []
        for hiding in (0.2, 0.35, 0.7):
            always = simulate(AlwaysLaunchPolicy(), latency_hiding=hiding)
            spawn = simulate(SpawnPolicy(), latency_hiding=hiding)
            rows.append(
                (hiding, int(always.makespan), int(spawn.makespan))
            )
        return rows

    rows = once(benchmark, run)
    print()
    print(format_table(["latency hiding", "always-launch", "spawn"], rows,
                       title=f"ablation: latency hiding factor ({BENCH})"))
    # SPAWN's win over always-launch is robust across the factor.
    for _, always, spawn in rows:
        assert spawn < always * 1.1
