"""Tables I and II of the paper: benchmark inventory and GPU configuration."""

from __future__ import annotations

from repro.experiments.common import Experiment, ExperimentResult, PlannedRuns, no_runs
from repro.sim.config import GPUConfig
from repro.workloads import TABLE1_NAMES, get_benchmark


def render_table1(runs: PlannedRuns, seed: int = 1) -> ExperimentResult:
    """Table I: the 13 <application, input> benchmarks."""
    rows = []
    for name in TABLE1_NAMES:
        bench = get_benchmark(name)
        app = bench.dp(seed)
        rows.append(
            (
                bench.application,
                bench.input_name,
                name,
                len(app.kernels),
                sum(spec.num_child_requests() for spec in app.kernels),
                app.flat_items,
            )
        )
    return ExperimentResult(
        experiment="table1",
        title="List of benchmarks",
        headers=[
            "Application",
            "Input Set",
            "Benchmark",
            "host kernels",
            "launch sites",
            "work items",
        ],
        rows=rows,
    )


def render_table2(runs: PlannedRuns, seed: int = 1) -> ExperimentResult:
    """Table II: GPU configuration parameters of the simulated system."""
    rows = _config_rows(runs.config)
    return ExperimentResult(
        experiment="table2",
        title="GPU configuration parameters",
        headers=["Parameter", "Value"],
        rows=rows,
    )


def _config_rows(config: GPUConfig):
    mem = config.memory
    launch = config.launch
    return [
        ("SMX", f"{config.num_smx} SMXs, {config.clock_mhz}MHz"),
        (
            "Resources per SMX",
            f"{config.shared_mem_per_smx // 1024}KB shared memory, "
            f"{config.registers_per_smx * 4 // 1024}KB register file, "
            f"max {config.max_threads_per_smx} threads "
            f"({config.max_warps_per_smx} warps)",
        ),
        (
            "L2 cache",
            f"{mem.l2.size_bytes // 1024}KB total, {mem.l2.line_bytes}B line, "
            f"{mem.l2.associativity}-way",
        ),
        (
            "Concurrency",
            f"{config.max_ctas_per_smx} CTAs/SMX "
            f"({config.max_concurrent_ctas} GPU-wide), "
            f"{config.num_hwq} HWQs",
        ),
        (
            "Child kernel launch overhead",
            f"latency = {launch.slope_cycles}*x + {launch.base_cycles} cycles "
            f"(x = launches per warp), {launch.service_slots} service slots",
        ),
        (
            "Memory latency",
            f"L2 hit {mem.l2_hit_cycles} cyc, DRAM {mem.dram_cycles} cyc, "
            f"MLP {mem.mlp}",
        ),
        ("CCQS bound", f"{config.max_pending_child_ctas} pending child CTAs"),
        ("SPAWN metric window", f"{config.metric_window_cycles} cycles"),
    ]


run_table1 = Experiment(no_runs, render_table1)
run_table2 = Experiment(no_runs, render_table2)
