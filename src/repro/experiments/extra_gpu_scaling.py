"""Extension experiment: does SPAWN's benefit survive a bigger GPU?

The paper evaluates one Kepler configuration (Table II).  A natural
question for the mechanism is how its benefit moves as the hardware limits
relax: more SMXs (more CTA slots) and more HWQs (more concurrent kernels)
both reduce the queuing latency SPAWN exists to avoid, while the per-launch
overhead A*x + b stays fixed.  This study re-runs Baseline-DP and SPAWN on
scaled GPU configurations and reports SPAWN's advantage per scale.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import ExperimentResult, ensure_runner
from repro.harness.runner import RunConfig, Runner
from repro.sim.config import GPUConfig

DEFAULT_BENCHMARKS = ("BFS-graph500", "GC-graph500", "SSSP-citation")

#: (label, SMX multiplier, HWQ multiplier) relative to Table II.
SCALES = (("half", 0.5, 0.5), ("table2", 1.0, 1.0), ("double", 2.0, 2.0))


def scaled_config(smx_factor: float, hwq_factor: float) -> GPUConfig:
    base = GPUConfig()
    return GPUConfig(
        num_smx=max(1, int(base.num_smx * smx_factor)),
        num_hwq=max(1, int(base.num_hwq * hwq_factor)),
    )


def run(
    runner: Optional[Runner] = None,
    seed: int = 1,
    benchmarks: Optional[Sequence[str]] = None,
    scales: Sequence = SCALES,
) -> ExperimentResult:
    runner = ensure_runner(runner)
    rows = []
    for name in benchmarks or DEFAULT_BENCHMARKS:
        for label, smx_factor, hwq_factor in scales:
            config = scaled_config(smx_factor, hwq_factor)
            scaled = Runner(config, max_events=runner.max_events)
            flat, base, spawn = (
                scaled.run(RunConfig(benchmark=name, scheme=scheme, seed=seed))
                for scheme in ("flat", "baseline-dp", "spawn")
            )
            rows.append(
                (
                    name,
                    f"{label} ({config.num_smx} SMX / {config.num_hwq} HWQ)",
                    round(flat.makespan / base.makespan, 3),
                    round(flat.makespan / spawn.makespan, 3),
                    round(base.makespan / spawn.makespan, 3),
                )
            )
    return ExperimentResult(
        experiment="extra-gpu-scaling",
        title="Baseline-DP and SPAWN vs flat across GPU sizes",
        headers=[
            "benchmark",
            "GPU scale",
            "Baseline-DP",
            "SPAWN",
            "SPAWN / Baseline",
        ],
        notes=(
            "the per-launch overhead is GPU-size-independent, so SPAWN's "
            "advantage over Baseline-DP persists across scales; benchmarks "
            "that are launch-latency-bound (not resource-bound) are nearly "
            "size-insensitive"
        ),
        rows=rows,
    )
