#!/usr/bin/env python
"""Inspect SPAWN's Algorithm 1 decisions, estimate by estimate.

Runs AMR under SPAWN with a tracer attached and prints a sample of the
t_child / t_parent estimates that the ``launch.decision`` events carry:
the bootstrap launches, the declines of lightweight refinements, and the
launches of heavyweight ones.  Also drives ``SpawnPolicy`` by hand,
outside the simulator, as a library component.

Run:  python examples/controller_inspection.py
"""

from repro import (
    GPUConfig,
    GPUSimulator,
    LaunchRequest,
    MetricsMonitor,
    SpawnPolicy,
)
from repro.harness.report import format_table
from repro.obs import Tracer, filter_events
from repro.obs.tracer import LAUNCH_DECISION
from repro.workloads import get_benchmark


def traced_run() -> None:
    tracer = Tracer()
    sim = GPUSimulator(policy=SpawnPolicy(), tracer=tracer)
    result = sim.run(get_benchmark("AMR").dp(seed=1))

    decisions = filter_events(tracer.events(), LAUNCH_DECISION)
    bootstrap = [e for e in decisions if e.args["bootstrap"]]
    declines = [e for e in decisions if e.args["verdict"] != "launch"]
    launches = [
        e for e in decisions
        if e.args["verdict"] == "launch" and not e.args["bootstrap"]
    ]

    print(f"AMR under SPAWN: makespan={result.makespan:.0f} cycles")
    print(
        f"decisions={len(decisions)}  bootstrap={len(bootstrap)}  "
        f"launched={len(launches)}  declined={len(declines)}"
    )

    def sample(events, label, k=5):
        rows = [
            (
                f"{e.ts:.0f}",
                e.args["num_ctas"],
                e.args["n"],
                f"{e.args['t_child']:.0f}",
                f"{e.args['t_parent']:.0f}",
            )
            for e in events[:k]
        ]
        print()
        print(
            format_table(
                ["cycle", "x (CTAs)", "n (CCQS)", "t_child est", "t_parent est"],
                rows,
                title=label,
            )
        )

    sample(declines, "sample declined launches (t_child > t_parent)")
    sample(launches, "sample approved launches (t_child <= t_parent)")


def standalone_policy() -> None:
    """Drive Algorithm 1 by hand, no simulator involved."""
    monitor = MetricsMonitor(window_cycles=1024)
    policy = SpawnPolicy()
    # The paper's K20m: every launch is priced at A*1 + b = 1721 + 20210.
    policy.bind(monitor, GPUConfig())

    def decide(time, num_ctas, items):
        return policy.decide(
            LaunchRequest(time, items, num_ctas, items_per_thread=1, depth=1)
        ).value

    # Bootstrap: with no completed child CTA, everything launches.
    assert decide(0.0, num_ctas=4, items=10) == "launch"

    # Teach the policy a throughput history: 8 concurrent CTAs of 500
    # cycles each, then watch it discriminate by workload.  The engine
    # admits CTAs to the monitor; by hand, we do it ourselves.
    monitor.on_ctas_admitted(8)
    for _ in range(8):
        monitor.on_cta_started(0.0)
    monitor.advance(1024.0)
    for i in range(4):
        monitor.on_cta_finished(1024.0 + i, exec_time=500.0, items_per_thread=1)

    small = decide(2000.0, num_ctas=1, items=8)
    large = decide(2000.0, num_ctas=4, items=5000)
    print()
    print(f"standalone SpawnPolicy: 8-item workload -> {small}")
    print(f"standalone SpawnPolicy: 5000-item workload -> {large}")


if __name__ == "__main__":
    traced_run()
    standalone_policy()
