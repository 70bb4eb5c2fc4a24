"""Shared fixtures: small configurations and tiny synthetic applications.

Unit and integration tests run against :func:`repro.sim.config.small_debug_gpu`
(2 SMXs, 4 CTAs each) and hand-built micro-applications, so the suite stays
fast; the full Table I benchmarks are exercised by a handful of dedicated
workload/experiment tests and by the benchmark harness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import MetricsMonitor
from repro.core.policies import LaunchRequest, SpawnPolicy
from repro.harness.store import ResultStore
from repro.sim.config import GPUConfig, LaunchOverheadConfig, small_debug_gpu
from repro.sim.engine import GPUSimulator
from repro.sim.kernel import Application, ChildRequest, KernelSpec


@pytest.fixture
def store_loads(monkeypatch) -> list:
    """The key of every ``ResultStore.load`` call during the test."""
    loads = []
    load = ResultStore.load

    def counted(self, key):
        loads.append(key)
        return load(self, key)

    monkeypatch.setattr(ResultStore, "load", counted)
    return loads


@pytest.fixture
def debug_config() -> GPUConfig:
    return small_debug_gpu()


@pytest.fixture
def k20_config() -> GPUConfig:
    return GPUConfig()


def make_flat_app(
    *,
    threads: int = 64,
    items: int = 4,
    threads_per_cta: int = 32,
    name: str = "flat-app",
    heavy_thread: int | None = None,
    heavy_items: int = 0,
) -> Application:
    """A single flat kernel with uniform work (optionally one heavy thread)."""
    work = np.full(threads, items, dtype=np.int64)
    if heavy_thread is not None:
        work[heavy_thread] = heavy_items
    bases = np.arange(threads, dtype=np.int64) * 256
    spec = KernelSpec(
        name=name,
        threads_per_cta=threads_per_cta,
        thread_items=work,
        mem_bases=bases,
        mem_stride=4,
    )
    return Application(name=name, kernels=[spec], flat_items=int(work.sum()))


def make_dp_app(
    *,
    threads: int = 64,
    base_items: int = 2,
    threads_per_cta: int = 32,
    child_every: int = 2,
    child_items: int = 32,
    child_cta: int = 32,
    at_fraction: float = 0.0,
    nested: bool = False,
    name: str = "dp-app",
) -> Application:
    """A parent kernel where every ``child_every``-th thread can launch."""
    work = np.full(threads, base_items, dtype=np.int64)
    bases = np.arange(threads, dtype=np.int64) * 256
    requests = {}
    for tid in range(0, threads, child_every):
        sub = {}
        if nested:
            sub[0] = ChildRequest(
                name=f"{name}-grandchild-{tid}",
                items=child_items,
                cta_threads=child_cta,
                mem_base=10_000_000 + tid * 65536,
                mem_stride=4,
            )
        requests[tid] = ChildRequest(
            name=f"{name}-child-{tid}",
            items=child_items,
            cta_threads=child_cta,
            mem_base=1_000_000 + tid * 65536,
            mem_stride=4,
            at_fraction=at_fraction,
            nested=sub,
        )
    spec = KernelSpec(
        name=name,
        threads_per_cta=threads_per_cta,
        thread_items=work,
        mem_bases=bases,
        mem_stride=4,
        child_requests=requests,
    )
    total = int(work.sum()) + sum(
        r.items for reqs in spec.child_requests.values() for r in reqs
    )
    return Application(name=name, kernels=[spec], flat_items=total)


@pytest.fixture
def flat_app() -> Application:
    return make_flat_app()


@pytest.fixture
def dp_app() -> Application:
    return make_dp_app()


@pytest.fixture
def debug_sim(debug_config) -> GPUSimulator:
    return GPUSimulator(config=debug_config)


def launch_request(items=100, num_ctas=2, time=0.0) -> LaunchRequest:
    """One depth-1 launch call of ``num_ctas`` CTAs over ``items`` items."""
    return LaunchRequest(
        time=time, items=items, num_ctas=num_ctas, items_per_thread=1, depth=1
    )


def bind_spawn(**config_kwargs):
    """A bound SpawnPolicy over a fresh 128-cycle-window monitor."""
    monitor = MetricsMonitor(window_cycles=128)
    config = GPUConfig(**config_kwargs)
    policy = SpawnPolicy()
    policy.bind(monitor, config)
    return policy, monitor, config


def free_launch() -> dict:
    """Config kwargs that price a launch at zero cycles (overhead 0)."""
    return {"launch": LaunchOverheadConfig(slope_cycles=0, base_cycles=0)}


def feed_history(monitor: MetricsMonitor, *, tcta=100.0, ncon=4) -> None:
    """Install a throughput history: ncon concurrent CTAs, tcta each.

    Leaves the monitor with n == 0, tcta/twarp == tcta, and a completed
    concurrency window averaging ``ncon``.
    """
    monitor.on_ctas_admitted(ncon)
    for _ in range(ncon):
        monitor.on_cta_started(0.0)
    window = float(monitor._ncon.window)
    monitor.advance(window)
    for i in range(ncon):
        monitor.on_cta_finished(window + i, exec_time=tcta, items_per_thread=1)
