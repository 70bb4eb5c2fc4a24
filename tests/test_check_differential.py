"""Differential validation of the simulator's optimized parts (``repro.check``).

Fast layer: the naive reference components (list-based event queue,
list-ordered LRU) behave identically to their optimized counterparts on
randomized unit workloads, and fixed apps produce identical traces through
the simulator and :class:`ReferenceSimulator` (``test_sim_fast.py`` adds
more fixed apps and a tier-1 slice of the generated sweep).

Slow layer (``-m slow``): hypothesis-generated applications from the shared
``tests.strategies`` module run through ``run_differential`` — the simulator
(calendar event queue, columnar SMX with cached horizons, GMU dispatch
counter, dict LRU, per-spec and closed-form dispatch plans) must produce a
bit-identical event stream and ``SimStats`` against the pure-Python
references.
"""

import dataclasses

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.check import ReferenceEventQueue, run_differential
from repro.check.reference import ReferenceLRUCache
from repro.core.policies import AlwaysLaunchPolicy, SpawnPolicy
from repro.obs.tracer import HWQ_BIND, Tracer
from repro.sim.config import CacheConfig, GPUConfig, small_debug_gpu
from repro.sim.engine import GPUSimulator
from repro.sim.events import EventQueue
from repro.sim.kernel import Application
from repro.sim.memory import SetAssociativeCache

from tests.strategies import POLICIES, micro_apps, policies, rich_apps


# ---------------------------------------------------------------------------
# Fast unit equivalence
# ---------------------------------------------------------------------------
@st.composite
def queue_scripts(draw):
    """A schedule/cancel script: (time, cancel_earlier_index) pairs."""
    n = draw(st.integers(min_value=1, max_value=40))
    times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    cancels = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=0, max_size=n // 2, unique=True,
        )
    )
    return times, cancels


@given(script=queue_scripts())
@settings(max_examples=80, deadline=None)
def test_event_queue_matches_reference(script):
    times, cancels = script
    order = {"heap": [], "ref": []}
    queues = {"heap": EventQueue(), "ref": ReferenceEventQueue()}
    for name, queue in queues.items():
        handles = [
            queue.schedule(t, lambda n=name, i=i: order[n].append(i))
            for i, t in enumerate(times)
        ]
        for index in cancels:
            handles[index].cancel()
        queue.run()
    assert order["heap"] == order["ref"]
    assert queues["heap"].now == queues["ref"].now


@given(
    lines=st.lists(st.integers(min_value=0, max_value=300), max_size=200),
)
@settings(max_examples=80, deadline=None)
def test_lru_cache_matches_reference(lines):
    config = CacheConfig(size_bytes=4096, line_bytes=128, associativity=4)
    optimized = SetAssociativeCache(config)
    reference = ReferenceLRUCache(config)
    for line in lines:
        assert optimized.access_line(line) == reference.access_line(line)
    assert (optimized.hits, optimized.misses) == (
        reference.hits, reference.misses,
    )


def test_reference_queue_pop_and_peek():
    queue = ReferenceEventQueue()
    queue.schedule(5.0, lambda: None)
    first = queue.schedule(1.0, lambda: None)
    assert queue.peek_time() == 1.0
    assert queue.pop() is first
    assert len(queue) == 1
    assert queue.now == 1.0


def test_fixed_app_differential_is_clean():
    from repro.workloads import get_benchmark

    app = get_benchmark("MM-small").dp(1)
    mismatch = run_differential(app, policy_factory=SpawnPolicy)
    assert mismatch is None


#: The Table II GPU and the 2-SMX debug GPU, whose few CTA slots keep
#: merged and child grids queued behind each other.
GPUS = {"default": GPUConfig(), "small": small_debug_gpu()}


@pytest.mark.parametrize("gpu", list(GPUS))
@pytest.mark.parametrize(
    "policy_idx", range(6, len(POLICIES)), ids=lambda i: POLICIES[i]().name
)
def test_fixed_app_merge_policy_differential(gpu, policy_idx):
    """Consolidate/aggregate flushes are identical through the simulator
    and the naive reference on a fixed DP app."""
    from repro.workloads import get_benchmark

    app = get_benchmark("MM-small").dp(1)
    mismatch = run_differential(
        app, config=GPUS[gpu], policy_factory=POLICIES[policy_idx]
    )
    assert mismatch is None, str(mismatch)


@pytest.mark.parametrize("gpu", list(GPUS))
def test_fixed_app_acs_differential(gpu):
    """ACS binding order is identical through the simulator and the
    reference under HWQ contention (2 HWQs force the wait queue to fill)."""
    from repro.core.policies import StaticThresholdPolicy
    from repro.workloads import get_benchmark

    bench = get_benchmark("MM-small")
    mismatch = run_differential(
        bench.dp(1),
        config=dataclasses.replace(GPUS[gpu], num_hwq=2),
        policy_factory=lambda: StaticThresholdPolicy(
            bench.default_threshold
        ),
        sim_kwargs={"bind_policy": "acs"},
    )
    assert mismatch is None, str(mismatch)


def amr_slice(nested_threads: int, plain_threads: int):
    """AMR's first time step cut to its first threads whose children launch
    grandchildren, and its first threads whose children do not."""
    from repro.workloads import get_benchmark

    bench = get_benchmark("AMR")
    host = bench.dp(1).kernels[0]
    requests = host.child_requests
    nested = [t for t in sorted(requests) if any(r.nested for r in requests[t])]
    plain = [t for t in sorted(requests) if t not in set(nested)]
    tids = sorted(nested[:nested_threads] + plain[:plain_threads])
    spec = dataclasses.replace(
        host,
        name="AMR-slice",
        thread_items=host.thread_items[tids],
        mem_bases=host.mem_bases[tids],
        child_requests={index: requests[t] for index, t in enumerate(tids)},
    )
    return bench, Application(name="AMR-slice", kernels=[spec])


@pytest.mark.parametrize("gpu", list(GPUS))
def test_fixed_nested_app_acs_differential(gpu):
    """ACS on a nested app (depth 2) with 2 HWQs: the heap binds in the
    reference scan's order, which is not the FCFS order."""
    from repro.core.policies import StaticThresholdPolicy

    bench, app = amr_slice(8, 24)
    config = dataclasses.replace(GPUS[gpu], num_hwq=2)

    def policy():
        return StaticThresholdPolicy(bench.default_threshold)

    mismatch = run_differential(
        app, config=config, policy_factory=policy,
        sim_kwargs={"bind_policy": "acs"},
    )
    assert mismatch is None, str(mismatch)
    orders = {}
    for bind_policy in ("fcfs", "acs"):
        tracer = Tracer()
        result = GPUSimulator(config=config, policy=policy(), tracer=tracer,
                              bind_policy=bind_policy).run(app)
        orders[bind_policy] = [
            event.args["swq"] for event in tracer.events()
            if event.kind == HWQ_BIND
        ]
        assert max(k.depth for k in result.stats.kernels.values()) == 2
    assert orders["acs"] != orders["fcfs"]


# ---------------------------------------------------------------------------
# Slow hypothesis sweeps
# ---------------------------------------------------------------------------
#: SWQ->HWQ binding: the paper's FCFS, or ACS's heap against the scan.
BIND_POLICIES = st.sampled_from(["fcfs", "acs"])


def test_rich_apps_reach_depth_two_launches():
    """The rich sweep draws child requests that launch grandchildren, so
    it can witness ACS's depth rank and nested requests in merged grids."""

    def nests(app):
        return any(
            req.nested
            for spec in app.kernels
            for reqs in spec.child_requests.values()
            for req in reqs
        )

    # Generation alone finds one; shrinking it would cost seconds.
    app = find(rich_apps(), nests, settings=settings(
        max_examples=200, database=None, phases=[Phase.generate],
    ))
    result = GPUSimulator(
        config=small_debug_gpu(), policy=AlwaysLaunchPolicy()
    ).run(app)
    assert max(k.depth for k in result.stats.kernels.values()) == 2


@pytest.mark.slow
@given(
    app=micro_apps(),
    policy_idx=st.integers(min_value=0, max_value=len(POLICIES) - 1),
    bind_policy=BIND_POLICIES,
)
@settings(max_examples=40, deadline=None)
def test_differential_micro_apps(app, policy_idx, bind_policy):
    mismatch = run_differential(
        app,
        config=small_debug_gpu(),
        policy_factory=POLICIES[policy_idx],
        sim_kwargs={"bind_policy": bind_policy},
    )
    assert mismatch is None, str(mismatch)


@pytest.mark.slow
@given(app=rich_apps(), policy_factory=policies(), bind_policy=BIND_POLICIES)
@settings(max_examples=15, deadline=None)
def test_differential_rich_apps(app, policy_factory, bind_policy):
    mismatch = run_differential(
        app,
        config=small_debug_gpu(),
        policy_factory=policy_factory,
        sim_kwargs={"bind_policy": bind_policy},
    )
    assert mismatch is None, str(mismatch)


@pytest.mark.slow
@given(app=micro_apps())
@settings(max_examples=10, deadline=None)
def test_reference_engine_matches_on_full_gpu(app):
    """Same sweep on the full Table II GPU (32 HWQs, 13 SMXs)."""
    mismatch = run_differential(
        app, config=GPUConfig(), policy_factory=SpawnPolicy
    )
    assert mismatch is None, str(mismatch)
