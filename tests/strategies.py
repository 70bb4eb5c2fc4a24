"""Shared hypothesis strategies for simulator property tests.

Promoted out of ``test_properties_engine.py`` so the conformance suite's
differential tests (``test_check_differential.py``) and any future
property tests draw from the same application space instead of growing
divergent ad-hoc generators.

* :func:`child_requests` — up to ``max_requests`` parent threads, each
  with one :class:`~repro.sim.kernel.ChildRequest`: 1 to ``max_items``
  items, 16/32/64-thread CTAs, 1-3 items per thread, a launch point
  anywhere in the parent thread's run.  With ``nested``, each child may
  carry up to two depth-2 requests of its own (1-16 items each).
* :func:`micro_apps` — one root kernel of up to 96 threads with uniform
  per-thread work and depth-1 child requests.
* :func:`rich_apps` — one to three sequential root kernels of up to 128
  threads each, non-uniform per-thread work, and child requests of up to
  400 items that may launch depth-2 requests.  Slower to simulate; meant
  for the ``slow``-marked differential tests.
* :data:`POLICIES` / :func:`policies` — one factory per launch-policy
  family (every :class:`~repro.core.policies.DecisionKind` is reachable).
"""

import numpy as np
from hypothesis import strategies as st

from repro.core.policies import (
    AggregatePolicy,
    AlwaysLaunchPolicy,
    ConsolidatePolicy,
    DTBLPolicy,
    FreeLaunchPolicy,
    NeverLaunchPolicy,
    SpawnPolicy,
    StaticThresholdPolicy,
)
from repro.sim.kernel import Application, ChildRequest, KernelSpec

#: One factory per policy family.  Index into this with a drawn integer
#: (hypothesis shrinks integers well) or use the :func:`policies` strategy.
POLICIES = [
    NeverLaunchPolicy,
    AlwaysLaunchPolicy,
    lambda: StaticThresholdPolicy(50),
    SpawnPolicy,
    lambda: DTBLPolicy(0),
    FreeLaunchPolicy,
    lambda: ConsolidatePolicy(0, batch_ctas=2),
    lambda: AggregatePolicy(0, "warp"),
    lambda: AggregatePolicy(0, "block"),
    lambda: AggregatePolicy(0, "grid"),
]


def policies():
    """Strategy yielding a fresh-policy factory (not a shared instance)."""
    return st.sampled_from(POLICIES)


@st.composite
def child_requests(
    draw, threads, *, max_requests=6, max_items=200, nested=False,
    mem_base=1_000_000,
):
    """A dict of per-thread :class:`ChildRequest` fan-outs, and their total
    items: the work a parent does when it declines every launch, so nested
    requests, which only a launched child reaches, are not in it."""
    requests = {}
    tids = draw(
        st.lists(
            st.integers(min_value=0, max_value=threads - 1),
            min_size=0,
            max_size=min(max_requests, threads),
            unique=True,
        )
    )
    total_child_items = 0
    for tid in tids:
        items = draw(st.integers(min_value=1, max_value=max_items))
        total_child_items += items
        cta_threads = draw(st.sampled_from([16, 32, 64]))
        items_per_thread = draw(st.integers(min_value=1, max_value=3))
        at_fraction = draw(st.floats(min_value=0.0, max_value=1.0))
        grandchildren = {}
        if nested:
            grandchildren, _ = draw(
                child_requests(
                    -(-items // items_per_thread), max_requests=2,
                    max_items=16, mem_base=(tid + 1) << 24,
                )
            )
        requests[tid] = ChildRequest(
            name=f"c{tid}",
            items=items,
            cta_threads=cta_threads,
            items_per_thread=items_per_thread,
            mem_base=mem_base + tid * 65536,
            at_fraction=at_fraction,
            nested=grandchildren,
        )
    return requests, total_child_items


@st.composite
def micro_apps(draw):
    """Single-kernel applications with uniform per-thread work."""
    threads = draw(st.integers(min_value=1, max_value=96))
    threads_per_cta = draw(st.sampled_from([8, 32, 64]))
    base_items = draw(st.integers(min_value=0, max_value=8))
    items = np.full(threads, base_items, dtype=np.int64)
    requests, total_child_items = draw(child_requests(threads))
    spec = KernelSpec(
        name="p",
        threads_per_cta=threads_per_cta,
        thread_items=items,
        mem_bases=np.arange(threads, dtype=np.int64) * 128,
        child_requests=requests,
    )
    total = int(items.sum()) + total_child_items
    return Application(name="micro", kernels=[spec], flat_items=total)


@st.composite
def rich_apps(draw):
    """Multi-kernel applications with skewed per-thread work distributions.

    Exercises the paths micro_apps cannot: several sequential root kernels
    (stream retirement and HWQ rebinding), non-uniform warps (reduceat
    critical paths), larger child grids (multi-CTA children, grid
    suspension while descendants run), and launches at depth 2 (ACS's
    depth rank, nested requests inside merged grids).
    """
    num_roots = draw(st.integers(min_value=1, max_value=3))
    kernels = []
    total = 0
    for index in range(num_roots):
        threads = draw(st.integers(min_value=1, max_value=128))
        threads_per_cta = draw(st.sampled_from([8, 16, 32, 64]))
        items = draw(
            st.lists(
                st.integers(min_value=0, max_value=12),
                min_size=threads,
                max_size=threads,
            )
        )
        items = np.asarray(items, dtype=np.int64)
        requests, child_items = draw(
            child_requests(threads, max_requests=8, max_items=400, nested=True)
        )
        kernels.append(
            KernelSpec(
                name=f"root{index}",
                threads_per_cta=threads_per_cta,
                thread_items=items,
                mem_bases=np.arange(threads, dtype=np.int64) * 128
                + (index << 20),
                child_requests=requests,
            )
        )
        total += int(items.sum()) + child_items
    return Application(name="rich", kernels=kernels, flat_items=total)
