"""The engine's per-CTA dispatch plans against slicing the spec's arrays."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import WARP_SIZE
from repro.sim.engine import ChildGridPlan, GridPlan, child_spec, plan_of
from repro.sim.kernel import ChildRequest, KernelSpec, spec_from_request


def sliced(spec: KernelSpec, index: int):
    """What dispatching CTA ``index`` reads from the per-thread arrays."""
    threads = spec.cta_thread_range(index)
    start, stop = threads.start, threads.stop
    items = spec.thread_items[start:stop]
    n = stop - start
    per_warp = base = extent = None
    if spec.contiguous_footprint:
        per_warp = int(items[0]) if n > 1 else int(items[-1])
        if spec.mem_bases is not None:
            base = int(spec.mem_bases[start])
            extent = (
                int(spec.mem_bases[stop - 1]) - base
                + int(items[-1]) * spec.mem_stride
            )
    return (start, stop, (n + WARP_SIZE - 1) // WARP_SIZE, int(items.sum()),
            per_warp, base, extent)


@given(
    items=st.integers(min_value=1, max_value=3000),
    per_thread=st.integers(min_value=1, max_value=9),
    cta_threads=st.integers(min_value=1, max_value=300),
    stride=st.integers(min_value=0, max_value=16),
    base=st.integers(min_value=0, max_value=10**9),
)
@settings(max_examples=150, deadline=None)
def test_child_plan_is_the_closed_form_of_the_child_grid(
    items, per_thread, cta_threads, stride, base
):
    req = ChildRequest(name="c", items=items, cta_threads=cta_threads,
                       items_per_thread=per_thread, mem_base=base,
                       mem_stride=stride)
    spec = spec_from_request(req, depth=1)
    plan = ChildGridPlan(req)
    grid = GridPlan(spec)
    for index in range(spec.num_ctas):
        assert plan.cta(index) == sliced(spec, index)
        assert grid.cta(index) == sliced(spec, index)


@given(
    thread_items=st.lists(st.integers(min_value=0, max_value=50),
                          min_size=1, max_size=400),
    tpc=st.integers(min_value=1, max_value=96),
    with_bases=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_grid_plan_matches_slicing_any_grid(thread_items, tpc, with_bases):
    n = len(thread_items)
    spec = KernelSpec(
        name="k", threads_per_cta=tpc, thread_items=np.array(thread_items),
        mem_bases=np.arange(n, dtype=np.int64) * 64 if with_bases else None,
    )
    plan = GridPlan(spec)
    for index in range(spec.num_ctas):
        assert plan.cta(index) == sliced(spec, index)


def test_child_spec_carries_its_closed_form_plan_and_checks():
    nested = {1: [ChildRequest(name="g", items=3, cta_threads=32)]}
    req = ChildRequest(name="c", items=70, cta_threads=32, nested=nested)
    spec = child_spec(req, depth=2)
    assert isinstance(plan_of(spec), ChildGridPlan)
    assert plan_of(spec).dec_tids == [1]
    assert spec.depth == 2 and spec.contiguous_footprint
    # Host grids get a cached array-derived plan.
    host = KernelSpec(name="h", threads_per_cta=32,
                      thread_items=np.ones(70, dtype=np.int64))
    assert isinstance(plan_of(host), GridPlan)
    assert plan_of(host) is plan_of(host)
