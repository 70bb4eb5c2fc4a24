"""The engine's per-CTA dispatch plans against slicing the spec's arrays."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import WARP_SIZE, MemoryConfig
from repro.sim.engine import ChildGridPlan, GridPlan, child_spec, plan_of
from repro.sim.kernel import ChildRequest, KernelSpec, spec_from_request
from repro.sim.memory import MemorySystem
from repro.sim.merge import build_merged_spec


def tiled(bases, extents):
    """``(base, extent)`` of regions that tile one range, else Nones."""
    regions = [(int(b), int(e)) for b, e in zip(bases, extents) if e > 0]
    for (b0, e0), (b1, _) in zip(regions, regions[1:]):
        if b1 != b0 + e0:
            return None, None
    if not regions:
        return 0, 0
    return regions[0][0], sum(regions[-1]) - regions[0][0]


def sliced(spec: KernelSpec, index: int):
    """What dispatching CTA ``index`` reads from the per-thread arrays."""
    threads = spec.cta_thread_range(index)
    start, stop = threads.start, threads.stop
    items = spec.thread_items[start:stop]
    n = stop - start
    base = extent = None
    if spec.contiguous_footprint:
        per_warp = int(items[0]) if n > 1 else int(items[-1])
        if spec.mem_bases is not None:
            base = int(spec.mem_bases[start])
            extent = (
                int(spec.mem_bases[stop - 1]) - base
                + int(items[-1]) * spec.mem_stride
            )
    else:
        per_warp = np.maximum.reduceat(items, np.arange(0, n, WARP_SIZE)).tolist()
        if spec.mem_bases is not None:
            base, extent = tiled(spec.mem_bases[start:stop], items * spec.mem_stride)
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


@st.composite
def merged_grids(draw):
    """A merged grid of 1-6 requests sharing a merge key, and whether it
    is padded (then every CTA holds one constituent and must tile)."""
    tpc = draw(st.integers(min_value=1, max_value=96))
    per_thread = draw(st.integers(min_value=1, max_value=4))
    stride = draw(st.integers(min_value=0, max_value=16))
    requests = [
        ChildRequest(name="c", items=items, cta_threads=tpc,
                     items_per_thread=per_thread, mem_base=base,
                     mem_stride=stride)
        for items, base in draw(st.lists(
            st.tuples(st.integers(min_value=1, max_value=200),
                      st.integers(min_value=-1024, max_value=4096)),
            min_size=1, max_size=6))
    ]
    unpadded = draw(st.booleans())
    return build_merged_spec(requests, depth=1, unpadded=unpadded), not unpadded


@st.composite
def host_grids(draw):
    """A host grid whose regions tile, leave gaps, overlap or repeat."""
    items = np.array(draw(st.lists(st.integers(min_value=0, max_value=6),
                                   min_size=1, max_size=300)))
    stride = draw(st.integers(min_value=0, max_value=16))
    # Each thread starts where the previous region ended, plus a shift
    # (0 tiles); None repeats the previous thread's base.
    shifts = draw(st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 7, -64, 128, None]),
                           min_size=items.size, max_size=items.size))
    bases = [draw(st.integers(min_value=-1024, max_value=1024))]
    for t in range(1, items.size):
        shift = shifts[t]
        bases.append(bases[-1] if shift is None
                     else bases[-1] + int(items[t - 1]) * stride + shift)
    spec = KernelSpec(name="h", threads_per_cta=draw(st.integers(1, 96)),
                      thread_items=items, mem_bases=np.array(bases),
                      mem_stride=stride)
    return spec, False


class StreamRecorder(MemorySystem):
    """Records every line stream handed to the caches."""

    def __init__(self, max_lines_per_cta):
        super().__init__(MemoryConfig(), max_lines_per_cta=max_lines_per_cta)
        self.streams = []

    def _access_lines(self, lines, smx_index, now=0.0):
        self.streams.append(list(lines))
        return super()._access_lines(lines, smx_index, now)


@given(
    grid=st.one_of(merged_grids(), host_grids()),
    cost=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    max_lines=st.integers(min_value=1, max_value=24),
)
@settings(max_examples=80, deadline=None)
def test_plan_ranges_and_maxima_match_the_array_path(grid, cost, max_lines):
    spec, must_tile = grid
    plan = GridPlan(spec)
    ranged, arrays = StreamRecorder(max_lines), StreamRecorder(max_lines)
    for index in range(spec.num_ctas):
        start, stop, _, _, per_warp, base, extent = plan.cta(index)
        items = spec.thread_items[start:stop]
        reduced = np.maximum.reduceat(items * cost,
                                      np.arange(0, stop - start, WARP_SIZE))
        assert np.array([m * cost for m in per_warp]).tobytes() == reduced.tobytes()
        assert base is not None or not must_tile
        if base is not None:
            assert ranged.cta_access([(base, extent)]) == arrays.cta_access_arrays(
                spec.mem_bases[start:stop], items * spec.mem_stride
            )
            assert ranged.streams[-1] == arrays.streams[-1]
