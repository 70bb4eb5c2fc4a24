"""The engine's per-CTA dispatch plans against slicing the spec's arrays."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.sim.config import WARP_SIZE, MemoryConfig
from repro.sim.engine import ChildGridPlan, GridPlan, MergedGridPlan, plan_of
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


#: Every field the engine reads from a launched child grid's spec.
ENGINE_FIELDS = (
    "name", "depth", "threads_per_cta", "regs_per_thread", "shmem_per_cta",
    "cycles_per_item", "accesses_per_item", "mem_stride", "child_requests",
    "header_items", "num_ctas", "num_threads", "contiguous_footprint",
)


@st.composite
def child_requests(draw):
    """A valid ChildRequest: zero or positive stride, a remainder thread
    alone in its CTA as often as any other shape, nested requests."""
    per_thread = draw(st.integers(min_value=1, max_value=9))
    cta_threads = draw(st.integers(min_value=1, max_value=300))
    if draw(st.booleans()):
        # num_threads = k * cta_threads + 1: the last CTA has one thread.
        num_threads = draw(st.integers(min_value=0, max_value=6)) * cta_threads + 1
        items = (num_threads - 1) * per_thread + draw(
            st.integers(min_value=1, max_value=per_thread))
    else:
        items = draw(st.integers(min_value=1, max_value=3000))
    num_threads = -(-items // per_thread)
    tids = draw(st.lists(st.integers(min_value=0, max_value=num_threads - 1),
                         max_size=3, unique=True))
    nested = {
        tid: [ChildRequest(name="g", items=draw(st.integers(1, 40)),
                           cta_threads=draw(st.integers(1, 64)))
              for _ in range(draw(st.integers(1, 2)))]
        for tid in tids
    }
    return ChildRequest(
        name=draw(st.sampled_from(["c", "expand"])), items=items,
        cta_threads=cta_threads, items_per_thread=per_thread,
        regs_per_thread=draw(st.integers(1, 64)),
        shmem_per_cta=draw(st.integers(0, 4096)),
        cycles_per_item=draw(st.floats(0, 100, allow_nan=False)),
        accesses_per_item=draw(st.floats(0, 4, allow_nan=False)),
        mem_base=draw(st.integers(min_value=0, max_value=10**9)),
        mem_stride=draw(st.sampled_from([0, 0, 1, 4, 8, 16])),
        nested=nested,
    )


@given(req=child_requests(), depth=st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_child_plan_is_the_closed_form_of_the_child_grid(req, depth):
    spec = spec_from_request(req, depth=depth)
    grid = ChildGridPlan(req, depth)
    for name in ENGINE_FIELDS:
        assert getattr(grid, name) == getattr(spec, name), name
    assert plan_of(grid) is grid
    plan = GridPlan(spec)
    assert grid.dec_tids == plan.dec_tids
    for index in range(spec.num_ctas):
        assert grid.cta(index) == plan.cta(index) == sliced(spec, index)


#: Values that make a constructed request one ``spec_from_request``
#: rejects, or (positive sizes) keep it valid.
MUTATIONS = {
    "items": [0, -1, -7, 1, 5, 64],
    "items_per_thread": [0, -1, -3, 2],
    "cta_threads": [0, -4, 1, 33],
    "cycles_per_item": [-1.0, -1e-9, 0.0, 7.5],
    "accesses_per_item": [-0.5, 0.0, 2.0],
    "nested": ["far", "negative", "empty list", "not requests", "valid"],
}


def _mutated_nested(kind, num_threads):
    child = ChildRequest(name="g", items=3, cta_threads=8)
    return {
        "far": {num_threads + 2: [child]},
        "negative": {-1: [child]},
        "empty list": {0: []},
        "not requests": {0: ["g"]},
        "valid": {0: child},
    }[kind]


def _outcome(build):
    try:
        return build(), None
    except Exception as exc:  # noqa: BLE001 - which one is compared below
        return None, exc


@given(req=child_requests(), field=st.sampled_from(sorted(MUTATIONS)),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_requests_are_rejected_exactly_when_spec_from_request_rejects(
    req, field, data
):
    value = data.draw(st.sampled_from(MUTATIONS[field]))
    if field == "nested":
        value = _mutated_nested(value, req.num_threads)
    setattr(req, field, value)  # after construction: no __post_init__
    spec, spec_error = _outcome(lambda: spec_from_request(req, depth=1))
    grid, grid_error = _outcome(lambda: ChildGridPlan(req, 1))
    if spec_error is not None:
        assert isinstance(spec_error, WorkloadError), spec_error
        assert isinstance(grid_error, WorkloadError), (spec_error, grid_error)
        return
    assert grid_error is None, grid_error
    for name in ENGINE_FIELDS:
        assert getattr(grid, name) == getattr(spec, name), name
    plan = GridPlan(spec)
    for index in range(spec.num_ctas):
        assert grid.cta(index) == plan.cta(index)


def spelt_out(plan):
    """``plan`` with a per-warp maximum that every warp shares listed per
    warp, as ``GridPlan`` lists it."""
    start, stop, num_warps, executed, per_warp, base, extent = plan
    if not isinstance(per_warp, list):
        per_warp = [per_warp] * num_warps
    return start, stop, num_warps, executed, per_warp, base, extent


@st.composite
def merge_groups(draw):
    """1-6 requests sharing a merge key, as the engine buffers them:
    constituents smaller than one CTA, a remainder thread alone in its CTA
    or its warp, zero stride, ``cta_threads % 32 == 1``, nested requests."""
    per_thread = draw(st.integers(min_value=1, max_value=9))
    cta_threads = draw(st.one_of(st.integers(min_value=1, max_value=300),
                                 st.sampled_from([1, 33, 65, 97, 129, 257])))
    key = dict(
        cta_threads=cta_threads, items_per_thread=per_thread,
        regs_per_thread=draw(st.integers(1, 64)),
        shmem_per_cta=draw(st.integers(0, 4096)),
        cycles_per_item=draw(st.floats(0, 100, allow_nan=False)),
        accesses_per_item=draw(st.floats(0, 4, allow_nan=False)),
        mem_stride=draw(st.sampled_from([0, 0, 1, 4, 8, 16])),
    )
    requests = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        shape = draw(st.sampled_from(["small", "lone in CTA", "lone in warp", "any"]))
        if shape == "small":
            num_threads = draw(st.integers(min_value=1, max_value=cta_threads))
        elif shape == "lone in CTA":
            num_threads = draw(st.integers(0, 4)) * cta_threads + 1
        elif shape == "lone in warp":
            num_threads = draw(st.integers(0, 9)) * WARP_SIZE + 1
        else:
            num_threads = draw(st.integers(min_value=1, max_value=700))
        tids = draw(st.lists(st.integers(0, num_threads - 1), max_size=3,
                             unique=True))
        requests.append(ChildRequest(
            name=draw(st.sampled_from(["c", "expand"])),
            items=(num_threads - 1) * per_thread
            + draw(st.integers(min_value=1, max_value=per_thread)),
            mem_base=draw(st.integers(min_value=-1024, max_value=10**9)),
            nested={
                tid: [ChildRequest(name="g", items=draw(st.integers(1, 40)),
                                   cta_threads=draw(st.integers(1, 64)))
                      for _ in range(draw(st.integers(1, 2)))]
                for tid in tids
            },
            **key,
        ))
    return requests


def assert_same_grid(grid: MergedGridPlan, spec: KernelSpec) -> None:
    """The closed form reads as the array-built merged grid, CTA by CTA."""
    for name in ENGINE_FIELDS:
        assert getattr(grid, name) == getattr(spec, name), name
    assert plan_of(grid) is grid
    plan = GridPlan(spec)
    assert grid.dec_tids == plan.dec_tids
    for index in range(spec.num_ctas):
        closed = grid.cta(index)
        assert spelt_out(closed) == plan.cta(index) == sliced(spec, index)
        per_warp = plan.cta(index)[4]
        # One int exactly where every warp shares a maximum.
        assert isinstance(closed[4], list) == (len(set(per_warp)) > 1)
        assert all(type(value) is int for value in closed[:4] + closed[5:])


@given(reqs=merge_groups(), depth=st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_merged_plan_is_the_closed_form_of_the_merged_grid(reqs, depth):
    assert_same_grid(MergedGridPlan(reqs, depth),
                     build_merged_spec(reqs, depth=depth))


#: ``MUTATIONS`` plus a stride that may differ from the group's.
MERGE_MUTATIONS = dict(MUTATIONS, mem_stride=[0, 3, 4])


@given(reqs=merge_groups(), field=st.sampled_from(sorted(MERGE_MUTATIONS)),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_merge_groups_are_rejected_exactly_when_build_merged_spec_rejects(
    reqs, field, data
):
    victim = reqs[data.draw(st.integers(0, len(reqs) - 1))]
    value = data.draw(st.sampled_from(MERGE_MUTATIONS[field]))
    if field == "nested":
        value = _mutated_nested(value, victim.num_threads)
    setattr(victim, field, value)  # after construction: no __post_init__
    spec, spec_error = _outcome(lambda: build_merged_spec(reqs, depth=1))
    grid, grid_error = _outcome(lambda: MergedGridPlan(reqs, 1))
    if spec_error is not None:
        assert isinstance(spec_error, WorkloadError), spec_error
        assert isinstance(grid_error, WorkloadError), (spec_error, grid_error)
        return
    assert grid_error is None, grid_error
    assert_same_grid(grid, spec)


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


def test_child_grid_is_its_own_plan():
    nested = {1: [ChildRequest(name="g", items=3, cta_threads=32)]}
    req = ChildRequest(name="c", items=70, cta_threads=32, nested=nested)
    spec = ChildGridPlan(req, 2)
    assert plan_of(spec) is spec
    assert spec.dec_tids == [1]
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
