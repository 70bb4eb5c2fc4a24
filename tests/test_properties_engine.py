"""Property-based tests on whole-simulation invariants.

Hypothesis generates random micro-applications (grid sizes, work
distributions, child requests, launch positions) and random policies; the
invariants below must hold for every one of them:

* the simulation terminates with every kernel complete,
* work items are conserved across parent/child partitioning,
* SPAWN's CCQS population returns to zero,
* per-kernel lifecycle timestamps are ordered,
* occupancy stays within [0, 1],
* scheme-zoo structure: merge buffers drain, decisions are deterministic,
  consolidation is monotone in its batch bound, and aggregation launch
  counts obey the warp >= block >= grid granularity ordering.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    AggregatePolicy,
    ConsolidatePolicy,
    SpawnPolicy,
    StaticThresholdPolicy,
)
from repro.sim.config import small_debug_gpu
from repro.sim.engine import GPUSimulator

from tests.strategies import POLICIES, micro_apps


@given(app=micro_apps(), policy_idx=st.integers(min_value=0, max_value=5))
@settings(max_examples=60, deadline=None)
def test_simulation_invariants(app, policy_idx):
    sim = GPUSimulator(config=small_debug_gpu(), policy=POLICIES[policy_idx]())
    result = sim.run(app)

    # Termination: everything completed, queues drained.
    assert sim._unfinished_kernels == 0
    assert sim.gmu.drained()
    assert not sim._dtbl_pending

    # Work conservation.
    stats = result.stats
    assert stats.items_in_parent + stats.items_in_child == app.flat_items

    # CCQS drained.
    assert sim.metrics.n == 0
    assert sim.metrics.current_concurrency == 0

    # Lifecycle ordering for every kernel.
    for rec in stats.kernels.values():
        assert rec.arrival_time <= rec.first_dispatch_time <= rec.completion_time
        if rec.is_child:
            assert rec.launch_call_time <= rec.arrival_time

    # Bounded derived metrics.
    assert 0.0 <= stats.smx_occupancy <= 1.0
    assert 0.0 <= stats.offload_fraction <= 1.0
    assert stats.makespan >= 0.0

    # Decision accounting: every request resolved exactly once.
    resolved = (
        stats.child_kernels_launched
        + stats.child_kernels_declined
        + stats.child_kernels_reused
    )
    requested = sum(k.num_child_requests() for k in app.kernels)
    assert resolved == requested


@given(app=micro_apps())
@settings(max_examples=20, deadline=None)
def test_determinism_property(app):
    a = GPUSimulator(config=small_debug_gpu(), policy=SpawnPolicy()).run(app)
    b = GPUSimulator(config=small_debug_gpu(), policy=SpawnPolicy()).run(app)
    assert a.makespan == b.makespan
    assert a.stats.child_kernels_launched == b.stats.child_kernels_launched


@given(app=micro_apps(), threshold=st.integers(min_value=0, max_value=250))
@settings(max_examples=30, deadline=None)
def test_threshold_monotone_offload(app, threshold):
    """Raising the threshold never increases the offloaded fraction."""
    low = GPUSimulator(
        config=small_debug_gpu(), policy=StaticThresholdPolicy(threshold)
    ).run(app)
    high = GPUSimulator(
        config=small_debug_gpu(), policy=StaticThresholdPolicy(threshold + 50)
    ).run(app)
    assert high.stats.items_in_child <= low.stats.items_in_child


# ---------------------------------------------------------------------------
# Scheme zoo (consolidate / aggregate)
# ---------------------------------------------------------------------------
#: The merge-policy tail of POLICIES (consolidate + three granularities).
MERGE_POLICY_RANGE = (6, len(POLICIES) - 1)


@given(
    app=micro_apps(),
    policy_idx=st.integers(
        min_value=MERGE_POLICY_RANGE[0], max_value=MERGE_POLICY_RANGE[1]
    ),
)
@settings(max_examples=60, deadline=None)
def test_merge_policy_invariants(app, policy_idx):
    """Termination, drained merge buffers, and decision accounting hold
    for every consolidate/aggregate policy on every generated app."""
    sim = GPUSimulator(config=small_debug_gpu(), policy=POLICIES[policy_idx]())
    result = sim.run(app)

    assert sim._unfinished_kernels == 0
    assert sim.gmu.drained()
    assert not sim._cta_merge  # every block/cta-scope buffer flushed
    assert not sim._cta_merge_ctas  # and its consolidate CTA totals
    assert not sim._grid_merge  # every grid-scope buffer flushed

    stats = result.stats
    assert stats.items_in_parent + stats.items_in_child == app.flat_items

    # Every request resolved exactly once, buffered verdicts included.
    resolved = (
        stats.child_kernels_launched
        + stats.child_kernels_declined
        + stats.child_kernels_reused
        + stats.child_kernels_consolidated
        + stats.child_kernels_aggregated
    )
    requested = sum(k.num_child_requests() for k in app.kernels)
    assert resolved == requested

    # A merged kernel exists iff at least one request was buffered.
    buffered = stats.child_kernels_consolidated + stats.child_kernels_aggregated
    if buffered:
        assert 1 <= stats.merged_kernels_launched <= buffered
    else:
        assert stats.merged_kernels_launched == 0


@given(
    app=micro_apps(),
    policy_idx=st.integers(
        min_value=MERGE_POLICY_RANGE[0], max_value=MERGE_POLICY_RANGE[1]
    ),
)
@settings(max_examples=20, deadline=None)
def test_merge_policy_determinism(app, policy_idx):
    """Merge-scheme decisions and flush order are fully deterministic."""
    runs = [
        GPUSimulator(
            config=small_debug_gpu(), policy=POLICIES[policy_idx]()
        ).run(app)
        for _ in range(2)
    ]
    assert runs[0].makespan == runs[1].makespan
    assert runs[0].stats.to_dict() == runs[1].stats.to_dict()


@given(app=micro_apps(), batch=st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_consolidation_batch_monotone(app, batch):
    """A larger batch bound never yields more merged kernels: per-key
    greedy segmentation makes the flush count non-increasing in the
    batch, independent of timing."""
    small = GPUSimulator(
        config=small_debug_gpu(), policy=ConsolidatePolicy(0, batch_ctas=batch)
    ).run(app)
    large = GPUSimulator(
        config=small_debug_gpu(),
        policy=ConsolidatePolicy(0, batch_ctas=batch + 3),
    ).run(app)
    assert (
        large.stats.merged_kernels_launched
        <= small.stats.merged_kernels_launched
    )
    # Buffered-request totals agree: the bound only re-segments them.
    assert (
        large.stats.child_kernels_consolidated
        == small.stats.child_kernels_consolidated
    )


@given(app=micro_apps())
@settings(max_examples=30, deadline=None)
def test_aggregation_granularity_ordering(app):
    """Coarser aggregation scopes can only merge more aggressively:
    launch counts obey warp >= block >= grid (each block group unions
    whole warp groups; each grid group unions whole block groups)."""
    merged = {}
    aggregated = {}
    for granularity in ("warp", "block", "grid"):
        result = GPUSimulator(
            config=small_debug_gpu(),
            policy=AggregatePolicy(0, granularity),
        ).run(app)
        merged[granularity] = result.stats.merged_kernels_launched
        aggregated[granularity] = result.stats.child_kernels_aggregated
    assert merged["warp"] >= merged["block"] >= merged["grid"]
    # The same requests are buffered at every granularity.
    assert len(set(aggregated.values())) == 1
