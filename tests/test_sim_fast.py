"""The simulator's fast paths against independent references.

``repro.sim`` runs on structures built for host speed: the calendar-bucket
:class:`~repro.sim.events.EventQueue` (whole same-time batches drained at
once), columnar SMX state with a cached slack horizon, the GMU's
dispatchable-head counter and per-spec / closed-form dispatch plans.  Two
layers pin them:

* **Queue equivalence** — the calendar queue against binary-heap order and
  the linear-scan :class:`~repro.check.ReferenceEventQueue`: identical
  delivery order on ties, under cancellation, under schedule-during-run,
  and identical budget semantics.  This is where a deferred-reschedule
  ordering bug would resurface, so ties and cancellations get explicit
  tests on top of the hypothesis script sweep.
* **Core bit-identity** — :class:`~repro.sim.engine.GPUSimulator` against
  :class:`~repro.check.ReferenceSimulator`, which keeps the per-CTA
  slicing dispatch, scalar SMX progress and always-scanning GMU the
  simulator had before it gained these paths: canonical event streams
  diff clean and ``SimStats`` round-trip dicts are equal.  The generated
  sweeps ride in the ``slow`` marker in ``test_check_differential.py``.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import (
    ReferenceEventQueue,
    ReferenceSimulator,
    run_differential,
)
from repro.core.policies import AlwaysLaunchPolicy, SpawnPolicy
from repro.errors import SimulationError
from repro.harness import schemes as sch
from repro.harness.runner import RunConfig, Runner
from repro.sim.config import small_debug_gpu
from repro.sim.events import EventQueue
from repro.workloads import get_benchmark

from tests.strategies import POLICIES, micro_apps

QUEUES = {"fast": EventQueue, "reference": ReferenceEventQueue}


# ---------------------------------------------------------------------------
# Queue equivalence
# ---------------------------------------------------------------------------
@st.composite
def queue_scripts(draw):
    """A schedule/cancel script with deliberately heavy time collisions."""
    n = draw(st.integers(min_value=1, max_value=40))
    # Few distinct timestamps -> most events tie, exercising batch drains.
    times = draw(
        st.lists(
            st.sampled_from([0.0, 1.0, 1.0, 2.5, 2.5, 2.5, 7.0, 100.0]),
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
def test_fast_queue_matches_heap_queue(script):
    """The calendar queue delivers what a (time, seq) binary heap pops."""
    times, cancels = script
    queue = EventQueue()
    order = []
    handles = [
        queue.schedule(t, lambda i=i: order.append(i))
        for i, t in enumerate(times)
    ]
    for index in cancels:
        handles[index].cancel()
    queue.run()

    heap = [(t, i) for i, t in enumerate(times) if i not in cancels]
    heapq.heapify(heap)
    expected = [heapq.heappop(heap)[1] for _ in range(len(heap))]
    assert order == expected
    # The clock stops at the last delivered event, not a cancelled one.
    assert queue.now == (times[expected[-1]] if expected else 0.0)


def test_tie_drain_preserves_seq_order_for_midbatch_schedules():
    """Same-time events scheduled *during* a batch run after it.

    ``seq`` is globally monotonic, so a new event at the current
    timestamp must sort after every already-scheduled tie: the calendar
    queue delivers it from a fresh bucket, the reference by its seq.
    """
    for name, cls in QUEUES.items():
        queue = cls()
        order = []

        def first(queue=queue, order=order):
            order.append("first")
            queue.schedule(5.0, lambda: order.append("tail"))

        queue.schedule(5.0, first)
        queue.schedule(5.0, lambda: order.append("second"))
        queue.run()
        assert order == ["first", "second", "tail"], name


def test_earlier_event_cancelling_later_tie_is_honoured():
    for name, cls in QUEUES.items():
        queue = cls()
        order = []
        later = []

        def first(order=order, later=later):
            order.append("first")
            later[0].cancel()

        queue.schedule(5.0, first)
        later.append(queue.schedule(5.0, lambda: order.append("dead")))
        queue.schedule(5.0, lambda: order.append("third"))
        queue.run()
        assert order == ["first", "third"], name


def test_budget_exhaustion_matches_reference_semantics():
    for name, cls in QUEUES.items():
        queue = cls()

        def rearm(queue=queue):
            queue.schedule_in(1, rearm)

        queue.schedule(0, rearm)
        with pytest.raises(SimulationError, match="event budget exhausted"):
            queue.run(max_events=100)

    # The budget is checked before the pop: an exactly-consumed budget
    # raises even when the queue is empty, on both implementations.
    for name, cls in QUEUES.items():
        queue = cls()
        queue.schedule(0, lambda: None)
        with pytest.raises(SimulationError, match="after 1 events"):
            queue.run(max_events=1)


def test_fast_queue_len_and_peek_track_cancellation():
    queue = EventQueue()
    events = [queue.schedule(float(i % 3), lambda: None) for i in range(9)]
    assert len(queue) == 9
    assert queue.peek_time() == 0.0
    for event in events[::3]:  # i = 0, 3, 6: all of bucket t=0
        event.cancel()
    assert len(queue) == 6
    assert queue.peek_time() == 1.0
    assert queue.pop().time == 1.0


def test_fast_queue_compaction_drops_dead_entries_and_keeps_order():
    queue = EventQueue()
    order = []
    events = [
        queue.schedule(float(i % 8), lambda i=i: order.append(i))
        for i in range(64)
    ]
    for event in events[1::2]:
        event.cancel()
    events[0].cancel()  # the 33rd cancel: 33 * 2 > 64 crosses the threshold
    assert queue._cancelled == 0  # compaction fired and reset the counter
    assert queue._size == 31
    assert len(queue) == 31
    queue.run()
    # Surviving events still run in (time, seq) order.
    assert order == sorted(
        (i for i in range(2, 64, 2)),
        key=lambda i: (i % 8, i),
    )


def test_fast_queue_schedule_in_past_rejected():
    """Mid-batch, "now" is the drained batch's time: earlier is rejected,
    the same time is accepted and runs after the rest of the batch."""
    queue = EventQueue()
    order = []
    for name in ("a", "b", "c"):
        queue.schedule(10.0, lambda name=name: order.append(name))
    queue.pop().callback()  # drains the t=10 batch, delivers "a"
    assert queue.now == 10.0
    with pytest.raises(SimulationError):
        queue.schedule(5.0, lambda: None)
    queue.schedule(10.0, lambda: order.append("late"))
    queue.run()
    assert order == ["a", "b", "c", "late"]


# ---------------------------------------------------------------------------
# Core bit-identity
# ---------------------------------------------------------------------------
def test_fixed_app_fast_engine_is_bit_identical():
    """Every child request becomes its own grid under always-launch, so
    every child CTA dispatches through a closed-form child plan."""
    app = get_benchmark("GC-citation").dp(1)
    mismatch = run_differential(app, policy_factory=AlwaysLaunchPolicy)
    assert mismatch is None, str(mismatch)


def test_fixed_app_fast_differential_is_clean():
    """Irregular graph children under SPAWN's controller: the pending-
    decision counter and cached horizon decide when the SMX scan runs."""
    app = get_benchmark("BFS-citation").dp(1)
    mismatch = run_differential(app, policy_factory=SpawnPolicy)
    assert mismatch is None, str(mismatch)


@given(app=micro_apps(), policy_idx=st.integers(min_value=0, max_value=5))
@settings(max_examples=10, deadline=None)
def test_fast_engine_bit_identical_on_micro_apps(app, policy_idx):
    """A tier-1 slice of the slow generated-app sweep."""
    mismatch = run_differential(
        app, config=small_debug_gpu(), policy_factory=POLICIES[policy_idx]
    )
    assert mismatch is None, str(mismatch)


def test_fast_engine_result_matches_default_through_the_runner():
    """A cached runner result equals the reference core's run of the
    same benchmark, scheme and seed."""
    config = RunConfig(benchmark="MM-small", scheme="spawn")
    runner = Runner()
    result = runner.run(config)
    assert runner.run(config) is result  # served from the cache

    benchmark = get_benchmark(config.benchmark)
    reference = ReferenceSimulator(
        config=runner.config,
        policy=sch.make_policy(sch.SchemeSpec.parse(config.scheme), benchmark),
    ).run(benchmark.dp(config.seed))
    assert reference.to_dict() == result.to_dict()
