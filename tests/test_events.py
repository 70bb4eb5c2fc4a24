"""Unit tests for the discrete-event core."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventQueue


class TestScheduling:
    def test_runs_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(30, lambda: order.append("c"))
        queue.schedule(10, lambda: order.append("a"))
        queue.schedule(20, lambda: order.append("b"))
        queue.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_fifo(self):
        queue = EventQueue()
        order = []
        for tag in "abcde":
            queue.schedule(5.0, lambda t=tag: order.append(t))
        queue.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        queue = EventQueue()
        seen = []
        queue.schedule(42.5, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [42.5]
        assert queue.now == 42.5

    def test_schedule_in_is_relative(self):
        queue = EventQueue()
        times = []
        queue.schedule(10, lambda: queue.schedule_in(5, lambda: times.append(queue.now)))
        queue.run()
        assert times == [15]

    def test_cannot_schedule_in_the_past(self):
        queue = EventQueue()
        queue.schedule(10, lambda: None)
        queue.pop()
        with pytest.raises(SimulationError):
            queue.schedule(5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().schedule_in(-1, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        queue = EventQueue()
        ran = []
        event = queue.schedule(10, lambda: ran.append(1))
        event.cancel()
        queue.run()
        assert ran == []

    def test_len_ignores_cancelled(self):
        queue = EventQueue()
        event = queue.schedule(10, lambda: None)
        queue.schedule(20, lambda: None)
        assert len(queue) == 2
        event.cancel()
        assert len(queue) == 1

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.schedule(10, lambda: None)
        queue.schedule(20, lambda: None)
        first.cancel()
        assert queue.peek_time() == 20

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None


class TestRun:
    def test_run_returns_executed_count(self):
        queue = EventQueue()
        for i in range(5):
            queue.schedule(i, lambda: None)
        assert queue.run() == 5

    def test_events_scheduled_during_run_execute(self):
        queue = EventQueue()
        order = []

        def first():
            order.append("first")
            queue.schedule_in(1, lambda: order.append("second"))

        queue.schedule(0, first)
        queue.run()
        assert order == ["first", "second"]

    def test_budget_exhaustion_raises(self):
        queue = EventQueue()

        def rearm():
            queue.schedule_in(1, rearm)

        queue.schedule(0, rearm)
        with pytest.raises(SimulationError):
            queue.run(max_events=100)

    def test_pop_on_empty_returns_none(self):
        assert EventQueue().pop() is None


class TestDrainedFastPath:
    """The live-count check answers drained queues with zero heap ops."""

    def test_pop_leaves_cancelled_stragglers_untouched(self):
        queue = EventQueue()
        events = [queue.schedule(float(i), lambda: None) for i in range(5)]
        for event in events:
            event.cancel()
        # Below _COMPACT_MIN nothing compacts: 5 dead entries remain.
        assert queue._size == 5
        assert queue.pop() is None
        assert queue.peek_time() is None
        # The fast path answered from the counters; the timestamp heap
        # was not popped, scanned, or rebuilt.
        assert queue._size == 5
        assert len(queue._times) == 5
        assert queue._cancelled == 5
        assert len(queue) == 0

    def test_pop_still_skips_dead_entries_when_live_ones_remain(self):
        queue = EventQueue()
        dead = queue.schedule(1.0, lambda: None)
        live = queue.schedule(2.0, lambda: None)
        dead.cancel()
        assert queue.pop() is live
        assert queue._cancelled == 0

    def test_compaction_threshold_rebuilds_heap(self):
        queue = EventQueue()
        events = [queue.schedule(float(i), lambda: None) for i in range(64)]
        for event in events[:33]:  # 33 * 2 > 64 crosses the threshold
            event.cancel()
        assert queue._cancelled == 0  # compaction fired and reset it
        assert queue._size == 31
        assert len(queue._times) == 31
        assert len(queue) == 31
