"""Unit tests for SPAWN's monitored metrics (Section IV-B)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import MetricsMonitor, RunningMean, WindowedConcurrencyAverage
from repro.errors import SimulationError


class TestRunningMean:
    def test_empty_mean_is_zero(self):
        assert RunningMean().mean == 0.0

    def test_cumulative_mean(self):
        mean = RunningMean()
        for v in (10, 20, 30):
            mean.add(v)
        assert mean.mean == 20
        assert mean.count == 3


class TestWindowedConcurrencyAverage:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(SimulationError):
            WindowedConcurrencyAverage(1000)
        with pytest.raises(SimulationError):
            WindowedConcurrencyAverage(0)

    def test_average_zero_until_first_window_completes(self):
        avg = WindowedConcurrencyAverage(1024)
        avg.change(0.0, +4)
        avg.advance(512.0)
        assert avg.average == 0

    def test_constant_level_average(self):
        avg = WindowedConcurrencyAverage(1024)
        avg.change(0.0, +4)
        avg.advance(1024.0)
        assert avg.average == 4

    def test_bit_shift_semantics_floor(self):
        """Hardware computes (sum of levels) >> log2(window): floor division."""
        avg = WindowedConcurrencyAverage(1024)
        avg.change(0.0, +1)
        avg.change(512.0, +1)  # level 1 for half, 2 for half -> 1536 cycles
        avg.advance(1024.0)
        assert avg.average == 1  # 1536 >> 10 == 1

    def test_average_updates_per_window(self):
        avg = WindowedConcurrencyAverage(128)
        avg.change(0.0, +2)
        avg.advance(128.0)
        assert avg.average == 2
        avg.change(128.0, -2)
        avg.advance(256.0)
        assert avg.average == 0
        assert avg.windows_completed == 2

    def test_multiple_windows_advance_lazily(self):
        avg = WindowedConcurrencyAverage(128)
        avg.change(0.0, +3)
        avg.advance(128.0 * 10)
        assert avg.windows_completed == 10
        assert avg.average == 3

    def test_level_never_negative(self):
        avg = WindowedConcurrencyAverage(128)
        with pytest.raises(SimulationError):
            avg.change(0.0, -1)

    def test_time_cannot_go_backwards(self):
        avg = WindowedConcurrencyAverage(128)
        avg.advance(100.0)
        with pytest.raises(SimulationError):
            avg.advance(50.0)


class TestMetricsMonitor:
    def test_initial_state(self):
        monitor = MetricsMonitor()
        assert monitor.n == 0
        assert monitor.tcta == 0.0
        assert monitor.twarp == 0.0
        assert monitor.ncon == 0

    def test_admission_and_retirement_cycle(self):
        monitor = MetricsMonitor(window_cycles=128)
        monitor.on_ctas_admitted(3)
        assert monitor.n == 3
        assert monitor.peak_n == 3
        monitor.on_cta_started(0.0)
        monitor.on_cta_finished(200.0, exec_time=200.0, items_per_thread=1)
        assert monitor.n == 2
        assert monitor.tcta == 200.0
        assert monitor.twarp == 200.0
        assert monitor.completed_child_ctas == 1

    def test_twarp_normalized_by_items_per_thread(self):
        monitor = MetricsMonitor(window_cycles=128)
        monitor.on_ctas_admitted(1)
        monitor.on_cta_started(0.0)
        monitor.on_cta_finished(400.0, exec_time=400.0, items_per_thread=4)
        assert monitor.twarp == 100.0
        assert monitor.tcta == 400.0

    def test_finish_with_empty_ccqs_raises(self):
        monitor = MetricsMonitor()
        monitor.on_cta_started(0.0)
        with pytest.raises(SimulationError):
            monitor.on_cta_finished(10.0, exec_time=10.0, items_per_thread=1)

    def test_admit_non_positive_raises(self):
        with pytest.raises(SimulationError):
            MetricsMonitor().on_ctas_admitted(0)

    def test_ncon_reflects_concurrency_window(self):
        monitor = MetricsMonitor(window_cycles=128)
        monitor.on_ctas_admitted(4)
        for _ in range(4):
            monitor.on_cta_started(0.0)
        monitor.advance(128.0)
        assert monitor.ncon == 4
        assert monitor.current_concurrency == 4


class _MonitorBeforeInlining(MetricsMonitor):
    """A child CTA's start and finish as they were: through ``change``,
    which always goes through ``advance``, and ``RunningMean.add``."""

    def on_cta_started(self, now):
        self._ncon.change(now, +1)

    def on_cta_finished(self, now, exec_time, items_per_thread):
        if self.n <= 0:
            raise SimulationError("child CTA finished with empty CCQS")
        self.n -= 1
        self._ncon.change(now, -1)
        self._tcta.add(exec_time)
        self._twarp.add(exec_time / max(items_per_thread, 1))


def _observed(monitor):
    window = monitor._ncon
    return (monitor.ncon, monitor.tcta, monitor.twarp, monitor.n,
            monitor.current_concurrency, window.windows_completed,
            window._acc, window._last_time, window._window_start)


def _step(monitor, op):
    kind, when, value = op
    try:
        if kind == "admit":
            monitor.on_ctas_admitted(value)
        elif kind == "start":
            monitor.on_cta_started(when)
        elif kind == "finish":
            monitor.on_cta_finished(when, value, 1 + int(value) % 4)
        else:
            monitor.advance(when)
    except SimulationError as exc:
        return str(exc)
    return None


@given(
    window=st.sampled_from([16, 128, 1024]),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["admit", "start", "start", "finish", "finish",
                             "advance"]),
            # Mostly forward in time, sometimes backwards (a raise), and
            # often landing exactly on a window boundary.
            st.one_of(st.floats(0.0, 3000.0), st.floats(-50.0, 0.0),
                      st.sampled_from([0.0, 16.0, 64.0, 128.0, 1024.0])),
            st.floats(0.0, 5000.0),
        ),
        max_size=80,
    ),
)
@settings(max_examples=150, deadline=None)
def test_inline_window_update_matches_the_advance_path(window, steps):
    fast = MetricsMonitor(window_cycles=window)
    old = _MonitorBeforeInlining(window_cycles=window)
    now = 0.0
    for kind, delta_t, value in steps:
        now += delta_t
        op = (kind, now, int(value) % 5 + 1 if kind == "admit" else value)
        assert _step(fast, op) == _step(old, op)
        assert _observed(fast) == _observed(old)
