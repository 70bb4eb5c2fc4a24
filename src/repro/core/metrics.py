"""Monitored metrics backing the SPAWN controller (Section IV-B).

The hardware monitors four quantities:

* ``n``      — child CTAs currently in the CCQS (pending + running);
* ``t_cta``  — historical average child-CTA execution time, updated when a
  child CTA finishes and leaves the CCQS;
* ``n_con``  — average number of concurrently *executing* child CTAs,
  computed over a 1024-cycle window; the paper obtains the average with a
  10-bit right shift, which we reproduce with integer arithmetic;
* ``t_warp`` — average child *warp* execution time, also windowed, used by
  Equation 2 to price one serial loop iteration in a parent thread.

Everything is event-driven: instead of adding to an accumulator every cycle
we integrate ``concurrency x dt`` between events, which is numerically
identical to the per-cycle accumulation the paper describes.
"""

from __future__ import annotations

from repro.errors import SimulationError


class WindowedConcurrencyAverage:
    """Time-weighted average of an integer level over fixed windows.

    Mirrors the hardware scheme: accumulate the level each cycle for
    ``window`` cycles, then shift right by ``log2(window)`` to produce the
    average used during the *next* window.
    """

    def __init__(self, window: int):
        if window <= 0 or window & (window - 1):
            raise SimulationError("window must be a positive power of two")
        self.window = window
        self._shift = window.bit_length() - 1
        self._level = 0
        self._acc = 0.0
        self._window_start = 0.0
        self._last_time = 0.0
        self._current_average = 0
        self.windows_completed = 0

    @property
    def level(self) -> int:
        return self._level

    @property
    def average(self) -> int:
        """Average from the last completed window (hardware register)."""
        return self._current_average

    def _integrate(self, now: float) -> None:
        if now < self._last_time:
            raise SimulationError("time moved backwards in metric window")
        self._acc += self._level * (now - self._last_time)
        self._last_time = now

    def advance(self, now: float) -> None:
        """Close any windows that have fully elapsed by ``now``."""
        while now - self._window_start >= self.window:
            boundary = self._window_start + self.window
            self._integrate(boundary)
            # Hardware: ncon >> 10.  _acc over one window is level*cycles.
            self._current_average = int(self._acc) >> self._shift
            self._acc = 0.0
            self._window_start = boundary
            self.windows_completed += 1
        self._integrate(now)

    def change(self, now: float, delta: int) -> None:
        self.advance(now)
        self._level += delta
        if self._level < 0:
            raise SimulationError("concurrency level went negative")


class RunningMean:
    """Cumulative mean (the "historical average" of Section IV-A)."""

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsMonitor:
    """All monitored metrics, updated by the engine, read by SPAWN."""

    def __init__(self, *, window_cycles: int = 1024):
        self.n = 0  # child CTAs in the CCQS
        self._ncon = WindowedConcurrencyAverage(window_cycles)
        self._tcta = RunningMean()
        self._twarp = RunningMean()
        self.peak_n = 0

    # -- CCQS population ------------------------------------------------
    def on_ctas_admitted(self, count: int) -> None:
        """SPAWN admits ``x`` CTAs at decision time (Algorithm 1, line 8)."""
        if count <= 0:
            raise SimulationError("admitted CTA count must be positive")
        self.n += count
        self.peak_n = max(self.peak_n, self.n)

    # ``on_cta_started`` and ``on_cta_finished`` run once per child CTA.
    # Unless ``now`` closes a window, they make ``change``'s statements in
    # place: ``advance`` would only integrate up to ``now``.
    def on_cta_started(self, now: float) -> None:
        """A child CTA began executing on an SMX."""
        ncon = self._ncon
        if now - ncon._window_start >= ncon.window:
            ncon.change(now, +1)
            return
        last = ncon._last_time
        if now < last:
            raise SimulationError("time moved backwards in metric window")
        ncon._acc += ncon._level * (now - last)
        ncon._last_time = now
        ncon._level += 1
        if ncon._level < 0:
            raise SimulationError("concurrency level went negative")

    def on_cta_finished(self, now: float, exec_time: float, items_per_thread: int) -> None:
        """A child CTA finished and left the CCQS."""
        if self.n <= 0:
            raise SimulationError("child CTA finished with empty CCQS")
        self.n -= 1
        ncon = self._ncon
        if now - ncon._window_start >= ncon.window:
            ncon.change(now, -1)
        else:
            last = ncon._last_time
            if now < last:
                raise SimulationError("time moved backwards in metric window")
            ncon._acc += ncon._level * (now - last)
            ncon._last_time = now
            ncon._level -= 1
            if ncon._level < 0:
                raise SimulationError("concurrency level went negative")
        tcta = self._tcta
        tcta.count += 1
        tcta.total += exec_time
        # A serial parent loop iteration processes one item; a child warp
        # spans the CTA's execution while covering items_per_thread items.
        twarp = self._twarp
        twarp.count += 1
        twarp.total += exec_time / max(items_per_thread, 1)

    # -- Reads ----------------------------------------------------------
    def advance(self, now: float) -> None:
        self._ncon.advance(now)

    @property
    def tcta(self) -> float:
        return self._tcta.mean

    @property
    def twarp(self) -> float:
        return self._twarp.mean

    @property
    def ncon(self) -> int:
        return self._ncon.average

    @property
    def current_concurrency(self) -> int:
        return self._ncon.level

    @property
    def completed_child_ctas(self) -> int:
        return self._tcta.count
