"""Host-speed correction for timings taken on a shared, drifting host.

On a shared machine the same simulation can take 30% longer from one
minute to the next while using the same CPU time, because other tenants
slow the core down.  A fixed pure-Python probe, timed right before and
right after each measured operation, sees the same slowdown.  Scaling the
operation's time by ``PROBE_REF_S / probe time`` reports it in seconds of
a host running at the reference speed: the program's own speed changes
still show in full, the host's drift mostly cancels.

``PROBE_REF_S`` is the probe's median time on the 2-core host the
benchmark was defined on; it only sets the scale of the reported seconds.
"""

from __future__ import annotations

import time

PROBE_REF_S = 0.0100


def _probe_work(n: int = 60000) -> int:
    total = 0
    table = {}
    for i in range(n):
        total += i * i
        table[i & 1023] = total
    return total


def probe() -> float:
    """Seconds one run of the fixed probe takes right now."""
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


class SpeedTracker:
    """Scales each timed operation by the probes on either side of it."""

    def __init__(self) -> None:
        self._before = probe()
        self.probes = [self._before]

    def scale(self, seconds: float) -> float:
        """Call right after the operation that took ``seconds``."""
        after = probe()
        self.probes.append(after)
        factor = 2.0 * PROBE_REF_S / (self._before + after)
        self._before = after
        return seconds * factor
