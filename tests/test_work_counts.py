"""Deterministic work counts of a handful of seed-1 runs, pinned.

The golden corpus pins the traced events and the stats of a run, but not
how much work the simulation core does to produce them: a change that
delivers extra events, or walks more L2 lines for the same hit rate,
would pass it.  These counts would move.  Each tuple is (events
``EventQueue.run`` delivers, CTAs placed on an SMX, L2 line accesses,
kernels through ``GMU.submit``, launch batches).
"""

from collections import Counter

import pytest

from repro.harness.runner import RunConfig, Runner
from repro.sim.events import EventQueue
from repro.sim.gmu import GMU
from repro.sim.launch import LaunchUnit
from repro.sim.smx import SMX

PINNED = {
    ("GC-citation", "flat"): (147, 147, 14960, 16, 0),
    ("GC-citation", "baseline-dp"): (1556, 1787, 18809, 1420, 148),
    ("GC-citation", "spawn"): (545, 376, 17360, 189, 43),
    ("GC-citation", "dtbl"): (2524, 1787, 18809, 16, 0),
    ("GC-citation", "acs"): (1556, 1787, 18809, 1420, 148),
    ("GC-citation", "consolidate"): (1518, 1787, 18809, 228, 212),
    ("MM-small", "flat"): (16, 16, 64655, 1, 0),
    ("MM-small", "baseline-dp"): (3392, 3370, 72987, 1908, 66),
    ("MM-small", "spawn"): (2432, 2480, 72070, 1352, 66),
    ("MM-small", "dtbl"): (5046, 3370, 72987, 3, 0),
    ("MM-small", "acs"): (3383, 3370, 72987, 1908, 66),
    ("MM-small", "consolidate"): (3903, 3370, 72987, 549, 332),
}


@pytest.fixture
def counts(monkeypatch):
    """Counts of calls into the core, gathered while the test runs."""
    counted = Counter()

    def count(owner, name, key, amount):
        original = owner.__dict__[name]

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counted[key] += amount(result)
            return result

        monkeypatch.setattr(owner, name, wrapper)

    count(EventQueue, "run", "events", lambda executed: executed)
    count(SMX, "add", "ctas", lambda _: 1)
    count(GMU, "submit", "gmu_kernels", lambda _: 1)
    count(LaunchUnit, "submit_batch", "launch_batches", lambda _: 1)
    return counted


@pytest.mark.parametrize("bench,scheme", sorted(PINNED))
def test_work_counts_are_pinned(counts, bench, scheme):
    stats = Runner().run(RunConfig(bench, scheme, seed=1)).stats
    assert (
        counts["events"],
        counts["ctas"],
        stats.l2_hits + stats.l2_misses,
        counts["gmu_kernels"],
        counts["launch_batches"],
    ) == PINNED[(bench, scheme)]
