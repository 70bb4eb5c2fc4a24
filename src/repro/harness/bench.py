"""Makespans the package pins for eight benchmark/scheme pairs at seed 1.

This table is kept for two readers.  ``perfbench/make_references.py``
cross-checks it and refuses to write a ``perfbench/references.json``
that disagrees with it, and ``tests/test_perfbench_hooks.py`` asserts
that every pair is also recorded, with the same makespan, in
``perfbench/references.json`` or a ``tests/golden/`` header.  Makespans
are a contract: a change that moves one must say so and update this
table, ``perfbench/references.json`` and the golden corpus together.
"""

from __future__ import annotations

from typing import Dict

#: Seed-1 makespan of each ``benchmark/scheme`` pair.
REFERENCE: Dict[str, Dict[str, float]] = {
    "SA-thaliana/spawn": {"makespan": 160831.29795496378},
    "SA-thaliana/baseline-dp": {"makespan": 212893.52118260306},
    "GC-graph500/baseline-dp": {"makespan": 1430960.9621359222},
    "JOIN-uniform/spawn": {"makespan": 208378.7464706742},
    "BFS-graph500/spawn": {"makespan": 196628.69311875236},
    "SSSP-citation/consolidate": {"makespan": 209957.2411666201},
    "SSSP-citation/aggregate:block": {"makespan": 213973.54846833518},
    "SSSP-citation/acs": {"makespan": 493845.2103887623},
}
