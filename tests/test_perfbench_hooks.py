"""The benchmark's per-layer wrappers must resolve against the program.

``perfbench/layers.py`` wraps methods found in each class's own
``__dict__``; a renamed or moved method would only fail inside the
benchmark.  This installs every wrapper, runs one small simulation
through them, and puts the originals back.  It also checks that the
benchmark's reference table and the golden corpus pin every makespan of
``repro.harness.bench.REFERENCE``.
"""

import gzip
import json
from pathlib import Path

import pytest

from repro.harness import schemes as sch
from repro.harness.bench import REFERENCE
from repro.sim.engine import GPUSimulator
from repro.sim.events import EventQueue
from repro.workloads.base import get_benchmark

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    return layers


def test_every_wrapped_name_resolves_and_uninstalls(layers, tmp_path):
    run = EventQueue.__dict__["run"]
    rec = layers.Recorder()
    try:
        layers.install_sim(rec)
        layers.install_serve(rec, str(tmp_path))
        bench = get_benchmark("GC-citation")
        sim = GPUSimulator(
            policy=sch.make_policy(sch.SchemeSpec.parse("spawn"), bench)
        )
        sim.run(bench.dp(1))
        rec.close()
    finally:
        rec.uninstall()
    assert EventQueue.__dict__["run"] is run
    assert rec.counts["events"] > 0
    assert rec.counts["gmu.kernels"] > 0
    for layer in ("events", "engine", "smx", "memory", "gmu"):
        assert rec.self_ns[layer] > 0, layer


def _golden_headers():
    for path in sorted(GOLDEN.glob("*.jsonl.gz")):
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            yield path.name, json.loads(handle.readline())


def test_every_reference_makespan_is_pinned_and_agrees():
    """Each ``REFERENCE`` pair is recorded at seed 1 in
    ``perfbench/references.json`` or a golden header, and every such
    record equals the ``REFERENCE`` makespan (simulates nothing)."""
    tables = json.loads((PERFBENCH / "references.json").read_text("utf-8"))
    records = {pair: [] for pair in REFERENCE}
    for workload, by_seed in tables.items():
        for pair, makespan in by_seed["1"].items():
            if pair in records:
                records[pair].append((workload, makespan))
    for name, header in _golden_headers():
        pair = f"{header['benchmark']}/{header['scheme']}"
        if pair in records and header["seed"] == 1:
            records[pair].append((name, header["makespan"]))
    for pair, ref in REFERENCE.items():
        assert records[pair], f"{pair} is pinned nowhere"
        for where, makespan in records[pair]:
            assert makespan == ref["makespan"], (pair, where)
