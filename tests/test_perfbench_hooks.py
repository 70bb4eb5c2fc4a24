"""The benchmark's per-layer wrappers must resolve against the program.

``perfbench/layers.py`` wraps methods found in each class's own
``__dict__``; a renamed or moved method would only fail inside the
benchmark.  This installs every wrapper, runs one small simulation
through them, and puts the originals back.
"""

from pathlib import Path

import pytest

from repro.harness import schemes as sch
from repro.sim.engine import GPUSimulator
from repro.sim.events import EventQueue
from repro.workloads.base import get_benchmark

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
