"""Tests for seed replication."""

import pytest

from repro.errors import HarnessError
from repro.harness.replication import SchemeStats, replicate

FAST = "GC-citation"


class TestSchemeStats:
    def test_statistics(self):
        stats = SchemeStats(scheme="s", speedups=(1.0, 2.0, 3.0))
        assert stats.mean == 2.0
        assert stats.min == 1.0
        assert stats.max == 3.0
        assert stats.std == pytest.approx(1.0)

    def test_single_seed_std_zero(self):
        assert SchemeStats(scheme="s", speedups=(1.5,)).std == 0.0

    def test_always_above(self):
        stats = SchemeStats(scheme="s", speedups=(1.2, 1.4))
        assert stats.always_above(1.0)
        assert not stats.always_above(1.3)


class TestReplicate:
    @pytest.fixture(scope="class")
    def replication(self):
        return replicate(FAST, schemes=("baseline-dp", "spawn"), seeds=(1, 2))

    def test_covers_every_scheme_and_seed(self, replication):
        assert set(replication.stats) == {"baseline-dp", "spawn"}
        assert len(replication.scheme("spawn").speedups) == 2

    def test_spawn_beats_baseline_on_all_seeds(self, replication):
        assert replication.consistently_ordered("spawn", "baseline-dp")

    def test_unknown_scheme_raises(self, replication):
        with pytest.raises(HarnessError):
            replication.scheme("nope")

    def test_validation(self):
        with pytest.raises(HarnessError):
            replicate(FAST, seeds=())
        with pytest.raises(HarnessError):
            replicate(FAST, schemes=())
