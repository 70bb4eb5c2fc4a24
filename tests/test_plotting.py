"""Tests for the terminal plotting helpers."""

import pytest

from repro.errors import HarnessError
from repro.harness.plotting import bar_chart, timeline


class TestBarChart:
    def test_bars_scale_with_values(self):
        text = bar_chart(["a", "b"], [1.0, 2.0], width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_reference_marker(self):
        text = bar_chart(["a"], [2.0], width=10, reference=1.0)
        assert "|" in text

    def test_title_prepended(self):
        assert bar_chart(["a"], [1.0], title="t").splitlines()[0] == "t"

    def test_validation(self):
        with pytest.raises(HarnessError):
            bar_chart(["a"], [1.0, 2.0])
        with pytest.raises(HarnessError):
            bar_chart([], [])
        with pytest.raises(HarnessError):
            bar_chart(["a"], [0.0])


class TestTimeline:
    def test_renders_axis_and_columns(self):
        text = timeline([(0.0, 1.0), (50.0, 4.0), (100.0, 2.0)], buckets=20, height=4)
        assert "+--" in text
        assert "#" in text
        assert "100 cycles" in text

    def test_zero_series(self):
        text = timeline([(0.0, 0.0), (10.0, 0.0)])
        assert "flat zero" in text

    def test_empty_rejected(self):
        with pytest.raises(HarnessError):
            timeline([])

    def test_bucket_keeps_peak(self):
        # Two samples land in one bucket; the peak must survive.
        text = timeline([(0.0, 1.0), (0.5, 9.0), (100.0, 1.0)], buckets=10, height=3)
        assert text.splitlines()[0].strip().startswith("9.0")
