"""Tests for repro.obs.metrics: instruments, registry, JSON snapshot.

The headline property: a Histogram's p50/p95/p99 always lands within one
bucket width of the exact nearest-rank quantile computed over the raw
sorted samples (hypothesis pins this over arbitrary sample sets).
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_IO_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    exact_quantile,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestHistogramBasics:
    def test_bounds_must_be_positive_increasing(self):
        with pytest.raises(ValueError):
            Histogram([])
        with pytest.raises(ValueError):
            Histogram([0.0, 1.0])
        with pytest.raises(ValueError):
            Histogram([1.0, 1.0])
        with pytest.raises(ValueError):
            Histogram([2.0, 1.0])

    def test_rejects_negative_observations(self):
        with pytest.raises(ValueError):
            Histogram([1.0]).observe(-0.1)

    def test_counts_land_in_the_right_buckets(self):
        hist = Histogram([1.0, 2.0])
        for value in (0.5, 1.0, 1.5, 5.0):
            hist.observe(value)
        # (0,1], (1,2], overflow
        assert hist.counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(8.0)
        assert hist.min == 0.5
        assert hist.max == 5.0

    def test_quantile_of_empty_histogram_is_none(self):
        hist = Histogram([1.0])
        assert hist.quantile(0.5) is None
        assert hist.percentiles() == {}
        assert hist.summary() == {"count": 0}

    def test_quantile_validates_range(self):
        hist = Histogram([1.0])
        hist.observe(0.5)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_quantile_clamped_to_observed_extremes(self):
        hist = Histogram([10.0])
        hist.observe(2.0)
        hist.observe(3.0)
        for q in (0.0, 0.5, 1.0):
            estimate = hist.quantile(q)
            assert 2.0 <= estimate <= 3.0

    def test_overflow_bucket_upper_edge_is_observed_max(self):
        hist = Histogram([1.0])
        hist.observe(42.0)
        assert hist.bucket_edges(1) == (1.0, 42.0)
        assert hist.quantile(1.0) == pytest.approx(42.0)

    def test_summary_has_all_digest_keys(self):
        hist = Histogram(DEFAULT_LATENCY_BUCKETS)
        for value in (0.001, 0.01, 0.1):
            hist.observe(value)
        summary = hist.summary()
        assert set(summary) == {
            "count", "sum", "mean", "min", "max", "p50", "p95", "p99",
        }


class TestExactQuantile:
    def test_matches_nearest_rank_selection(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert exact_quantile(samples, 0.0) == 1.0
        assert exact_quantile(samples, 0.5) == 3.0
        assert exact_quantile(samples, 1.0) == 5.0

    def test_empty_and_out_of_range_raise(self):
        with pytest.raises(ValueError):
            exact_quantile([], 0.5)
        with pytest.raises(ValueError):
            exact_quantile([1.0], 2.0)


def _bucket_width_at(hist, value):
    lower, upper = hist.bucket_edges(hist._bucket_index(value))
    return upper - lower


class TestQuantileAccuracyProperty:
    """estimate and exact reference always share one bucket interval."""

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(
            st.floats(
                min_value=0.0, max_value=120.0,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=80,
        ),
        q=st.sampled_from([0.5, 0.9, 0.95, 0.99, 0.0, 1.0]),
    )
    def test_within_one_bucket_width(self, samples, q):
        hist = Histogram(DEFAULT_LATENCY_BUCKETS)
        for value in samples:
            hist.observe(value)
        estimate = hist.quantile(q)
        exact = exact_quantile(samples, q)
        width = _bucket_width_at(hist, exact)
        assert abs(estimate - exact) <= width + 1e-9
        # And the clamp guarantee: never outside the observed range.
        assert min(samples) - 1e-12 <= estimate <= max(samples) + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        samples=st.lists(
            st.floats(
                min_value=0.0, max_value=2.0,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=50,
        )
    )
    def test_headline_percentiles_within_one_bucket(self, samples):
        hist = Histogram(DEFAULT_IO_BUCKETS)
        for value in samples:
            hist.observe(value)
        percentiles = hist.percentiles()
        for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            exact = exact_quantile(samples, q)
            width = _bucket_width_at(hist, exact)
            assert abs(percentiles[name] - exact) <= width + 1e-9


class TestRegistry:
    def test_instruments_are_created_once_and_shared(self):
        registry = MetricsRegistry()
        a = registry.counter("requests", route="cached")
        b = registry.counter("requests", route="cached")
        assert a is b
        assert registry.counter("requests", route="inline") is not a
        assert len(registry) == 2

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_histogram_buckets_respected_on_first_use(self):
        registry = MetricsRegistry()
        hist = registry.histogram("io", buckets=(0.1, 1.0))
        assert hist.bounds == (0.1, 1.0)

    def test_clear_empties_the_registry(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.clear()
        assert len(registry) == 0

    def test_to_dict_sections_and_keys(self):
        registry = MetricsRegistry()
        registry.counter("req", route="batch").inc(3)
        registry.histogram("lat").observe(0.02)
        payload = registry.to_dict()
        assert payload["counters"] == {"req{route=batch}": 3.0}
        assert payload["histograms"]["lat"]["count"] == 1
        json.dumps(payload)  # JSON-ready, no exotic values


class TestDefaultBucketLadders:
    def test_ladders_are_strictly_increasing(self):
        for ladder in (DEFAULT_LATENCY_BUCKETS, DEFAULT_IO_BUCKETS):
            assert all(a < b for a, b in zip(ladder, ladder[1:]))
            assert all(b > 0 for b in ladder)
            assert not math.isinf(ladder[-1])
