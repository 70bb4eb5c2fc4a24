"""Strict-JSON round-trips for stats payloads with non-finite floats.

``json.dumps`` emits ``NaN``/``Infinity`` literals by default — not JSON.
The stats serializer tags non-finite floats (``{"$float": "nan"}``) so
``SimResult`` payloads survive ``allow_nan=False`` serialization (the
persistent store's contract) and decode back to the same values.
``kernels`` and ``trace`` are columnar, and only a column holding a
non-finite float is tagged.
"""

import json
import math
import sqlite3
from contextlib import closing
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.store import open_store
from repro.sim.engine import SimResult
from repro.sim.stats import (
    KernelRecord,
    SimStats,
    TraceSample,
    decode_json_floats,
    encode_json_floats,
)

#: Any float, with NaN and ±inf drawn often.
FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.floats(allow_nan=True, allow_infinity=True),
)
#: The four optional KernelRecord timestamps also take None.
MAYBE_FLOATS = st.one_of(st.none(), FLOATS)


def _stats_with(makespan=100.0, launch_times=(), exec_times=()):
    stats = SimStats()
    stats.makespan = makespan
    stats.launch_times = list(launch_times)
    stats.child_cta_exec_times = list(exec_times)
    return stats


def _roundtrip(stats):
    payload = json.loads(json.dumps(stats.to_dict(), allow_nan=False))
    return SimStats.from_dict(payload)


def _same(a, b):
    """NaN-aware equality that also tells ``0.0`` from ``-0.0``."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or repr(a) == repr(b)
    return type(a) is type(b) and a == b


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for got_rec, want_rec in zip(got, want):
        assert type(got_rec) is type(want_rec)
        for field in fields(want_rec):
            assert _same(
                getattr(got_rec, field.name), getattr(want_rec, field.name)
            ), (field.name, got_rec, want_rec)


class TestEncodeDecode:
    def test_tags_every_nonfinite(self):
        encoded = encode_json_floats(
            {"a": float("nan"), "b": [float("inf"), -float("inf"), 1.5]}
        )
        assert encoded == {
            "a": {"$float": "nan"},
            "b": [{"$float": "inf"}, {"$float": "-inf"}, 1.5],
        }

    def test_decode_inverts_encode(self):
        value = {"x": [1.0, float("inf")], "y": {"z": -float("inf")}}
        decoded = decode_json_floats(encode_json_floats(value))
        assert decoded == value
        nan_back = decode_json_floats({"$float": "nan"})
        assert isinstance(nan_back, float) and math.isnan(nan_back)

    def test_finite_payloads_untouched(self):
        value = {"a": 1, "b": [2.5, "three"], "c": None}
        assert encode_json_floats(value) == value
        assert decode_json_floats(value) == value

    def test_unknown_tag_passes_through(self):
        assert decode_json_floats({"$float": "bogus"}) == {"$float": "bogus"}

    def test_tuples_become_lists(self):
        assert encode_json_floats((1.0, float("nan"))) == [
            1.0, {"$float": "nan"},
        ]


class TestStatsRoundtrip:
    def test_nan_makespan(self):
        back = _roundtrip(_stats_with(makespan=float("nan")))
        assert math.isnan(back.makespan)

    def test_inf_launch_times(self):
        stats = _stats_with(launch_times=[1.0, float("inf"), float("nan")])
        back = _roundtrip(stats)
        assert back.launch_times[1] == float("inf")
        assert math.isnan(back.launch_times[2])

    @given(
        values=st.lists(
            st.floats(allow_nan=True, allow_infinity=True), max_size=20
        ),
        makespan=st.floats(allow_nan=True, allow_infinity=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_float_payload_roundtrips(self, values, makespan):
        stats = _stats_with(
            makespan=makespan, launch_times=values, exec_times=values
        )
        back = _roundtrip(stats)
        # Encoded dicts compare equal even for NaN entries (tags are
        # plain strings), so this covers every field at once.
        assert back.to_dict() == stats.to_dict()

    @given(
        stamps=st.lists(st.tuples(*[MAYBE_FLOATS] * 4), max_size=12),
        samples=st.lists(st.tuples(FLOATS, FLOATS), max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_record_columns_roundtrip(self, stamps, samples):
        stats = _stats_with()
        for kernel_id, times in enumerate(stamps):
            stats.kernels[kernel_id] = KernelRecord(
                kernel_id, f"k{kernel_id}", kernel_id > 0, 1, 4, -1, *times
            )
        stats.trace = [
            TraceSample(time, 2, 3, utilization)
            for time, utilization in samples
        ]
        back = _roundtrip(stats)
        assert list(back.kernels) == list(stats.kernels)
        _assert_same_records(
            list(back.kernels.values()), list(stats.kernels.values())
        )
        _assert_same_records(back.trace, stats.trace)

    def test_only_a_nonfinite_column_is_tagged(self):
        stats = _stats_with()
        stats.kernels = {
            0: KernelRecord(0, "root", False, 0, 8, 0, None, 0.0, 1.0, 9.5),
            1: KernelRecord(1, "child", True, 1, 2, 3, 2.0, 3.0, 4.0,
                            float("inf")),
        }
        stats.trace = [TraceSample(0.0, 1, 0, 0.5)]
        payload = stats.to_dict()
        kernels = payload["kernels"]
        assert list(kernels) == [f.name for f in fields(KernelRecord)]
        assert kernels["name"] == ["root", "child"]
        assert kernels["launch_call_time"] == [None, 2.0]
        assert kernels["completion_time"] == [9.5, {"$float": "inf"}]
        assert payload["trace"] == {
            "time": [0.0], "parent_ctas": [1], "child_ctas": [0],
            "utilization": [0.5],
        }
        back = SimStats.from_dict(json.loads(json.dumps(payload)))
        assert back.kernels == stats.kernels
        assert back.trace == stats.trace


class TestStoreRoundtrip:
    def test_nonfinite_result_survives_the_store(self, tmp_path):
        stats = _stats_with(
            makespan=float("nan"), launch_times=[float("inf")]
        )
        stats.kernels[7] = KernelRecord(
            7, "child", True, 1, 2, 0, float("nan"), 1.0, None, -float("inf")
        )
        stats.trace = [TraceSample(float("inf"), 0, 1, float("nan"))]
        result = SimResult("app", "policy", stats)
        store = open_store(tmp_path / "results.db")
        store.save("ab" + "0" * 62, result)
        with closing(sqlite3.connect(store.path)) as conn:
            (raw,) = conn.execute("SELECT payload FROM entries").fetchone()
        assert "NaN" not in raw and "Infinity" not in raw
        loaded = store.load("ab" + "0" * 62)
        assert math.isnan(loaded.stats.makespan)
        assert loaded.stats.launch_times == [float("inf")]
        assert loaded.stats.to_dict() == stats.to_dict()
