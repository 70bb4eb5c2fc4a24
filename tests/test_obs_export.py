"""Tests for the JSONL and Chrome trace exporters (repro.obs.export)."""

import io
import json
import os

import pytest

from repro.harness import schemes as sch
from repro.obs.audit import DecisionAudit
from repro.obs.export import (
    PID_GMU,
    PID_HARNESS,
    PID_LAUNCH_UNIT,
    PID_SERVICE,
    PID_SMX,
    chrome_trace,
    read_jsonl,
    write_chrome_trace,
    write_json_atomic,
    write_jsonl,
)
from repro.obs.tracer import (
    CTA_DISPATCH,
    CTA_FINISH,
    HARNESS_RETRY,
    HWQ_BIND,
    LAUNCH_BATCH_SUBMIT,
    LAUNCH_DECISION,
    SERVICE_ADMIT,
    SERVICE_BATCH,
    SERVICE_CACHE_HIT,
    SERVICE_COMPLETE,
    SERVICE_QUARANTINE,
    SERVICE_SHED,
    SERVICE_SUBMIT,
    TraceEvent,
    Tracer,
)
from repro.sim.engine import GPUSimulator
from repro.workloads.base import get_benchmark


def traced_run(benchmark="GC-citation", scheme="spawn"):
    bench = get_benchmark(benchmark)
    tracer = Tracer()
    sim = GPUSimulator(
        policy=sch.make_policy(sch.SchemeSpec.parse(scheme), bench), tracer=tracer
    )
    sim.run(bench.dp(1))
    return tracer.events()


class TestJsonl:
    def test_round_trip_preserves_events(self, tmp_path):
        events = traced_run()
        path = str(tmp_path / "trace.jsonl")
        count = write_jsonl(events, path)
        assert count == len(events)
        loaded = read_jsonl(path)
        assert len(loaded) == len(events)
        for orig, back in zip(events, loaded):
            assert back.ts == orig.ts
            assert back.kind == orig.kind
            assert back.args == orig.args

    def test_file_object_and_blank_lines(self):
        events = [TraceEvent(1.0, CTA_DISPATCH, {"kernel_id": 0, "cta_index": 0})]
        buf = io.StringIO()
        write_jsonl(events, buf)
        buf.write("\n")  # trailing blank line must be tolerated
        buf.seek(0)
        loaded = read_jsonl(buf)
        assert len(loaded) == 1
        assert loaded[0].args == {"kernel_id": 0, "cta_index": 0}

    def test_each_line_is_valid_json(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        write_jsonl(traced_run()[:50], path)
        with open(path) as fh:
            for line in fh:
                obj = json.loads(line)
                assert "ts" in obj and "kind" in obj

    def test_audit_accepts_round_tripped_events(self, tmp_path):
        events = traced_run()
        path = str(tmp_path / "t.jsonl")
        write_jsonl(events, path)
        direct = DecisionAudit.from_events(events).stats()
        reloaded = DecisionAudit.from_events(read_jsonl(path)).stats()
        assert direct == reloaded


class TestChromeTrace:
    def test_document_structure(self):
        doc = chrome_trace(traced_run())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert isinstance(doc["traceEvents"], list)

    def test_per_smx_tracks_named(self):
        doc = chrome_trace(traced_run())
        names = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == PID_SMX
        ]
        labels = {e["args"]["name"] for e in names}
        assert len(labels) > 1
        assert all(label.startswith("SMX ") for label in labels)

    def test_process_metadata_for_all_components(self):
        doc = chrome_trace(traced_run())
        procs = {
            e["pid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert procs[PID_SMX] == "SMXs"
        assert procs[PID_GMU] == "GMU"
        assert procs[PID_LAUNCH_UNIT] == "Launch unit"

    def test_cta_slices_match_dispatch_finish_pairs(self):
        events = traced_run()
        doc = chrome_trace(events)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        finishes = [e for e in events if e.kind == CTA_FINISH]
        assert len(slices) == len(finishes) > 0
        for s in slices:
            assert s["dur"] >= 0
            assert s["pid"] == PID_SMX
            assert s["cat"] in ("parent", "child")

    def test_counters_emitted_for_gmu_and_launch_unit(self):
        events = traced_run()
        doc = chrome_trace(events)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        gmu = [e for e in counters if e["pid"] == PID_GMU]
        lu = [e for e in counters if e["pid"] == PID_LAUNCH_UNIT]
        assert any(e.kind == HWQ_BIND for e in events) and gmu
        assert any(e.kind == LAUNCH_BATCH_SUBMIT for e in events) and lu

    def test_decisions_are_instant_markers_with_payload(self):
        events = traced_run()
        doc = chrome_trace(events)
        markers = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        decisions = [e for e in events if e.kind == LAUNCH_DECISION]
        assert len(markers) == len(decisions) > 0
        predicted = [m for m in markers if "t_child" in m["args"]]
        assert predicted, "spawn markers should carry the prediction payload"
        assert all(m["name"].startswith("decision:") for m in markers)

    def test_unmatched_dispatch_is_skipped(self):
        # A finish without its dispatch (ring-buffer truncation) is dropped
        # rather than crashing or producing a negative-duration slice.
        finish_only = [
            TraceEvent(10.0, CTA_FINISH, {"kernel_id": 1, "cta_index": 0})
        ]
        doc = chrome_trace(finish_only)
        assert [e for e in doc["traceEvents"] if e["ph"] == "X"] == []

    def test_write_chrome_trace_valid_json(self, tmp_path):
        path = str(tmp_path / "trace.json")
        count = write_chrome_trace(traced_run(), path)
        with open(path) as fh:
            doc = json.load(fh)
        assert len(doc["traceEvents"]) == count > 0


def _service_event(ts, kind, **args):
    return TraceEvent(ts, kind, {"benchmark": "MM-small", "scheme": "spawn", **args})


class TestServiceTrack:
    """service.* / harness.* wall-clock events get their own tracks."""

    def _batched_request(self, base=1000.0):
        return [
            _service_event(base + 0.0, SERVICE_SUBMIT, seed=1),
            _service_event(base + 0.0, SERVICE_ADMIT, seed=1),
            _service_event(base + 0.5, SERVICE_COMPLETE, seed=1),
        ]

    def test_admitted_request_becomes_one_slice(self):
        doc = chrome_trace(self._batched_request())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 1
        s = slices[0]
        assert s["pid"] == PID_SERVICE
        assert s["tid"] == 1  # first request lane
        assert s["name"] == "batch:MM-small/spawn"
        assert s["ts"] == 0  # rebased to the wall epoch
        assert s["dur"] == pytest.approx(0.5e6)  # seconds -> microseconds

    def test_concurrent_requests_spread_over_lanes_and_reuse_them(self):
        events = [
            _service_event(1000.0, SERVICE_SUBMIT, seed=1),
            _service_event(1000.0, SERVICE_ADMIT, seed=1),
            _service_event(1000.1, SERVICE_SUBMIT, seed=2, scheme="flat"),
            _service_event(1000.1, SERVICE_ADMIT, seed=2, scheme="flat"),
            _service_event(1000.5, SERVICE_COMPLETE, seed=1),
            _service_event(1000.6, SERVICE_COMPLETE, seed=2, scheme="flat"),
            # Third request arrives after lane 1 freed: reuses it.
            _service_event(1001.0, SERVICE_SUBMIT, seed=3),
            _service_event(1001.0, SERVICE_ADMIT, seed=3),
            _service_event(1001.2, SERVICE_COMPLETE, seed=3),
        ]
        doc = chrome_trace(events)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [s["tid"] for s in slices] == [1, 2, 1]
        lane_names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
            and e["pid"] == PID_SERVICE
        }
        assert lane_names == {"batches", "request lane 1", "request lane 2"}

    def test_cache_hit_and_shed_close_the_submit(self):
        events = [
            _service_event(1000.0, SERVICE_SUBMIT, seed=1),
            _service_event(1000.001, SERVICE_CACHE_HIT, seed=1),
            _service_event(1000.1, SERVICE_SUBMIT, seed=2),
            _service_event(1000.1, SERVICE_SHED, seed=2),
        ]
        doc = chrome_trace(events)
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert names == [
            "cache_hit:MM-small/spawn", "shed:MM-small/spawn",
        ]

    def test_quarantine_renames_the_slice(self):
        events = [
            _service_event(1000.0, SERVICE_SUBMIT, seed=1),
            _service_event(1000.0, SERVICE_ADMIT, seed=1),
            _service_event(1000.3, SERVICE_QUARANTINE, seed=1),
        ]
        doc = chrome_trace(events)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slices[0]["name"] == "quarantine:MM-small/spawn"

    def test_batch_dispatch_is_backdated_on_tid_zero(self):
        events = self._batched_request() + [
            _service_event(1000.5, SERVICE_BATCH, size=3, seconds=0.4),
        ]
        doc = chrome_trace(events)
        batch = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["tid"] == 0 and e["pid"] == PID_SERVICE
        ]
        assert len(batch) == 1
        assert batch[0]["name"] == "batch[3]"
        # The batch event fires at completion; the slice starts earlier.
        assert batch[0]["ts"] == pytest.approx(0.1e6)
        assert batch[0]["dur"] == pytest.approx(0.4e6)

    def test_harness_events_are_instants_on_their_own_track(self):
        events = self._batched_request() + [
            TraceEvent(1000.2, HARNESS_RETRY, {"attempt": 2}),
        ]
        doc = chrome_trace(events)
        instants = [
            e for e in doc["traceEvents"]
            if e["ph"] == "i" and e["pid"] == PID_HARNESS
        ]
        assert len(instants) == 1
        assert instants[0]["name"] == "retry"
        procs = {
            e["pid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert procs[PID_HARNESS] == "Harness"
        assert procs[PID_SERVICE] == "Service"

    def test_no_service_metadata_without_service_events(self):
        doc = chrome_trace(traced_run())
        pids = {
            e["pid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert PID_SERVICE not in pids
        assert PID_HARNESS not in pids

    def test_sim_and_wall_events_coexist_and_serialize(self):
        events = traced_run()[:100] + self._batched_request()
        doc = chrome_trace(events)
        json.dumps(doc)  # whole document stays JSON-serializable
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert PID_SERVICE in pids
        assert PID_SMX in pids

    def test_live_service_run_renders_slices(self):
        # End-to-end: a real traced service drive produces service slices.
        import asyncio

        from repro.harness.runner import Runner
        from repro.service import ServiceConfig, SimulationService, TrafficRequest
        from repro.service.traffic import drive_service

        tracer = Tracer()

        async def go():
            service = SimulationService(
                Runner(), config=ServiceConfig(jobs=2), tracer=tracer
            )
            requests = [
                TrafficRequest(benchmark="MM-small", scheme="flat", seed=s)
                for s in (1, 2, 1)
            ]
            async with service:
                await drive_service(service, requests)

        asyncio.run(go())
        doc = chrome_trace(tracer.events())
        service_slices = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["pid"] == PID_SERVICE
        ]
        assert service_slices
        assert all(s["dur"] >= 0 for s in service_slices)
        json.dumps(doc)


class TestWriteJsonAtomic:
    """``repro serve --stats-json`` must never leave a torn report: the
    payload is staged in a same-directory temp file and published with
    one ``os.replace`` (ISSUE 10 satellite)."""

    def test_writes_sorted_parseable_json(self, tmp_path):
        path = tmp_path / "stats.json"
        write_json_atomic({"b": 1, "a": {"nested": True}}, path)
        text = path.read_text()
        assert json.loads(text) == {"b": 1, "a": {"nested": True}}
        assert text.index('"a"') < text.index('"b"')  # sort_keys
        assert text.endswith("\n")
        assert list(tmp_path.iterdir()) == [path]  # no temp droppings

    def test_overwrites_previous_report(self, tmp_path):
        path = tmp_path / "stats.json"
        write_json_atomic({"version": 1}, path)
        write_json_atomic({"version": 2}, path)
        assert json.loads(path.read_text()) == {"version": 2}

    def test_kill_mid_write_leaves_previous_report_intact(
        self, tmp_path, monkeypatch
    ):
        """A kill while the temp file is being written (simulated as
        KeyboardInterrupt after a partial write) must leave the
        published path untouched and clean up the temp file."""
        path = tmp_path / "stats.json"
        write_json_atomic({"version": 1}, path)
        real_fdopen = os.fdopen

        class DiesMidWrite:
            def __init__(self, handle):
                self._handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._handle.close()

            def write(self, text):
                self._handle.write(text[: len(text) // 2])
                raise KeyboardInterrupt("killed mid-write")

        monkeypatch.setattr(
            "repro.obs.export.os.fdopen",
            lambda fd, *args, **kwargs: DiesMidWrite(
                real_fdopen(fd, *args, **kwargs)
            ),
        )
        with pytest.raises(KeyboardInterrupt):
            write_json_atomic({"version": 2}, path)
        assert json.loads(path.read_text()) == {"version": 1}
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_publish_cleans_up_the_temp_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "stats.json"
        write_json_atomic({"version": 1}, path)

        def refuse(src, dst):
            raise OSError("injected replace failure")

        monkeypatch.setattr("repro.obs.export.os.replace", refuse)
        with pytest.raises(OSError):
            write_json_atomic({"version": 2}, path)
        assert json.loads(path.read_text()) == {"version": 1}
        assert list(tmp_path.iterdir()) == [path]
