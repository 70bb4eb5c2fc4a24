"""Trace exporters: JSONL event dumps and Chrome ``trace_event`` JSON.

Two formats, two audiences:

* :func:`write_jsonl` — one JSON object per line, the whole structured
  event stream verbatim.  Greppable, streamable, loadable back with
  :func:`read_jsonl` for offline analysis (the decision audit accepts the
  round-tripped events).
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` format consumed by ``chrome://tracing`` and Perfetto.
  CTA residencies become duration events on one track per SMX; the GMU
  contributes HWQ-occupancy and pending-kernel counter tracks; the launch
  unit contributes busy-slot/backlog counters; launch decisions appear as
  instant events on their SMX's track, carrying the SPAWN prediction
  payload in ``args`` so hovering a decision shows Equation 1 vs 2.

Timestamps: the simulator clock is in GPU cycles; the Chrome format wants
microseconds.  We write cycles as-if-microseconds (1 cycle = 1 us) — the
viewer's timeline is then labelled in cycles, which is what you want to
read anyway.

``service.*`` and ``harness.*`` events are different: they are stamped
with *wall-clock seconds* (``time.perf_counter``), not simulated cycles.
They get their own process tracks ("Service", "Harness"), their
timestamps are rebased to the first wall-clock event and scaled to real
microseconds, and each service request renders as a duration slice from
its submit to its terminal event (cache hit, coalesce, shed, complete,
or quarantine) on a free request lane — overlapping in-flight requests
occupy separate lanes, batch dispatches render on lane 0.
"""

from __future__ import annotations

import heapq
import json
import os
import tempfile
from pathlib import Path
from typing import IO, Dict, Iterable, List, Tuple, Union

from repro.obs.tracer import (
    CTA_DISPATCH,
    CTA_FINISH,
    HWQ_BIND,
    HWQ_RELEASE,
    KERNEL_ARRIVAL,
    LAUNCH_BATCH_ARRIVE,
    LAUNCH_BATCH_SERVICE,
    LAUNCH_BATCH_SUBMIT,
    LAUNCH_DECISION,
    SERVICE_ADMIT,
    SERVICE_BATCH,
    SERVICE_CACHE_HIT,
    SERVICE_COALESCE,
    SERVICE_COMPLETE,
    SERVICE_QUARANTINE,
    SERVICE_SHED,
    SERVICE_SUBMIT,
    TraceEvent,
)

PathOrFile = Union[str, IO[str]]

#: Chrome trace process ids, one per hardware component group; the
#: serving/harness layers (wall-clock stamped) get their own processes.
PID_SMX = 0
PID_GMU = 1
PID_LAUNCH_UNIT = 2
PID_SERVICE = 3
PID_HARNESS = 4

#: Wall-clock seconds -> trace microseconds.
_WALL_SCALE = 1e6

#: Submit-time terminal kinds: the submission's whole story happened
#: inside one ``submit`` call, so its slice closes immediately.
_SERVICE_IMMEDIATE = frozenset(
    {SERVICE_CACHE_HIT, SERVICE_COALESCE, SERVICE_SHED}
)

#: Kinds that close an admitted request slice.
_SERVICE_TERMINAL = frozenset({SERVICE_COMPLETE, SERVICE_QUARANTINE})


def _open_for_write(dest: PathOrFile):
    """(file, should_close) for a path or an already-open file object."""
    if isinstance(dest, str):
        return open(dest, "w", encoding="utf-8"), True
    return dest, False


def write_json_atomic(payload: object, path) -> Path:
    """Serialize ``payload`` to ``path`` via temp file + ``os.replace``.

    For report files (``repro serve --stats-json``): the JSON is fully
    serialized before the disk is touched, written to a temp file in the
    destination directory, and renamed into place — a reader (or a crash
    mid-write) can never observe a truncated file.
    Returns the destination path.
    """
    path = Path(path)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp",
        dir=path.parent if str(path.parent) else ".",
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------
def write_jsonl(events: Iterable[TraceEvent], dest: PathOrFile) -> int:
    """Write one JSON object per event; returns the number written."""
    fh, should_close = _open_for_write(dest)
    try:
        count = 0
        for event in events:
            fh.write(json.dumps(event.to_dict(), sort_keys=True))
            fh.write("\n")
            count += 1
        return count
    finally:
        if should_close:
            fh.close()


def read_jsonl(src: PathOrFile) -> List[TraceEvent]:
    """Load a JSONL dump back into :class:`TraceEvent` objects."""
    if isinstance(src, str):
        fh = open(src, "r", encoding="utf-8")
        should_close = True
    else:
        fh, should_close = src, False
    try:
        events = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            ts = obj.pop("ts")
            kind = obj.pop("kind")
            events.append(TraceEvent(ts, kind, obj))
        return events
    finally:
        if should_close:
            fh.close()


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------
def _metadata(pid: int, name: str) -> Dict[str, object]:
    return {
        "ph": "M",
        "name": "process_name",
        "pid": pid,
        "tid": 0,
        "args": {"name": name},
    }


def _thread_name(pid: int, tid: int, name: str) -> Dict[str, object]:
    return {
        "ph": "M",
        "name": "thread_name",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def _counter(pid: int, ts: float, name: str, values: Dict[str, float]):
    return {"ph": "C", "pid": pid, "tid": 0, "ts": ts, "name": name, "args": values}


def chrome_trace(events: Iterable[TraceEvent]) -> Dict[str, object]:
    """Build a ``trace_event`` document (``{"traceEvents": [...]}``).

    One duration track per SMX, counter tracks for the GMU and launch
    unit, instant markers for launch decisions.
    """
    trace: List[Dict[str, object]] = [
        _metadata(PID_SMX, "SMXs"),
        _metadata(PID_GMU, "GMU"),
        _metadata(PID_LAUNCH_UNIT, "Launch unit"),
    ]
    open_ctas: Dict[Tuple[int, int], TraceEvent] = {}
    smx_seen: Dict[int, None] = {}
    wall_events: List[TraceEvent] = []
    for event in events:
        kind = event.kind
        args = event.args
        if kind.startswith("service.") or kind.startswith("harness."):
            # Wall-clock stamped: rendered after the simulated tracks,
            # rebased to their own epoch (see _wall_clock_tracks).
            wall_events.append(event)
            continue
        if kind == CTA_DISPATCH:
            open_ctas[(args["kernel_id"], args["cta_index"])] = event
            smx_seen.setdefault(args["smx"], None)
        elif kind == CTA_FINISH:
            start = open_ctas.pop((args["kernel_id"], args["cta_index"]), None)
            if start is None:
                continue  # a truncated stream lost the dispatch; skip the slice
            trace.append(
                {
                    "ph": "X",
                    "pid": PID_SMX,
                    "tid": start.args["smx"],
                    "ts": start.ts,
                    "dur": max(event.ts - start.ts, 0.0),
                    "name": f"{start.args['kernel']}#{args['cta_index']}",
                    "cat": "child" if start.args.get("is_child") else "parent",
                    "args": {
                        "kernel_id": args["kernel_id"],
                        "cta_index": args["cta_index"],
                    },
                }
            )
        elif kind in (HWQ_BIND, HWQ_RELEASE):
            trace.append(
                _counter(PID_GMU, event.ts, "HWQ occupancy", {"bound": args["bound"]})
            )
        elif kind == KERNEL_ARRIVAL:
            if "pending" in args:
                trace.append(
                    _counter(
                        PID_GMU, event.ts, "pending kernels",
                        {"pending": args["pending"]},
                    )
                )
        elif kind in (LAUNCH_BATCH_SUBMIT, LAUNCH_BATCH_SERVICE, LAUNCH_BATCH_ARRIVE):
            trace.append(
                _counter(
                    PID_LAUNCH_UNIT,
                    event.ts,
                    "launch unit",
                    {"busy_slots": args["busy_slots"], "backlog": args["backlog"]},
                )
            )
        elif kind == LAUNCH_DECISION:
            marker = {
                "ph": "i",
                "s": "t",
                "pid": PID_SMX,
                "tid": args.get("smx", 0),
                "ts": event.ts,
                "name": f"decision:{args['verdict']}",
                "cat": "decision",
                "args": {
                    k: v
                    for k, v in args.items()
                    if k not in ("smx",) and v is not None
                },
            }
            smx_seen.setdefault(args.get("smx", 0), None)
            trace.append(marker)
    for smx in sorted(smx_seen):
        trace.append(_thread_name(PID_SMX, smx, f"SMX {smx}"))
    if wall_events:
        _wall_clock_tracks(wall_events, trace)
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def _wall_clock_tracks(
    wall_events: List[TraceEvent], trace: List[Dict[str, object]]
) -> None:
    """Render ``service.*`` / ``harness.*`` events onto their own tracks.

    Timestamps are wall-clock seconds; they are rebased so the first
    wall-clock event sits at t=0 and scaled to microseconds.  Each
    service request becomes one duration slice from its submit to its
    terminal event; concurrently in-flight requests are spread over
    request lanes (lowest free lane wins, so a quiet service stays on
    one line).  Batch dispatches render on lane 0; harness recovery
    actions are instant markers on the Harness track.
    """
    epoch = min(event.ts for event in wall_events)

    def us(ts: float) -> float:
        return (ts - epoch) * _WALL_SCALE

    def public_args(args: Dict[str, object]) -> Dict[str, object]:
        return {k: v for k, v in args.items() if v is not None}

    free_lanes: List[int] = []
    next_lane = 1
    lanes_used = 0

    def alloc_lane() -> int:
        nonlocal next_lane, lanes_used
        if free_lanes:
            lane = heapq.heappop(free_lanes)
        else:
            lane = next_lane
            next_lane += 1
        lanes_used = max(lanes_used, lane)
        return lane

    # The most recent SERVICE_SUBMIT not yet claimed by a routing event.
    # Submission routing is synchronous (submit -> its verdict emits
    # before any other submit can run on the event loop), so last-wins
    # matching is exact, not heuristic.
    pending_submit = None
    # (benchmark, scheme) -> FIFO of (submit_event, lane) for admitted
    # jobs awaiting their COMPLETE/QUARANTINE.
    open_requests: Dict[Tuple[str, str], List] = {}
    service_seen = False
    harness_seen = False

    def close_slice(submit, lane, name, end_ts, args):
        heapq.heappush(free_lanes, lane)
        trace.append(
            {
                "ph": "X",
                "pid": PID_SERVICE,
                "tid": lane,
                "ts": us(submit.ts),
                "dur": max(us(end_ts) - us(submit.ts), 0.0),
                "name": name,
                "cat": "service",
                "args": args,
            }
        )

    for event in wall_events:
        kind = event.kind
        args = event.args
        if kind.startswith("harness."):
            harness_seen = True
            trace.append(
                {
                    "ph": "i",
                    "s": "t",
                    "pid": PID_HARNESS,
                    "tid": 0,
                    "ts": us(event.ts),
                    "name": kind.split(".", 1)[1],
                    "cat": "harness",
                    "args": public_args(args),
                }
            )
            continue
        service_seen = True
        pair = f"{args.get('benchmark')}/{args.get('scheme')}"
        key = (args.get("benchmark"), args.get("scheme"))
        if kind == SERVICE_SUBMIT:
            pending_submit = event
        elif kind in _SERVICE_IMMEDIATE:
            suffix = kind.split(".", 1)[1]
            if pending_submit is not None:
                close_slice(
                    pending_submit, alloc_lane(), f"{suffix}:{pair}",
                    event.ts, public_args(args),
                )
                pending_submit = None
            else:  # a truncated stream lost the submit
                trace.append(
                    {
                        "ph": "i", "s": "t", "pid": PID_SERVICE, "tid": 0,
                        "ts": us(event.ts), "name": f"{suffix}:{pair}",
                        "cat": "service", "args": public_args(args),
                    }
                )
        elif kind == SERVICE_ADMIT:
            if pending_submit is not None:
                open_requests.setdefault(key, []).append(
                    (pending_submit, alloc_lane())
                )
                pending_submit = None
        elif kind in _SERVICE_TERMINAL:
            waiting = open_requests.get(key)
            if waiting:
                submit, lane = waiting.pop(0)
                suffix = (
                    "quarantine" if kind == SERVICE_QUARANTINE else "batch"
                )
                close_slice(
                    submit, lane, f"{suffix}:{pair}",
                    event.ts, public_args(args),
                )
            else:  # orphan terminal (truncated stream): keep it visible
                trace.append(
                    {
                        "ph": "i", "s": "t", "pid": PID_SERVICE, "tid": 0,
                        "ts": us(event.ts),
                        "name": f"{kind.split('.', 1)[1]}:{pair}",
                        "cat": "service", "args": public_args(args),
                    }
                )
        elif kind == SERVICE_BATCH:
            seconds = float(args.get("seconds", 0.0))
            trace.append(
                {
                    "ph": "X",
                    "pid": PID_SERVICE,
                    "tid": 0,
                    "ts": us(event.ts - seconds),
                    "dur": max(seconds * _WALL_SCALE, 0.0),
                    "name": f"batch[{args.get('size')}]",
                    "cat": "service",
                    "args": public_args(args),
                }
            )
    # In-flight requests at stream end have no terminal event; they are
    # dropped, matching the CTA exporter's treatment of dangling opens.
    if service_seen:
        trace.append(_metadata(PID_SERVICE, "Service"))
        trace.append(_thread_name(PID_SERVICE, 0, "batches"))
        for lane in range(1, lanes_used + 1):
            trace.append(_thread_name(PID_SERVICE, lane, f"request lane {lane}"))
    if harness_seen:
        trace.append(_metadata(PID_HARNESS, "Harness"))
        trace.append(_thread_name(PID_HARNESS, 0, "recovery"))


def write_chrome_trace(events: Iterable[TraceEvent], dest: PathOrFile) -> int:
    """Write the Chrome trace JSON; returns the number of trace entries."""
    doc = chrome_trace(events)
    fh, should_close = _open_for_write(dest)
    try:
        json.dump(doc, fh)
        return len(doc["traceEvents"])
    finally:
        if should_close:
            fh.close()
