"""Observability layer: structured tracing, SPAWN decision audit, exporters.

* :mod:`repro.obs.tracer` — typed simulator events, an in-memory
  sink, and the zero-overhead disabled default;
* :mod:`repro.obs.audit` — per-decision SPAWN audit records joined with
  actual child completion times (controller prediction error);
* :mod:`repro.obs.export` — JSONL dumps and Chrome ``trace_event`` JSON
  (``chrome://tracing`` / Perfetto);
* :mod:`repro.obs.metrics` — the one metrics registry: counters and
  latency histograms with p50/p95/p99 extraction and a JSON snapshot,
  for the harness, the store and the serving layer.
"""

from repro.obs.audit import DecisionAudit, DecisionAuditRecord
from repro.obs.metrics import (
    METRICS,
    Counter,
    Histogram,
    MetricsRegistry,
    exact_quantile,
)
from repro.obs.export import (
    chrome_trace,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import (
    NULL_TRACER,
    ListSink,
    NullTracer,
    TraceEvent,
    Tracer,
    filter_events,
)

__all__ = [
    "DecisionAudit",
    "DecisionAuditRecord",
    "METRICS",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "exact_quantile",
    "chrome_trace",
    "read_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "NULL_TRACER",
    "ListSink",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "filter_events",
]
