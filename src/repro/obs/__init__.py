"""Observability: metrics, span tracing, and estimate-explain.

The cross-cutting instrumentation layer every long-running subsystem
reports through:

* :class:`MetricsRegistry` — thread-safe labelled :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` metrics with a JSON snapshot and a
  Prometheus text exporter; :func:`default_registry` is the
  process-global instance the instrumented subsystems (XBUILD, the
  estimators, the serving tier, the XML parser) record into;
* :class:`SpanTracer` — context-manager span tracing with monotonic
  clocks, per-thread parent/child nesting, and a :class:`JsonlSink`;
  :data:`NULL_TRACER` is the shared disabled instance, so un-traced hot
  paths pay a single ``if``;
* :class:`ExplainRecorder` / :func:`render_explanation` — per-estimate
  expansion trails, histogram lookups, and the serving tier chosen
  (``repro estimate --explain``);
* :mod:`repro.obs.export` — exposition formats and the export-schema
  validators (metrics and serve-eval envelopes) behind
  ``python -m repro.obs`` (the CI smoke gate);
* :mod:`repro.obs.trace_report` — ``repro trace-report``: aggregate a
  ``--trace`` JSONL file into per-span-kind timings and the critical
  path.

See README.md "Observability" and DESIGN.md S24.
"""

from .explain import ExplainEvent, ExplainRecorder, render_explanation
from .export import (
    SERVE_EVAL_SCHEMA,
    load_payload,
    render_prometheus,
    validate_metrics_payload,
    validate_payload,
    validate_serve_eval_payload,
    write_export,
)
from .metrics import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    default_registry,
    reset_default_registry,
)
from .trace_report import (
    KindStats,
    TraceReport,
    load_spans,
    render_trace_report,
    trace_report,
)
from .tracing import NULL_TRACER, JsonlSink, Span, SpanTracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "ExplainEvent",
    "ExplainRecorder",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "KindStats",
    "METRICS_SCHEMA",
    "MetricsError",
    "MetricsRegistry",
    "NULL_TRACER",
    "SERVE_EVAL_SCHEMA",
    "Span",
    "SpanTracer",
    "TraceReport",
    "default_registry",
    "load_payload",
    "load_spans",
    "render_explanation",
    "render_prometheus",
    "render_trace_report",
    "reset_default_registry",
    "trace_report",
    "validate_metrics_payload",
    "validate_payload",
    "validate_serve_eval_payload",
    "write_export",
]
