"""repro.telemetry — unified observability: metrics, spans, hotspots, exporters.

The runtime analogue of the paper's evaluation machinery (Sec. 5, Fig. 8):
labeled metrics and span traces timestamped from the *sim clock* (never the
wall clock, which no library module reads), per-node hotspot accounting
with a rolling imbalance-factor series, and deterministic JSONL/Prometheus
exporters, all behind a disabled-by-default global whose no-op overhead is
gated in CI.

Typical use::

    from repro import telemetry

    telemetry.configure(enabled=True)          # off by default
    with telemetry.span("dat.build", key=key, scheme="balanced"):
        ...
    telemetry.count("messages_sent_total", kind="gather")
    telemetry.observe("query_hops", hops)

    tel = telemetry.active()
    print(telemetry.prometheus_text(tel))

This package must stay import-free of ``repro.core`` / ``repro.sim`` /
``repro.maan`` — they import *it* (instrumentation), and a cycle here would
be immediate.

See ``docs/OBSERVABILITY.md`` for the metric catalogue, span names, and
exporter formats.
"""

from repro.telemetry.config import (
    DEFAULT_BUCKET_OVERRIDES,
    DEFAULT_PERCENTILES,
    TelemetryConfig,
)
from repro.telemetry.export import prometheus_text, write_prometheus
from repro.telemetry.hotspot import HotspotAccountant, LoadSample, NodeLoad
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricSample,
    MetricsRegistry,
    linear_buckets,
    log_buckets,
)
from repro.telemetry.runtime import (
    NULL_SPAN,
    Telemetry,
    active,
    bind_clock,
    configure,
    count,
    current_span,
    disable,
    enabled,
    gauge_set,
    is_enabled,
    observe,
    propagate_current,
    remote_span,
    trace_span,
    sample_hotspots,
    span,
    tracing_enabled,
)
from repro.telemetry.spans import (
    TRACE_KEY,
    NullSpan,
    Span,
    SpanBase,
    SpanRecorder,
    TraceContext,
)
from repro.telemetry.stream import JsonlSpanStream, LiveExport, TelemetryStream

__all__ = [
    "TelemetryConfig",
    "DEFAULT_PERCENTILES",
    "DEFAULT_BUCKET_OVERRIDES",
    "Telemetry",
    "configure",
    "disable",
    "active",
    "is_enabled",
    "enabled",
    "bind_clock",
    "span",
    "trace_span",
    "remote_span",
    "current_span",
    "tracing_enabled",
    "propagate_current",
    "count",
    "observe",
    "gauge_set",
    "sample_hotspots",
    "TraceContext",
    "TRACE_KEY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "log_buckets",
    "linear_buckets",
    "SpanBase",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "SpanRecorder",
    "HotspotAccountant",
    "NodeLoad",
    "LoadSample",
    "prometheus_text",
    "write_prometheus",
    "JsonlSpanStream",
    "TelemetryStream",
    "LiveExport",
]
