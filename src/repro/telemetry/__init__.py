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

A JSONL export streams spans to a file the caller owns as they finish and
appends the end-of-run snapshot on ``close()``::

    with open("run.jsonl", "w", encoding="utf-8") as out:
        stream = telemetry.TelemetryStream(tel, out)
        ...                                    # the run
        stream.close()

This package must stay import-free of ``repro.core`` / ``repro.sim`` /
``repro.maan`` — they import *it* (instrumentation), and a cycle here would
be immediate.

See ``docs/OBSERVABILITY.md`` for the metric catalogue, span names, and
exporter formats.
"""

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.export import prometheus_text, write_prometheus
from repro.telemetry.hotspot import HotspotAccountant, LoadSample, NodeLoad
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricSample,
    MetricsRegistry,
    log_buckets,
)
from repro.telemetry.runtime import (
    NULL_SPAN,
    Telemetry,
    active,
    bind_clock,
    configure,
    count,
    disable,
    enabled,
    gauge_set,
    is_enabled,
    observe,
    propagate_current,
    remote_span,
    trace_span,
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
from repro.telemetry.stream import TelemetryStream

__all__ = [
    "TelemetryConfig",
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
    "tracing_enabled",
    "propagate_current",
    "count",
    "observe",
    "gauge_set",
    "TraceContext",
    "TRACE_KEY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "log_buckets",
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
    "TelemetryStream",
]
