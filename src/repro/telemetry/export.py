"""JSONL record builders and the Prometheus text exposition format.

Both are pure functions of a :class:`~repro.telemetry.runtime.Telemetry`
instance's current state, fully ordered (families by name, series by label
values, spans by finish order), so a seeded run exports byte-identical
streams across replays — the property the fig8-from-telemetry integration
test relies on.

JSONL: one JSON object per line, discriminated by ``"type"``:
``config``, ``metric``, ``span``, ``hotspot_node``, ``hotspot_sample``,
``span_drops`` (drop accounting: evicted and streamed span counts, so a
truncated export is never silently mistaken for a complete one). The
per-record builders (:func:`config_record`, :func:`span_record`, ...) are
what :class:`repro.telemetry.stream.TelemetryStream`, the one JSONL
writer, emits.

Prometheus: the text exposition format — ``# HELP`` / ``# TYPE`` headers,
one line per labeled series; histogram buckets are emitted cumulatively
with the standard ``le`` label (internal storage is per-bucket). Hotspot
accountants are flattened to ``*_hotspot_node_messages`` per-node gauges
plus ``*_hotspot_{max,mean,imbalance}`` summary gauges so a scrape alone
reconstructs the Fig. 8 load distribution.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from typing import IO, TYPE_CHECKING, Iterator

from repro.telemetry.config import DEFAULT_PERCENTILES, NAMESPACE, SPAN_CHUNK_SIZE
from repro.telemetry.hotspot import HotspotAccountant
from repro.telemetry.metrics import MetricSample
from repro.telemetry.spans import Span, SpanRecorder

if TYPE_CHECKING:
    from repro.telemetry.runtime import Telemetry

__all__ = [
    "encode_record",
    "config_record",
    "metric_record",
    "span_record",
    "span_drops_record",
    "hotspot_records",
    "prometheus_text",
    "write_prometheus",
]


def _fmt(value: float) -> str:
    """Prometheus-style number: integers bare, +Inf spelled, else repr."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{name}="{_escape_label(value)}"' for name, value in labels)
    return "{" + body + "}"


# -- JSONL record builders (what the streaming exporter writes) -------------


#: ``json.dumps`` with these options builds a new encoder on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode_record(record: dict[str, object]) -> str:
    """One JSONL line (no trailing newline): sorted keys, compact separators."""
    return _ENCODER.encode(record)


def config_record(tel: "Telemetry") -> dict[str, object]:
    """The export's ``config`` header record."""
    return {
        "type": "config",
        "namespace": NAMESPACE,
        "max_spans": tel.spans.max_spans,
        "span_chunk_size": SPAN_CHUNK_SIZE,
        "sample_window": tel.config.sample_window,
        "percentiles": list(DEFAULT_PERCENTILES),
        "exported_at": tel.now(),
    }


def metric_record(sample: MetricSample) -> dict[str, object]:
    """One ``metric`` record from a registry sample."""
    record: dict[str, object] = {
        "type": "metric",
        "name": sample.name,
        "kind": sample.kind,
        "labels": sample.labels_dict(),
        "value": sample.value,
        "updated_at": sample.updated_at,
    }
    if sample.kind == "histogram":
        record["buckets"] = list(sample.buckets)
        record["bucket_counts"] = list(sample.bucket_counts)
        record["count"] = sample.count
    return record


def span_record(span: Span) -> dict[str, object]:
    """One ``span`` record; lazy attributes are resolved here.

    With tracing enabled the record additionally carries the causal-tree
    fields :mod:`repro.telemetry.traces` assembles from: ``trace_id``,
    the globally qualified ``sid`` / ``trace_parent`` ids, the remote
    ``hop`` count, and the executing ``node`` (lifted from the span's
    ``node`` attribute when set). Without tracing the record is
    byte-identical to what it always was.
    """
    attrs = span.resolved_attrs()
    record: dict[str, object] = {
        "type": "span",
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start": span.start,
        "end": span.end,
        "attrs": attrs,
        "error": span.error,
    }
    if span.trace_id is not None:
        record["trace_id"] = span.trace_id
        record["sid"] = span.sid
        record["trace_parent"] = span.qualified_parent()
        record["hop"] = span.hop
        node = attrs.get("node")
        if node is not None:
            record["node"] = node
    return record


def span_drops_record(spans: SpanRecorder) -> dict[str, object]:
    """The ``span_drops`` accounting record.

    ``evicted`` counts retention-cap losses (``max_spans``) and
    ``streamed`` the spans a streaming sink consumed — spans an export is
    missing are always reported, never silent.
    """
    evicted, streamed = spans.drop_stats()
    return {"type": "span_drops", "evicted": evicted, "streamed": streamed}


def hotspot_records(
    name: str, accountant: HotspotAccountant
) -> Iterator[dict[str, object]]:
    """``hotspot_node`` records (sorted by node) then ``hotspot_sample``s."""
    loads = accountant.loads()
    for node in sorted(loads):
        load = accountant.load(node)
        yield {
            "type": "hotspot_node",
            "accountant": name,
            "node": node,
            "sent": load.sent,
            "received": load.received,
            "bytes_sent": load.bytes_sent,
            "bytes_received": load.bytes_received,
            "total": load.total,
        }
    for point in accountant.series_snapshot():
        sample_record = asdict(point)
        sample_record["percentiles"] = [list(pair) for pair in point.percentiles]
        sample_record["type"] = "hotspot_sample"
        sample_record["accountant"] = name
        yield sample_record


# -- Prometheus text format -------------------------------------------------


def _histogram_lines(sample: MetricSample) -> Iterator[str]:
    cumulative = 0
    bounds = [*sample.buckets, math.inf]
    for bound, bucket_count in zip(bounds, sample.bucket_counts):
        cumulative += bucket_count
        labels = (*sample.labels, ("le", _fmt(bound)))
        yield f"{sample.name}_bucket{_label_str(labels)} {cumulative}"
    yield f"{sample.name}_sum{_label_str(sample.labels)} {_fmt(sample.value)}"
    yield f"{sample.name}_count{_label_str(sample.labels)} {sample.count}"


def prometheus_lines(tel: "Telemetry") -> Iterator[str]:
    """Yield the telemetry state in Prometheus text exposition format."""
    for family in tel.metrics.families():
        if family.help_text:
            yield f"# HELP {family.name} {family.help_text}"
        yield f"# TYPE {family.name} {family.kind}"
        for sample in family.samples():
            if sample.kind == "histogram":
                yield from _histogram_lines(sample)
            else:
                yield (
                    f"{sample.name}{_label_str(sample.labels)} {_fmt(sample.value)}"
                )
    hotspot_names = tel.hotspot_names()
    if hotspot_names:
        node_metric = f"{NAMESPACE}_hotspot_node_messages"
        yield f"# HELP {node_metric} Per-node message load (sent + received)."
        yield f"# TYPE {node_metric} gauge"
        for name in hotspot_names:
            accountant = tel.hotspots(name)
            loads = accountant.loads()
            for node in sorted(loads):
                load = accountant.load(node)
                for direction, value in (
                    ("sent", load.sent),
                    ("received", load.received),
                ):
                    labels = (
                        ("accountant", name),
                        ("direction", direction),
                        ("node", str(node)),
                    )
                    yield f"{node_metric}{_label_str(labels)} {value}"
        for summary, help_text in (
            ("max", "Largest per-node message load."),
            ("mean", "Average per-node message load."),
            ("imbalance", "Max load over mean load (Fig. 8b metric)."),
        ):
            metric = f"{NAMESPACE}_hotspot_{summary}_load"
            if summary == "imbalance":
                metric = f"{NAMESPACE}_hotspot_imbalance"
            yield f"# HELP {metric} {help_text}"
            yield f"# TYPE {metric} gauge"
            for name in hotspot_names:
                accountant = tel.hotspots(name)
                labels = (("accountant", name),)
                if summary == "max":
                    value = float(accountant.max_load())
                elif summary == "mean":
                    value = accountant.mean_load()
                else:
                    value = accountant.imbalance()
                yield f"{metric}{_label_str(labels)} {_fmt(value)}"


def prometheus_text(tel: "Telemetry") -> str:
    """The full Prometheus exposition document (trailing newline included)."""
    lines = list(prometheus_lines(tel))
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(tel: "Telemetry", out: IO[str]) -> int:
    """Write the Prometheus export to ``out``; returns the line count."""
    text = prometheus_text(tel)
    out.write(text)
    return text.count("\n")
