"""JSONL record builders: pure functions of a telemetry instance's state.

Every builder is fully ordered (families by name, series by label values,
spans by finish order), so a seeded run exports byte-identical streams
across replays — the property the fig8-from-telemetry integration test
relies on.

One JSON object per line, discriminated by ``"type"``: ``config``,
``metric``, ``span``, ``hotspot_node``, ``hotspot_sample``,
``span_drops`` (drop accounting: evicted and streamed span counts, so a
truncated export is never silently mistaken for a complete one). The
per-record builders (:func:`config_record`, :func:`span_record`, ...) are
what :class:`repro.telemetry.stream.TelemetryStream`, the one JSONL
writer, emits, and :mod:`repro.telemetry.report` is the one reader.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import TYPE_CHECKING, Iterator

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
]


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

