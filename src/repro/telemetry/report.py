"""The one reader of telemetry JSONL exports: loader, views, trace gate, CLI.

Usage::

    python -m repro.telemetry.report run.jsonl
    python -m repro.telemetry.report run.jsonl --section spans --top 10
    python -m repro.telemetry.report .fleet/            # a fleet state dir
    python -m repro.telemetry.report a.jsonl b.jsonl --offsets offs.json
    python -m repro.telemetry.report trace.jsonl --tree 3
    python -m repro.telemetry.report trace.jsonl --json
    python -m repro.telemetry.report trace.jsonl \\
        --require-root dat.push --min-depth 1 --tail-grace 2.0 \\
        --check-critical-path      # CI trace gate (exit 1 on failure)

Reads the JSONL event stream :class:`repro.telemetry.stream.TelemetryStream`
writes — the experiment CLI's ``--telemetry-jsonl`` / ``--trace-jsonl``, a
fleet agent's ``spans-<ident>.jsonl`` — and prints aligned summary tables:
metric values, span durations by name (plus the export's ``span_drops``
accounting), causal traces rolled up per root name with critical-path time
by node, per-accountant hotspot load distributions with the Fig. 8
imbalance factor, and the rolling per-window load samples.

:func:`load` is the one loader every view reads through:

* Several paths merge onto one timeline. A directory expands to its
  ``*.jsonl`` exports, setting aside fleet control-plane streams (their
  records carry ``event``/``data`` instead of ``type``), and its
  ``clock-offsets.json``, if present, gives each file's clock offset.
  ``--offsets FILE`` replaces those offsets.
* A final line with no trailing newline that does not parse is a truncated
  write — what a killed process leaves behind — and is skipped with a note
  on stderr. Any other malformed line exits ``2``, naming the file and the
  line, as do missing paths, unreadable offsets and inputs with no events.

``--require-samples [SUBSTRING]`` exits 1 unless the export carries a
rolling-imbalance series (the CI telemetry round trip).
``--require-root`` / ``--min-depth`` / ``--tail-grace`` /
``--check-critical-path`` run :func:`check_traces`, the trace gate that
``python -m repro.fleet report --require-traces`` also calls.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.telemetry.traces import (
    Trace,
    TraceSet,
    TraceSpan,
    assemble,
    offset_for,
    render_tree,
)

__all__ = [
    "main",
    "build_parser",
    "Export",
    "load",
    "trace_set",
    "trace_rollup",
    "check_traces",
    "render_traces",
    "render_report",
    "rolling_imbalance",
]

_SECTIONS = ("metrics", "spans", "traces", "hotspots", "samples")

#: The fleet supervisor's per-agent clock offsets, inside a state dir.
_OFFSETS_FILE = "clock-offsets.json"


def _read_jsonl(path: Path, notes: list[str]) -> list[dict[str, Any]]:
    """The JSON objects of one JSONL file, one per line; blank lines skipped.

    A final line with no trailing newline that is not a JSON object is a
    truncated write: it is skipped and named in ``notes``. Any other line
    that is not a JSON object raises :class:`ValueError` naming the file
    and the line.
    """
    records: list[dict[str, Any]] = []
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError(f"a JSON {type(record).__name__}")
            except ValueError as exc:
                if not line.endswith("\n"):
                    notes.append(f"{path}: line {lineno}: truncated final line skipped")
                    break
                raise ValueError(
                    f"{path}: line {lineno}: not a JSON object ({exc})"
                ) from exc
            records.append(record)
    return records


def _load_offsets(path: Path) -> dict[str, float]:
    """A clock-offsets file: JSON object of file stem or node ident -> seconds."""
    try:
        with path.open("r", encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ValueError("not a JSON object")
        return {str(k): float(v) for k, v in raw.items()}
    except (OSError, TypeError, ValueError) as exc:
        raise ValueError(f"cannot read offsets {path}: {exc}") from exc


@dataclass
class Export:
    """Exports merged onto one timeline by :func:`load`."""

    #: Files read as telemetry exports, in merge order.
    files: list[Path] = field(default_factory=list)
    #: Their records; span timestamps are shifted by each file's offset.
    events: list[dict[str, Any]] = field(default_factory=list)
    #: The clock offsets applied (file stem or node ident -> seconds).
    offsets: dict[str, float] = field(default_factory=dict)
    #: Records of the fleet control-plane streams found in a directory.
    control: dict[Path, list[dict[str, Any]]] = field(default_factory=dict)
    #: One note per truncated final line skipped.
    notes: list[str] = field(default_factory=list)


def load(
    paths: Sequence[str | Path], offsets_path: str | Path | None = None
) -> Export:
    """Read, check and merge exports onto one timeline.

    ``offsets_path`` replaces the offsets each directory's
    ``clock-offsets.json`` would give. Each file's offset
    (:func:`~repro.telemetry.traces.offset_for`) is added to its span
    records' ``start``/``end``, so span and trace views read one clock.
    Raises :class:`ValueError` naming the file for a missing path,
    unreadable offsets or a malformed line.
    """
    export = Export()
    if offsets_path is not None:
        export.offsets = _load_offsets(Path(offsets_path))
    candidates: list[tuple[Path, bool]] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates.extend((p, True) for p in sorted(path.glob("*.jsonl")))
            if offsets_path is None and (path / _OFFSETS_FILE).is_file():
                export.offsets.update(_load_offsets(path / _OFFSETS_FILE))
        elif path.is_file():
            candidates.append((path, False))
        else:
            raise ValueError(f"{path}: no such file or directory")
    for path, in_dir in candidates:
        records = _read_jsonl(path, export.notes)
        if in_dir and records and "type" not in records[0]:
            export.control[path] = records
            continue
        shift = offset_for(path, export.offsets)
        for index, record in enumerate(records, start=1):
            if "type" not in record:
                raise ValueError(f"{path}: record {index}: not a telemetry event")
            if shift and record["type"] == "span":
                for key in ("start", "end"):
                    if isinstance(record.get(key), (int, float)):
                        record[key] = float(record[key]) + shift
        export.files.append(path)
        export.events.extend(records)
    return export


def trace_set(events: Sequence[dict[str, Any]]) -> TraceSet:
    """Causal traces assembled from the traced ``span`` records of ``events``."""
    spans = (TraceSpan.from_record(e) for e in events if e.get("type") == "span")
    return assemble(span for span in spans if span is not None)


def trace_rollup(traces: TraceSet) -> dict[str, Any]:
    """Assembly counts plus one roll-up per root name.

    ``roots`` maps each root name of a non-orphaned trace (sorted) to its
    trace ``count``, ``max_depth``, ``max_hops``, ``mean_critical_path``,
    ``max_critical_path`` and ``cross_node`` (traces spanning more than one
    node). The ``traces`` section, ``--json`` and ``python -m repro.fleet
    report`` all read it.
    """
    groups: dict[str, list[Trace]] = defaultdict(list)
    for trace in traces.traces:
        if not trace.orphaned:
            groups[trace.root.name].append(trace)
    roots: dict[str, dict[str, Any]] = {}
    for name in sorted(groups):
        group = groups[name]
        cps = [t.critical_path_latency() for t in group]
        roots[name] = {
            "count": len(group),
            "max_depth": max(t.depth() for t in group),
            "max_hops": max(t.hops() for t in group),
            "mean_critical_path": sum(cps) / len(cps),
            "max_critical_path": max(cps),
            "cross_node": sum(1 for t in group if len(t.nodes()) > 1),
        }
    return {
        "spans": traces.total_spans,
        "traces": len(traces.traces),
        "orphans": len(traces.orphans()),
        "duplicates": traces.duplicates,
        "roots": roots,
    }


def check_traces(
    traces: TraceSet,
    *,
    require_root: str | None = None,
    min_depth: int = 1,
    tail_grace: float = 0.0,
    check_critical_path: bool = False,
    cross_node: bool = False,
    orphan_minority: bool = False,
) -> list[tuple[bool, str]]:
    """The trace gate: one ``(passed, message)`` per condition checked.

    * ``require_root``: some non-orphaned trace is rooted there, and each
      one starting before ``max_end - tail_grace`` (those still in flight
      at shutdown are exempt) reaches ``min_depth``; with ``cross_node``,
      at least one of them spans more than one node.
    * ``orphan_minority``: at most half the traces are orphaned, i.e.
      parents resolved across the merged files.
    * ``check_critical_path``: every trace's critical path sums to its
      root's duration.
    """
    results: list[tuple[bool, str]] = []
    if require_root is not None:
        rooted = traces.rooted(require_root)
        horizon = traces.max_end() - tail_grace
        in_window = [t for t in rooted if t.root.start <= horizon]
        shallow = [t for t in in_window if t.depth() < min_depth]
        if not rooted:
            results.append((False, f"no traces rooted at {require_root!r}"))
        elif shallow:
            sample = ", ".join(t.trace_id for t in shallow[:5])
            results.append((False, (
                f"{len(shallow)}/{len(in_window)} {require_root!r} traces "
                f"shallower than {min_depth} (e.g. {sample})"
            )))
        else:
            results.append((True, (
                f"{len(in_window)} {require_root!r} traces at depth >= "
                f"{min_depth} ({len(rooted) - len(in_window)} in tail grace)"
            )))
        if cross_node and rooted:
            crossed = sum(1 for t in rooted if len(t.nodes()) > 1)
            results.append(
                (True, f"{crossed} {require_root!r} traces crossed a process boundary")
                if crossed
                else (False, f"no {require_root!r} trace crossed a process boundary")
            )
    if orphan_minority:
        orphans, total = len(traces.orphans()), len(traces.traces)
        results.append(
            (False, (
                f"{orphans}/{total} traces orphaned — parent spans missing "
                "from the merged files"
            ))
            if orphans > total / 2
            else (True, f"{orphans}/{total} traces orphaned")
        )
    if check_critical_path:
        bad = sum(
            1
            for t in traces.traces
            if abs(t.critical_path_latency() - t.duration) > 1e-9
        )
        results.append(
            (False, f"{bad} traces with inconsistent critical path")
            if bad
            else (True, (
                f"critical path == root duration for {len(traces.traces)} traces"
            ))
        )
    return results


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    """Render an aligned plain-text table (left-justified columns)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return out


def _metrics_section(events: list[dict[str, object]], top: int) -> list[str]:
    metrics = [e for e in events if e["type"] == "metric"]
    if not metrics:
        return ["(no metrics)"]
    rows = []
    for event in metrics[:top] if top else metrics:
        labels = event.get("labels") or {}
        assert isinstance(labels, dict)
        label_str = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        kind = str(event["kind"])
        value = event.get("count") if kind == "histogram" else event.get("value")
        detail = ""
        if kind == "histogram":
            total = event.get("value", 0)
            n = event.get("count", 0)
            mean = (float(str(total)) / int(str(n))) if n else 0.0
            detail = f"sum={total} mean={mean:.3g}"
        rows.append(
            [str(event["name"]), kind, label_str, str(value), detail]
        )
    lines = _table(["metric", "kind", "labels", "value", "detail"], rows)
    shown = len(rows)
    if top and len(metrics) > shown:
        lines.append(f"... ({len(metrics) - shown} more series)")
    return lines


def _spans_section(events: list[dict[str, object]], top: int) -> list[str]:
    spans = [e for e in events if e["type"] == "span"]
    if not spans:
        lines = ["(no spans)"]
        lines.extend(_drops_lines(events))
        return lines
    stats: dict[str, list[float]] = defaultdict(list)
    errors: dict[str, int] = defaultdict(int)
    for event in spans:
        name = str(event["name"])
        start = event.get("start")
        end = event.get("end")
        if isinstance(start, (int, float)) and isinstance(end, (int, float)):
            stats[name].append(float(end) - float(start))
        if event.get("error"):
            errors[name] += 1
    rows = []
    ranked = sorted(stats.items(), key=lambda item: -sum(item[1]))
    for name, durations in ranked[:top] if top else ranked:
        total = sum(durations)
        rows.append(
            [
                name,
                str(len(durations)),
                f"{total:.6g}",
                f"{total / len(durations):.6g}",
                f"{max(durations):.6g}",
                str(errors.get(name, 0)),
            ]
        )
    lines = _table(["span", "count", "total", "mean", "max", "errors"], rows)
    if top and len(ranked) > top:
        lines.append(f"... ({len(ranked) - top} more span names)")
    lines.extend(_drops_lines(events))
    return lines


def _drops_lines(events: list[dict[str, object]]) -> list[str]:
    """The ``span_drops`` accounting, rendered under the spans table."""
    lines: list[str] = []
    for event in events:
        if event["type"] != "span_drops":
            continue
        evicted = int(str(event.get("evicted", 0)))
        streamed = int(str(event.get("streamed", 0)))
        lines.append(f"drops: evicted={evicted} streamed={streamed}")
    return lines


def render_traces(traces: TraceSet, top: int = 20) -> list[str]:
    """The traces view: per-root roll-up, assembly counts, time by node."""
    rollup = trace_rollup(traces)
    ranked = sorted(
        rollup["roots"].items(),
        key=lambda kv: -kv[1]["count"] * kv[1]["mean_critical_path"],
    )
    rows = [
        [
            name,
            str(r["count"]),
            str(r["max_depth"]),
            str(r["max_hops"]),
            str(r["cross_node"]),
            f"{r['mean_critical_path']:.6g}",
            f"{r['max_critical_path']:.6g}",
        ]
        for name, r in (ranked[:top] if top else ranked)
    ]
    lines = _table(
        ["root", "traces", "depth", "hops", "cross_node", "mean_crit_path",
         "max_crit_path"],
        rows,
    )
    if top and len(ranked) > top:
        lines.append(f"... ({len(ranked) - top} more root names)")
    lines.append(
        f"assembly: {rollup['traces']} traces from {rollup['spans']} "
        f"spans, {rollup['orphans']} orphaned, "
        f"{rollup['duplicates']} duplicate ids"
    )
    # Where the latency went: critical-path time attributed per node.
    by_node: dict[object, float] = defaultdict(float)
    for trace in traces.traces:
        for node, width in trace.node_attribution().items():
            by_node[node] += width
    total = sum(by_node.values())
    if total > 0:
        lines.append("critical-path time by node:")
        ranked_nodes = sorted(by_node.items(), key=lambda kv: -kv[1])
        node_rows = [
            [str(node), f"{width:.6g}", f"{width / total * 100:.1f}%"]
            for node, width in (ranked_nodes[:top] if top else ranked_nodes)
        ]
        lines.extend(
            "  " + row for row in _table(["node", "time", "share"], node_rows)
        )
        if top and len(ranked_nodes) > top:
            lines.append(f"  ... ({len(ranked_nodes) - top} more nodes)")
    return lines


def _traces_section(events: list[dict[str, object]], top: int) -> list[str]:
    """Causal-trace roll-up (:func:`render_traces`) of the traced spans.

    Only spans exported with tracing enabled carry the ``sid`` /
    ``trace_parent`` fields assembly needs; an untraced export renders a
    hint instead of an empty table.
    """
    traces = trace_set(events)
    if not traces.total_spans:
        return ["(no traced spans — produce the export with tracing enabled,"
                " e.g. --trace-jsonl)"]
    return render_traces(traces, top)


def _hotspots_section(events: list[dict[str, object]], top: int) -> list[str]:
    nodes: dict[str, list[dict[str, object]]] = defaultdict(list)
    for event in events:
        if event["type"] == "hotspot_node":
            nodes[str(event["accountant"])].append(event)
    if not nodes:
        return ["(no hotspot accountants)"]
    lines: list[str] = []
    for accountant in sorted(nodes):
        records = nodes[accountant]
        totals = [int(str(e["total"])) for e in records]
        n = len(totals)
        total = sum(totals)
        mean = total / n if n else 0.0
        maximum = max(totals, default=0)
        imbalance = (maximum / mean) if mean > 0 else 0.0
        lines.append(
            f"[{accountant}] nodes={n} total={total} mean={mean:.3f} "
            f"max={maximum} imbalance={imbalance:.3f}"
        )
        ranked = sorted(records, key=lambda e: -int(str(e["total"])))
        rows = [
            [
                str(e["node"]),
                str(e["sent"]),
                str(e["received"]),
                str(e["total"]),
            ]
            for e in (ranked[:top] if top else ranked)
        ]
        lines.extend("  " + row for row in _table(
            ["node", "sent", "received", "total"], rows
        ))
        if top and len(ranked) > top:
            lines.append(f"  ... ({len(ranked) - top} more nodes)")
        lines.append("")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _samples_section(events: list[dict[str, object]], top: int) -> list[str]:
    """Per-window rolling load samples, one table per accountant."""
    samples: dict[str, list[dict[str, object]]] = defaultdict(list)
    for event in events:
        if event["type"] == "hotspot_sample":
            samples[str(event["accountant"])].append(event)
    if not samples:
        return ["(no load samples)"]
    lines: list[str] = []
    for accountant in sorted(samples):
        points = sorted(samples[accountant], key=lambda e: float(str(e["at"])))
        lines.append(f"[{accountant}] samples={len(points)}")
        shown = points[-top:] if top else points
        rows = [
            [
                f"{float(str(e['at'])):.3f}",
                str(e["n_nodes"]),
                str(e["total"]),
                f"{float(str(e['mean'])):.3f}",
                str(e["maximum"]),
                f"{float(str(e['imbalance'])):.3f}",
            ]
            for e in shown
        ]
        lines.extend(
            "  " + row
            for row in _table(
                ["at", "nodes", "total", "mean", "max", "imbalance"], rows
            )
        )
        if top and len(points) > len(shown):
            lines.append(f"  ... ({len(points) - len(shown)} earlier samples)")
        lines.append("")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def rolling_imbalance(
    events: list[dict[str, object]], accountant: str = ""
) -> dict[str, list[tuple[float, float]]]:
    """Extract (time, imbalance) series per accountant from an export.

    ``accountant`` filters by substring; empty matches all. The CI
    round-trip job (and ``--require-samples``) use this to assert a
    dynamics run emitted a non-empty rolling series.
    """
    series: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for event in events:
        if event["type"] != "hotspot_sample":
            continue
        name = str(event["accountant"])
        if accountant and accountant not in name:
            continue
        series[name].append(
            (float(str(event["at"])), float(str(event["imbalance"])))
        )
    return {name: sorted(points) for name, points in series.items()}


def render_report(
    events: list[dict[str, object]],
    sections: Sequence[str] = _SECTIONS,
    top: int = 20,
) -> str:
    """The full report as one string (used by tests and the CLI)."""
    parts: list[str] = []
    renderers = {
        "metrics": _metrics_section,
        "spans": _spans_section,
        "traces": _traces_section,
        "hotspots": _hotspots_section,
        "samples": _samples_section,
    }
    for section in sections:
        parts.append(f"== {section} ==")
        parts.extend(renderers[section](events, top))
        parts.append("")
    return "\n".join(parts).rstrip() + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.report",
        description="Summarize, assemble and gate telemetry JSONL exports.",
    )
    parser.add_argument(
        "paths",
        nargs="+",
        help=(
            "JSONL exports to merge; a directory expands to its *.jsonl "
            "exports and its clock-offsets.json (e.g. a fleet state dir)"
        ),
    )
    parser.add_argument(
        "--offsets",
        metavar="FILE",
        help=(
            "JSON mapping of file stem (or node ident) to a clock offset "
            "added to that file's span timestamps before merging; replaces "
            "any directory's clock-offsets.json"
        ),
    )
    parser.add_argument(
        "--section",
        choices=_SECTIONS,
        action="append",
        help="limit output to one or more sections (default: all)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=20,
        help="rows per table, 0 for unlimited (default: 20)",
    )
    parser.add_argument(
        "--tree",
        type=int,
        default=0,
        metavar="N",
        help="after the report, print the first N assembled trace trees",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the trace roll-up as JSON instead of the tables",
    )
    parser.add_argument(
        "--require-root",
        metavar="NAME",
        help="exit 1 unless traces rooted at NAME exist and reach --min-depth",
    )
    parser.add_argument(
        "--min-depth",
        type=int,
        default=1,
        help="depth bar for --require-root (default: 1)",
    )
    parser.add_argument(
        "--tail-grace",
        type=float,
        default=0.0,
        metavar="S",
        help=(
            "exempt roots starting within S of the export's end (in flight "
            "at shutdown) from --min-depth"
        ),
    )
    parser.add_argument(
        "--check-critical-path",
        action="store_true",
        help="exit 1 unless every trace's critical path sums to its root duration",
    )
    parser.add_argument(
        "--require-samples",
        nargs="?",
        const="",
        default=None,
        metavar="SUBSTRING",
        help=(
            "exit 1 unless the export carries a non-empty rolling-imbalance "
            "sample series (optionally: for an accountant matching SUBSTRING)"
        ),
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        export = load(args.paths, args.offsets)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for note in export.notes:
        print(f"note: {note}", file=sys.stderr)
    events = export.events
    if not events:
        listed = ", ".join(str(p) for p in export.files or args.paths)
        print(f"error: no telemetry events in {listed}", file=sys.stderr)
        return 2
    traces = trace_set(events)
    gated = args.require_root is not None or args.check_critical_path
    if gated and not traces.total_spans:
        print(
            "error: no traced spans found (was the run made with tracing "
            "enabled, e.g. --trace-jsonl?)",
            file=sys.stderr,
        )
        return 2
    if args.json:
        rollup = {**trace_rollup(traces), "offsets": export.offsets}
        print(json.dumps(rollup, sort_keys=True))
    else:
        sections = tuple(args.section) if args.section else _SECTIONS
        print(render_report(events, sections=sections, top=args.top), end="")
        for trace in traces.traces[: args.tree]:
            print()
            render_tree(trace, sys.stdout)
    if args.require_samples is not None:
        series = rolling_imbalance(events, accountant=args.require_samples)
        n_points = sum(len(points) for points in series.values())
        if n_points == 0:
            wanted = args.require_samples or "any accountant"
            print(
                f"error: no rolling-imbalance samples found for {wanted}",
                file=sys.stderr,
            )
            return 1
        print(
            f"rolling-imbalance series: {len(series)} accountant(s), "
            f"{n_points} sample(s)"
        )
    if gated:
        results = check_traces(
            traces,
            require_root=args.require_root,
            min_depth=args.min_depth,
            tail_grace=args.tail_grace,
            check_critical_path=args.check_critical_path,
        )
        for passed, message in results:
            print(("check ok: " if passed else "CHECK FAIL: ") + message)
        if not all(passed for passed, _message in results):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
