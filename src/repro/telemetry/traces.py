"""Causal trace assembly: rebuild distributed request trees from span exports.

The propagation side (:class:`~repro.telemetry.spans.TraceContext` threaded
through message payloads by ``repro.net``) stamps every exported span with
a ``trace_id``, a globally qualified ``sid`` (``"<site>:<span_id>"``), and
its ``trace_parent``. This module is the read side's model: given the span
records of one or many JSONL exports — a single simulator stream, or
per-node fleet exports merged by :func:`repro.telemetry.report.load` — it
reconstructs the causal trees and answers the questions the paper's
evaluation asks of multi-hop behaviour: how many hops did this aggregate
take, where did the latency go, which node spent it.

Inputs may disagree on clocks: fleet agents stamp spans from their own
monotonic offset. The fleet supervisor derives per-agent offsets from each
``Hello`` handshake and writes ``clock-offsets.json``; :func:`offset_for`
resolves one file's offset from such a mapping, and the report's loader
shifts every timestamp onto the common supervisor timeline before assembly.

Assembly is defensive by construction:

* **orphaned spans** — a span whose ``trace_parent`` never resolves (the
  parent was sampled out, evicted, or its node's file is missing) becomes
  the root of its own tree, flagged ``orphaned``;
* **parent cycles** — corrupt links that loop (``A -> B -> A``, or a span
  naming itself) leave no root to reach them from; each cycle becomes one
  orphaned tree rooted at its earliest ``(start, sid)`` member, so every
  distinct span lands in exactly one trace;
* **duplicate ids** — retransmitted or re-merged records with an
  already-seen ``sid`` are dropped (first record wins) and counted;
* **clock skew** — child intervals are clamped into their parent's when
  computing the critical path, so a few milliseconds of residual skew
  cannot produce negative segments.

The critical path of a trace is the chain of spans that *gated* the root's
completion, computed as a tiling of the root interval: walking backwards
from the root's end, the child that finished last owns the preceding
segment, recursively. By construction the segment durations sum exactly to
the root span's duration — the acceptance self-check — and grouping the
segments by node yields the per-node latency attribution.

The CLI over all of this is ``python -m repro.telemetry.report`` (its
``traces`` section, ``--tree``, ``--json`` and the trace gates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable

__all__ = [
    "TraceSpan",
    "Trace",
    "TraceSet",
    "assemble",
    "offset_for",
    "render_tree",
]


@dataclass
class TraceSpan:
    """One exported span, as assembly sees it."""

    sid: str
    name: str
    start: float
    end: float | None
    trace_parent: str | None
    trace_id: str | None = None
    hop: int = 0
    node: object | None = None
    error: str | None = None
    attrs: dict[str, object] = field(default_factory=dict)
    children: list["TraceSpan"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Span length (0.0 while open-ended)."""
        return 0.0 if self.end is None else self.end - self.start

    @classmethod
    def from_record(cls, record: dict[str, object]) -> "TraceSpan | None":
        """Build from one exported ``span`` JSONL record.

        Returns ``None`` for records without trace fields (spans exported
        with tracing disabled carry no ``sid``) or with malformed
        essentials — assembly tolerates mixed and partial inputs.
        """
        sid = record.get("sid")
        name = record.get("name")
        start = record.get("start")
        if not isinstance(sid, str) or not isinstance(name, str):
            return None
        if not isinstance(start, (int, float)):
            return None
        end = record.get("end")
        parent = record.get("trace_parent")
        trace_id = record.get("trace_id")
        hop = record.get("hop")
        error = record.get("error")
        attrs = record.get("attrs")
        return cls(
            sid=sid,
            name=name,
            start=float(start),
            end=float(end) if isinstance(end, (int, float)) else None,
            trace_parent=parent if isinstance(parent, str) else None,
            trace_id=trace_id if isinstance(trace_id, str) else None,
            hop=hop if isinstance(hop, int) else 0,
            node=record.get("node"),
            error=error if isinstance(error, str) else None,
            attrs=dict(attrs) if isinstance(attrs, dict) else {},
        )


#: One critical-path segment: (span owning the time, segment start, end).
Segment = tuple[TraceSpan, float, float]


@dataclass
class Trace:
    """One assembled causal tree."""

    root: TraceSpan
    spans: list[TraceSpan]
    orphaned: bool = False

    @property
    def trace_id(self) -> str:
        """The trace's identity (root's ``trace_id``, else its ``sid``)."""
        return self.root.trace_id or self.root.sid

    @property
    def duration(self) -> float:
        return self.root.duration

    def depth(self) -> int:
        """Longest root-to-leaf edge count (0 for a lone root)."""
        best = 0
        stack: list[tuple[TraceSpan, int]] = [(self.root, 0)]
        while stack:
            span, d = stack.pop()
            best = max(best, d)
            for child in span.children:
                stack.append((child, d + 1))
        return best

    def hops(self) -> int:
        """Remote edges between the root and its deepest member."""
        return max((s.hop for s in self.spans), default=self.root.hop) - self.root.hop

    def nodes(self) -> list[object]:
        """Distinct executing nodes, in first-seen order."""
        seen: dict[object, None] = {}
        for span in self.spans:
            if span.node is not None:
                seen.setdefault(span.node)
        return list(seen)

    def critical_path(self) -> list[Segment]:
        """The chain of segments that gated the root's completion.

        Returns ``(span, t0, t1)`` segments tiling ``[root.start,
        root.end]`` exactly — walking backwards from the root's end, the
        child that ended last owns the time before it, recursively. Child
        intervals are clamped into their parent's, so modest residual
        clock skew between fleet files cannot break the tiling. Segment
        durations therefore sum to the root span's duration exactly.
        """
        segments: list[Segment] = []

        def walk(span: TraceSpan, lo: float, hi: float) -> None:
            cursor = hi
            kids = sorted(
                (c for c in span.children if c.end is not None),
                key=lambda c: (c.end is None, c.end),
                reverse=True,
            )
            for child in kids:
                assert child.end is not None
                c_end = min(child.end, cursor)
                c_start = max(min(child.start, c_end), lo)
                if c_end <= lo:
                    break
                if c_end < c_start:
                    continue  # clipped away by an already-attributed sibling
                if cursor > c_end:
                    segments.append((span, c_end, cursor))
                walk(child, c_start, c_end)
                cursor = c_start
                if cursor <= lo:
                    break
            if cursor > lo:
                segments.append((span, lo, cursor))

        end = self.root.end if self.root.end is not None else self.root.start
        walk(self.root, self.root.start, end)
        segments.reverse()
        return segments

    def critical_path_latency(self) -> float:
        """Sum of critical-path segment durations (== root duration)."""
        return sum(t1 - t0 for _span, t0, t1 in self.critical_path())

    def node_attribution(self) -> dict[object, float]:
        """Critical-path time grouped by executing node.

        Where the latency went: each segment's width is charged to the
        node that was on the critical path during it (``None`` for spans
        without a node identity).
        """
        out: dict[object, float] = {}
        for span, t0, t1 in self.critical_path():
            out[span.node] = out.get(span.node, 0.0) + (t1 - t0)
        return out


@dataclass
class TraceSet:
    """Every assembled trace plus the assembly accounting."""

    traces: list[Trace]
    duplicates: int = 0
    total_spans: int = 0

    def rooted(self, name: str) -> list[Trace]:
        """Non-orphaned traces whose root span carries ``name``."""
        return [t for t in self.traces if not t.orphaned and t.root.name == name]

    def orphans(self) -> list[Trace]:
        """Traces whose root's parent reference never resolved."""
        return [t for t in self.traces if t.orphaned]

    def max_end(self) -> float:
        """Latest timestamp across all spans (tail-grace reference)."""
        best = float("-inf")
        for trace in self.traces:
            for span in trace.spans:
                best = max(best, span.end if span.end is not None else span.start)
        return best


def offset_for(path: str | Path, offsets: dict[str, float] | None) -> float:
    """Resolve a file's clock offset from an offsets mapping.

    Keys are matched against the file stem and against the stem's trailing
    ``-``-separated token — fleet span files are named
    ``spans-<ident>.jsonl`` while ``clock-offsets.json`` keys by ident.
    """
    if not offsets:
        return 0.0
    stem = Path(path).stem
    if stem in offsets:
        return float(offsets[stem])
    tail = stem.rsplit("-", 1)[-1]
    return float(offsets.get(tail, 0.0))


def _tree(root: TraceSpan, orphaned: bool) -> Trace:
    members: list[TraceSpan] = []
    stack = [root]
    while stack:
        span = stack.pop()
        members.append(span)
        stack.extend(span.children)
    members.sort(key=lambda s: (s.start, s.sid))
    return Trace(root=root, spans=members, orphaned=orphaned)


def assemble(spans: Iterable[TraceSpan]) -> TraceSet:
    """Reconstruct causal trees from (possibly merged, skewed) spans.

    Every distinct span lands in exactly one trace:
    ``sum(len(t.spans) for t in result.traces) == result.total_spans``.
    """
    by_sid: dict[str, TraceSpan] = {}
    duplicates = 0
    for span in spans:
        if span.sid in by_sid:
            duplicates += 1  # retransmission / double-merge: first wins
            continue
        by_sid[span.sid] = span

    roots: list[tuple[TraceSpan, bool]] = []
    parent_of: dict[str, TraceSpan] = {}
    for span in by_sid.values():
        parent_sid = span.trace_parent
        if parent_sid is None:
            roots.append((span, False))
            continue
        parent = by_sid.get(parent_sid)
        if parent is None:
            roots.append((span, True))  # orphan: parent never exported
            continue
        parent_of[span.sid] = parent
        parent.children.append(span)

    for span in by_sid.values():
        span.children.sort(key=lambda c: (c.start, c.sid))

    traces = [_tree(root, orphaned) for root, orphaned in roots]
    # A span no root reaches hangs off a parent cycle: every span has one
    # parent, so following parents from it must loop. Cut each cycle at
    # its earliest member, which then roots an orphaned tree.
    reached = {span.sid for trace in traces for span in trace.spans}
    for span in sorted(by_sid.values(), key=lambda s: (s.start, s.sid)):
        if span.sid in reached:
            continue
        walked: set[str] = set()
        on_cycle = span
        while on_cycle.sid not in walked:
            walked.add(on_cycle.sid)
            on_cycle = parent_of[on_cycle.sid]
        cycle = [on_cycle]
        member = parent_of[on_cycle.sid]
        while member is not on_cycle:
            cycle.append(member)
            member = parent_of[member.sid]
        root = min(cycle, key=lambda s: (s.start, s.sid))
        parent_of[root.sid].children.remove(root)
        trace = _tree(root, orphaned=True)
        reached.update(s.sid for s in trace.spans)
        traces.append(trace)
    traces.sort(key=lambda t: (t.root.start, t.root.sid))
    return TraceSet(traces=traces, duplicates=duplicates, total_spans=len(by_sid))


def render_tree(trace: Trace, out: IO[str], *, max_spans: int = 64) -> None:
    """Print one trace as an indented causal tree."""
    shown = 0

    def emit(span: TraceSpan, depth: int) -> None:
        nonlocal shown
        if shown >= max_spans:
            return
        shown += 1
        node = f" node={span.node}" if span.node is not None else ""
        err = f" error={span.error}" if span.error else ""
        out.write(
            f"{'  ' * depth}{span.name} [{span.sid}]{node} "
            f"t={span.start:.6f} d={span.duration:.6f} hop={span.hop}{err}\n"
        )
        for child in span.children:
            emit(child, depth + 1)

    emit(trace.root, 0)
    if shown >= max_spans and len(trace.spans) > shown:
        out.write(f"  ... {len(trace.spans) - shown} more spans\n")
