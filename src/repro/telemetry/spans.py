"""Span tracing: timed, attributed operations on the sim clock.

A span covers one logical operation — a DAT build, an aggregation round, a
MAAN query resolution, a churn event — with start/end timestamps from the
telemetry clock and free-form attributes (node id, tree key, hop/depth
counts). Two usage shapes:

* context manager (synchronous work)::

      with telemetry.span("dat.build", key=key, scheme="balanced") as sp:
          tree = ...
          sp.set(height=tree.height)

* explicit start/finish (asynchronous protocol rounds that complete in a
  later callback)::

      sp = telemetry.span("dat.collect", node=self.ident, key=key)
      sp.detach()               # leave the per-thread nesting stack
      ...                       # round completes messages later
      sp.set(n_states=len(states))
      sp.finish()

Parent/child nesting is tracked per thread (the DES is single-threaded;
the UDP transport dispatches from its own receive thread), so exported
spans form trees without any explicit context passing. A span that stays
open across the creating call frame should :meth:`~Span.detach` before
that frame returns — otherwise unrelated spans started later on the same
thread would nest under it.

Distributed tracing (opt-in via ``TelemetryConfig(tracing=True)``) builds
on the same spans: a :class:`TraceContext` — trace id, parent span id,
hop count — rides in message payloads under :data:`TRACE_KEY`, and
:meth:`SpanRecorder.start_remote` opens a span whose parent lives on
another node. Span identifiers are qualified as ``"<site>:<span_id>"``
(the *site* is the recorder's identity — constant in the single-process
simulator, the node ident in a fleet agent) so ids from many per-node
exports never collide.

When telemetry is disabled, instrumentation sites receive the shared
:data:`NULL_SPAN` — a stateless singleton whose every method is a no-op.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from types import TracebackType
from typing import Callable

__all__ = [
    "SpanBase",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "SpanRecorder",
    "TraceContext",
    "TRACE_KEY",
]

#: Payload key the wire-encoded trace context rides under. The wire codec
#: carries it as its own section, so the context survives encode/decode —
#: including each inner message of a ``net_batch`` envelope.
TRACE_KEY = "_trace"


@dataclass(frozen=True)
class TraceContext:
    """The compact cross-node trace context carried in message payloads.

    ``trace_id`` names the whole causal tree (the root span's qualified
    id); ``parent`` is the qualified id (``"site:span_id"``) of the span
    the next hop should attach under; ``hop`` counts remote edges from the
    root, so receivers can report per-hop depth without assembling the
    tree.
    """

    trace_id: str
    parent: str
    hop: int = 0

    def to_wire(self) -> list[object]:
        """The JSON-serializable wire form: ``[trace_id, parent, hop]``."""
        return [self.trace_id, self.parent, self.hop]

    @classmethod
    def from_wire(cls, wire: object) -> "TraceContext | None":
        """Parse the wire form; ``None`` for anything malformed (tolerant:
        a corrupt context must not kill a message handler)."""
        if (
            isinstance(wire, (list, tuple))
            and len(wire) == 3
            and isinstance(wire[0], str)
            and isinstance(wire[1], str)
            and isinstance(wire[2], int)
        ):
            return cls(trace_id=wire[0], parent=wire[1], hop=wire[2])
        return None

    @classmethod
    def extract(cls, source: object) -> "TraceContext | None":
        """Pull a context out of a message, a payload dict, or pass one
        through unchanged. Accepts anything with a ``payload`` attribute
        (duck-typed so this package never imports ``repro.sim``)."""
        if source is None or isinstance(source, cls):
            return source
        payload = getattr(source, "payload", source)
        if isinstance(payload, dict):
            return cls.from_wire(payload.get(TRACE_KEY))
        return None


def _attach_wire(wire: list[object], target: object) -> None:
    payload = getattr(target, "payload", target)
    if isinstance(payload, dict):
        payload[TRACE_KEY] = wire


class SpanBase:
    """The interface instrumentation sites program against."""

    def set(self, **attrs: object) -> "SpanBase":
        """Attach (or overwrite) attributes; returns self for chaining."""
        return self

    def set_lazy(self, **attrs: Callable[[], object]) -> "SpanBase":
        """Attach attributes as zero-arg thunks, evaluated only at export.

        For expensive values (an O(n) tree walk): the span keeps the
        callable, and exporters call :meth:`Span.resolved_attrs` to
        materialize it. Spans that are sampled out or evicted never pay
        the cost.
        """
        return self

    def finish(self, **attrs: object) -> None:
        """End the span (idempotent); optional final attributes."""

    def detach(self) -> "SpanBase":
        """Leave the per-thread nesting stack without finishing.

        For spans that outlive their creating call frame (asynchronous
        rounds): later unrelated spans on the same thread must not nest
        under them. Returns self for chaining.
        """
        return self

    def trace_context(self) -> TraceContext | None:
        """This span's propagation context (``None`` unless tracing)."""
        return None

    def propagate(self, *targets: object) -> "SpanBase":
        """Attach this span's trace context to message payloads.

        Overwrites any context already present (a forwarded message built
        as ``{**payload, ...}`` carries the *incoming* context, which must
        be replaced by this hop's). No-op unless tracing is enabled.
        """
        return self

    def __enter__(self) -> "SpanBase":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.finish()


class NullSpan(SpanBase):
    """Stateless no-op span shared by every disabled-mode call site."""

    __slots__ = ()


#: The singleton handed out whenever telemetry is disabled.
NULL_SPAN = NullSpan()


class Span(SpanBase):
    """One recorded operation."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attrs",
        "error",
        "trace_id",
        "remote_parent",
        "hop",
        "_recorder",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        start: float,
        recorder: "SpanRecorder",
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.attrs: dict[str, object] = {}
        self.error: str | None = None
        #: Trace membership (set by the recorder when tracing is enabled).
        self.trace_id: str | None = None
        #: Qualified id of a parent on another node (``start_remote``).
        self.remote_parent: str | None = None
        #: Remote edges between this span and its trace root.
        self.hop: int = 0
        self._recorder = recorder

    def set(self, **attrs: object) -> "Span":
        self.attrs.update(attrs)
        return self

    def set_lazy(self, **attrs: Callable[[], object]) -> "Span":
        self.attrs.update(attrs)
        return self

    def resolved_attrs(self) -> dict[str, object]:
        """Attributes with lazy thunks evaluated (memoized back in place)."""
        for key, value in self.attrs.items():
            if callable(value):
                self.attrs[key] = value()
        return self.attrs

    def finish(self, **attrs: object) -> None:
        if self.end is not None:
            return  # idempotent: double-finish keeps the first end time
        if attrs:
            self.attrs.update(attrs)
        self._recorder._finish(self)

    def detach(self) -> "Span":
        self._recorder._deactivate(self)
        return self

    @property
    def duration(self) -> float:
        """Elapsed sim time (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    @property
    def sid(self) -> str:
        """Globally qualified span id: ``"<site>:<span_id>"``."""
        return f"{self._recorder.site}:{self.span_id}"

    def qualified_parent(self) -> str | None:
        """Qualified id of the parent span (remote edge wins), or None."""
        if self.remote_parent is not None:
            return self.remote_parent
        if self.parent_id is not None:
            return f"{self._recorder.site}:{self.parent_id}"
        return None

    def trace_context(self) -> TraceContext | None:
        if self.trace_id is None:
            return None
        return TraceContext(trace_id=self.trace_id, parent=self.sid, hop=self.hop)

    def propagate(self, *targets: object) -> "Span":
        ctx = self.trace_context()
        if ctx is not None:
            wire = ctx.to_wire()
            for target in targets:
                _attach_wire(wire, target)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        if exc_type is not None and self.error is None:
            self.error = exc_type.__name__
        self.finish()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end is None else f"{self.duration:.6f}s"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class SpanRecorder:
    """Creates spans, tracks per-thread nesting, retains finished spans.

    Parameters
    ----------
    clock:
        The telemetry clock (sim time).
    max_spans:
        Retention cap; the oldest finished spans are evicted beyond it and
        :attr:`dropped` counts how many were lost.
    site:
        Identity prefix for qualified span ids. ``"0"`` in the
        single-process simulator (one recorder, globally unique span ids);
        fleet agents set their node ident so per-node exports merge
        without id collisions.
    tracing:
        When ``True``, every root span is assigned a fresh ``trace_id``
        (its own qualified id), children inherit it, and
        :meth:`start_remote` joins traces arriving from other nodes.

    A streaming consumer (:class:`repro.telemetry.stream.TelemetryStream`)
    attaches itself as :attr:`sink`: a callable given each finished span,
    returning ``True`` to consume it (the recorder then does **not**
    retain it — bounded memory — and counts it in :attr:`streamed`) or
    ``False`` to fall back to retention.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        max_spans: int = 100_000,
        site: str = "0",
        tracing: bool = False,
    ) -> None:
        if max_spans <= 0:
            raise ValueError(f"max_spans must be positive, got {max_spans}")
        if not site:
            raise ValueError("site must be a non-empty string")
        self._clock = clock
        self.max_spans = max_spans
        self.site = site
        self.tracing = tracing
        self.finished: list[Span] = []
        self.dropped = 0
        self.streamed = 0
        self.sink: Callable[[Span], bool] | None = None
        self._lock = threading.Lock()
        self._ids = 0
        self._stacks = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._stacks, "value", None)
        if stack is None:
            stack = []
            self._stacks.value = stack
        return stack  # type: ignore[no-any-return]

    def _new_span(self, name: str, parent_id: int | None) -> Span:
        with self._lock:
            self._ids += 1
            span_id = self._ids
        return Span(
            name=name,
            span_id=span_id,
            parent_id=parent_id,
            start=self._clock(),
            recorder=self,
        )

    def start(self, name: str, **attrs: object) -> Span:
        """Open a span; the current thread's innermost open span is its parent."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = self._new_span(name, parent.span_id if parent is not None else None)
        if self.tracing:
            if parent is not None and parent.trace_id is not None:
                span.trace_id = parent.trace_id
                span.hop = parent.hop
            else:
                span.trace_id = f"{self.site}:{span.span_id}"
        if attrs:
            span.attrs.update(attrs)
        stack.append(span)
        return span

    def start_trace(self, name: str, **attrs: object) -> Span:
        """Open a span that roots a **new trace**, ignoring ambient nesting.

        Continuous-mode protocol events — a DAT push climbing the tree, a
        periodic gather round — are causal units of their own: the span
        that happens to be open on this thread (an experiment phase, a
        driver frame) is operational context, not a causal parent. This
        starts the span with no parent and, under tracing, a fresh
        ``trace_id``, so each such event assembles into its own rooted
        causal tree rather than being absorbed into the harness's trace.
        """
        span = self._new_span(name, None)
        if self.tracing:
            span.trace_id = f"{self.site}:{span.span_id}"
        if attrs:
            span.attrs.update(attrs)
        self._stack().append(span)
        return span

    def start_remote(self, ctx: TraceContext | None, name: str, **attrs: object) -> Span:
        """Open a span whose parent lives on another node.

        ``ctx`` is the :class:`TraceContext` carried by the incoming
        request; the new span joins that trace one hop deeper, ignoring
        this thread's local nesting stack (the handler frame's causal
        parent is the remote caller, not whatever happens to be open
        locally). With ``ctx=None`` — or tracing disabled — this is
        exactly :meth:`start`.
        """
        if ctx is None or not self.tracing:
            return self.start(name, **attrs)
        span = self._new_span(name, None)
        span.trace_id = ctx.trace_id
        span.remote_parent = ctx.parent
        span.hop = ctx.hop + 1
        if attrs:
            span.attrs.update(attrs)
        self._stack().append(span)
        return span

    def current(self) -> Span | None:
        """The current thread's innermost open span, or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _deactivate(self, span: Span) -> None:
        stack = self._stack()
        if span in stack:
            stack.remove(span)

    def _finish(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        # Pop the span from this thread's stack if it is still on it (it
        # may not be: explicit-finish spans can outlive sibling scopes,
        # detach first, or finish on a different thread than they started
        # on).
        if span in stack:
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        sink = self.sink
        if sink is not None and sink(span):
            with self._lock:
                self.streamed += 1
            return
        with self._lock:
            self.finished.append(span)
            overflow = len(self.finished) - self.max_spans
            if overflow > 0:
                del self.finished[:overflow]
                self.dropped += overflow

    def finished_snapshot(self) -> list[Span]:
        """Copy of the retained finished spans, taken under the lock.

        The exporters' accessor: the udprpc receive thread appends to
        :attr:`finished` concurrently, so consumers outside this class
        must never iterate the live list.
        """
        with self._lock:
            return list(self.finished)

    def drop_stats(self) -> tuple[int, int]:
        """``(evicted, streamed)`` counters, read consistently under the lock."""
        with self._lock:
            return self.dropped, self.streamed

    def reset(self) -> None:
        """Drop all finished spans (open spans keep recording)."""
        with self._lock:
            self.finished.clear()
            self.dropped = 0
            self.streamed = 0
