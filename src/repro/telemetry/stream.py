"""The JSONL writer: spans streamed as they finish, then an end-of-run snapshot.

An export taken only at the end of a run materializes every retained span,
which for million-event runs means either unbounded memory or silent
``max_spans`` eviction. :class:`TelemetryStream`, the one JSONL writer,
turns the export into a live pipeline over a file the caller opens:

* construction writes the ``config`` header and installs the stream as
  the :class:`~repro.telemetry.spans.SpanRecorder`'s sink, so finished
  spans are encoded at once and never retained;
* span lines are buffered under the stream's lock and written in chunks
  of :data:`~repro.telemetry.config.SPAN_CHUNK_SIZE` lines, so resident
  spans never exceed the chunk whatever the run length;
* :meth:`~TelemetryStream.close` appends the metrics, any retained spans,
  the ``span_drops`` accounting and the hotspot records, so a file is
  complete whether its spans streamed or were retained.
"""

from __future__ import annotations

import threading
from typing import IO, TYPE_CHECKING, Iterator

from repro.telemetry.config import SPAN_CHUNK_SIZE
from repro.telemetry.export import (
    config_record,
    encode_record,
    hotspot_records,
    metric_record,
    span_drops_record,
    span_record,
)
from repro.telemetry.spans import Span

if TYPE_CHECKING:
    from repro.telemetry.runtime import Telemetry

__all__ = ["TelemetryStream"]


class TelemetryStream:
    """One live JSONL export of ``tel`` to ``out``; the recorder's span sink.

    Every finished span is consumed (the recorder counts it as streamed
    and retains nothing) until :meth:`close`, which detaches the stream
    and finishes the file. The caller owns ``out``.
    """

    def __init__(self, tel: "Telemetry", out: IO[str]) -> None:
        self.tel = tel
        self._out = out
        self._buffer = [encode_record(config_record(tel))]
        self._lines = 0
        self._closed = False
        # The UDP transport finishes spans on its receive thread while the
        # caller's thread finishes others; the buffer is shared.
        self._lock = threading.Lock()
        tel.spans.sink = self

    def __call__(self, span: Span) -> bool:
        """Consume one finished span (the sink protocol)."""
        with self._lock:
            if self._closed:
                return False  # the recorder retains it instead
            self._append_locked(span_record(span))
        return True

    def _append_locked(self, record: dict[str, object]) -> None:
        self._buffer.append(encode_record(record))
        if len(self._buffer) >= SPAN_CHUNK_SIZE:
            self._flush_locked()

    def _flush_locked(self) -> None:
        self._out.write("\n".join(self._buffer) + "\n")
        self._lines += len(self._buffer)
        self._buffer.clear()
        # Push through the file object's own buffer too: a live tail (or a
        # crashed run's post-mortem) sees every completed chunk.
        self._out.flush()

    def _snapshot(self) -> Iterator[dict[str, object]]:
        """The end-of-run records: metrics, retained spans, drops, hotspots."""
        tel = self.tel
        for sample in tel.metrics.samples():
            yield metric_record(sample)
        # Spans that finished before the stream attached sit in the
        # recorder; export them too, so the file is a superset of what
        # retention would have kept.
        for span in tel.spans.finished_snapshot():
            yield span_record(span)
        yield span_drops_record(tel.spans)
        for name in tel.hotspot_names():
            yield from hotspot_records(name, tel.hotspots(name))

    def close(self) -> int:
        """Finish the export (idempotent); returns the lines written."""
        with self._lock:
            if self._closed:
                return self._lines
            self._closed = True
            if self.tel.spans.sink is self:
                self.tel.spans.sink = None
            for record in self._snapshot():
                self._append_locked(record)
            if self._buffer:
                self._flush_locked()
            return self._lines
