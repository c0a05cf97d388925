"""The JSONL writer: bounded-memory span pipelines and end-of-run snapshots.

An export taken only at the end of a run materializes every retained span,
which for million-event runs means either unbounded memory or silent
``max_spans`` eviction. This module, the one JSONL writer, turns the export
into a *live pipeline*:

* :class:`JsonlSpanStream` attaches to the
  :class:`~repro.telemetry.spans.SpanRecorder` as its sink. Finished
  spans are encoded immediately, buffered up to ``chunk_size`` lines,
  and flushed to the output file — peak resident spans never exceed the
  chunk size. A deterministic sampling knob (``sample_every``: keep
  every k-th span *per span name*, counter-based, no RNG — replays stay
  byte-identical) thins high-frequency spans, and everything it skips is
  counted and reported in the final ``span_drops`` record instead of
  silently evicted.
* :class:`TelemetryStream` is the whole session: it writes the
  ``config`` header, installs the span stream, and on :meth:`close`
  appends the end-of-run snapshot (metrics, retained spans, hotspot nodes
  + rolling samples, drop accounting), so a file is complete whether its
  spans streamed or were retained; closing a stream right after opening
  it writes a plain end-of-run snapshot.
* :class:`LiveExport` owns the files: the experiments CLI's
  ``--telemetry-jsonl`` / ``--telemetry-prom`` / ``--trace-jsonl`` and a
  fleet agent's span export.
"""

from __future__ import annotations

import os
import threading
from typing import IO, TYPE_CHECKING, Union

from repro.telemetry.export import (
    config_record,
    encode_record,
    hotspot_records,
    metric_record,
    span_drops_record,
    span_record,
    write_prometheus,
)
from repro.telemetry.spans import Span

if TYPE_CHECKING:
    from repro.telemetry.runtime import Telemetry

__all__ = ["JsonlSpanStream", "TelemetryStream", "LiveExport"]

PathLike = Union[str, os.PathLike]


class JsonlSpanStream:
    """Chunk-buffered JSONL span sink with deterministic sampling.

    Usable directly as a :attr:`SpanRecorder.sink
    <repro.telemetry.spans.SpanRecorder.sink>`: :meth:`offer` returns
    ``True`` for every span (written or sampled out), so the recorder
    never retains them and memory stays bounded by ``chunk_size``.
    """

    def __init__(
        self, out: IO[str], chunk_size: int = 4096, sample_every: int = 1
    ) -> None:
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self._out = out
        self.chunk_size = chunk_size
        self.sample_every = sample_every
        self.written = 0
        self.total_lines = 0
        self.sampled_out = 0
        self.sampled_out_by_name: dict[str, int] = {}
        self.flushes = 0
        self.peak_buffered = 0
        self._buffer: list[str] = []
        self._seen: dict[str, int] = {}
        # The UDP transport finishes spans on its receive thread while the
        # caller's thread finishes others; buffer and counters are shared.
        self._lock = threading.Lock()

    def offer(self, span: Span) -> bool:
        """Consume one finished span (sink protocol; always ``True``)."""
        with self._lock:
            seen = self._seen.get(span.name, 0)
            self._seen[span.name] = seen + 1
            if seen % self.sample_every:
                self.sampled_out += 1
                self.sampled_out_by_name[span.name] = (
                    self.sampled_out_by_name.get(span.name, 0) + 1
                )
                return True
            self._buffer.append(encode_record(span_record(span)))
            self.written += 1
            self.total_lines += 1
            if len(self._buffer) > self.peak_buffered:
                self.peak_buffered = len(self._buffer)
            if len(self._buffer) >= self.chunk_size:
                self._flush_locked()
        return True

    __call__ = offer

    def write_record(self, record: dict[str, object]) -> None:
        """Append a non-span record (config/metric/...) through the buffer."""
        with self._lock:
            self._buffer.append(encode_record(record))
            self.total_lines += 1
            if len(self._buffer) > self.peak_buffered:
                self.peak_buffered = len(self._buffer)
            if len(self._buffer) >= self.chunk_size:
                self._flush_locked()

    def _flush_locked(self) -> None:
        if self._buffer:
            self._out.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
            self.flushes += 1
            # Push through the file object's own buffer too: a live tail
            # (or a crashed run's post-mortem) sees every completed chunk.
            flush = getattr(self._out, "flush", None)
            if flush is not None:
                flush()

    def flush(self) -> None:
        """Write out any buffered lines (called on chunk boundaries and close)."""
        with self._lock:
            self._flush_locked()

    def sampling_snapshot(self) -> tuple[int, dict[str, int]]:
        """``(sampled_out, sampled_out_by_name)`` read under the lock."""
        with self._lock:
            return self.sampled_out, dict(self.sampled_out_by_name)

    def lines_written(self) -> int:
        """Total lines accepted so far (spans and records), under the lock."""
        with self._lock:
            return self.total_lines

    @property
    def buffered(self) -> int:
        """Lines currently waiting for the next chunk flush."""
        with self._lock:
            return len(self._buffer)


class TelemetryStream:
    """One live-export session over a telemetry runtime.

    Construction writes the ``config`` header and installs the span sink;
    :meth:`close` flushes, appends the end-of-run snapshot (any retained
    spans that finished before the stream attached, metrics, hotspots,
    the ``span_drops`` accounting record), and detaches the sink.
    Idempotent close; usable as a context manager.
    """

    def __init__(
        self,
        tel: "Telemetry",
        out: IO[str],
        chunk_size: int | None = None,
        sample_every: int | None = None,
    ) -> None:
        self.tel = tel
        self.stream = JsonlSpanStream(
            out,
            chunk_size=tel.config.span_chunk_size if chunk_size is None else chunk_size,
            sample_every=(
                tel.config.span_sample_every if sample_every is None else sample_every
            ),
        )
        self.lines = 0
        self._closed = False
        self.stream.write_record(config_record(tel))
        # One bound-method object, kept for the identity test in close():
        # ``self.stream.offer`` creates a fresh object per access.
        self._sink = self.stream.offer
        tel.spans.sink = self._sink

    def close(self) -> int:
        """Finish the export; returns the total number of lines written."""
        if self._closed:
            return self.lines
        self._closed = True
        tel = self.tel
        if tel.spans.sink is self._sink:
            tel.spans.sink = None
        for sample in tel.metrics.samples():
            self.stream.write_record(metric_record(sample))
        # Spans that finished before the sink attached (or while a foreign
        # sink declined them) sit in the recorder; export them too so the
        # streamed file is a superset of what retention would have kept.
        for span in tel.spans.finished_snapshot():
            self.stream.write_record(span_record(span))
        sampled_out, sampled_out_by_name = self.stream.sampling_snapshot()
        self.stream.write_record(
            span_drops_record(
                tel.spans,
                sampled_out=sampled_out,
                sampled_out_by_name=sampled_out_by_name,
            )
        )
        for name in tel.hotspot_names():
            for record in hotspot_records(name, tel.hotspots(name)):
                self.stream.write_record(record)
        self.stream.flush()
        self.lines = self.stream.lines_written()
        return self.lines

    def __enter__(self) -> "TelemetryStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class LiveExport:
    """File-owning live telemetry export for deployments and the CLI.

    Opens ``jsonl_path`` (if given) and attaches a :class:`TelemetryStream`
    immediately — spans stream to disk for the whole run. :meth:`close`
    finalizes the JSONL file and writes the Prometheus snapshot to
    ``prom_path`` (if given). No-op when either path is ``None``.
    """

    def __init__(
        self,
        tel: "Telemetry",
        jsonl_path: PathLike | None = None,
        prom_path: PathLike | None = None,
        chunk_size: int | None = None,
        sample_every: int | None = None,
    ) -> None:
        self.tel = tel
        self._prom_path = prom_path
        self._handle: IO[str] | None = None
        self._stream: TelemetryStream | None = None
        self._closed = False
        if jsonl_path is not None:
            self._handle = open(jsonl_path, "w", encoding="utf-8")
            self._stream = TelemetryStream(
                tel, self._handle, chunk_size=chunk_size, sample_every=sample_every
            )

    def close(self) -> dict[str, int]:
        """Finalize all outputs; returns lines written per format."""
        if self._closed:
            return {}
        self._closed = True
        written: dict[str, int] = {}
        if self._stream is not None:
            written["jsonl"] = self._stream.close()
            assert self._handle is not None
            self._handle.close()
            self._handle = None
        if self._prom_path is not None:
            with open(self._prom_path, "w", encoding="utf-8") as handle:
                written["prom"] = write_prometheus(self.tel, handle)
        return written

    def __enter__(self) -> "LiveExport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
