"""Unit tests for the streaming telemetry pipeline (repro.telemetry.stream).

Exercises the chunked JSONL span sink (flush-on-chunk, deterministic
per-name sampling, drop accounting), the full TelemetryStream session
(config header, end-of-run snapshot, idempotent close), LiveExport file
handling, and the engine tick hooks that drive periodic hotspot sampling.
"""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro import telemetry
from repro.telemetry import (
    JsonlSpanStream,
    LiveExport,
    Telemetry,
    TelemetryConfig,
    TelemetryStream,
)
from repro.telemetry.report import render_report, rolling_imbalance


@pytest.fixture(autouse=True)
def _global_telemetry_off():
    telemetry.disable()
    yield
    telemetry.disable()


def _tel(**overrides) -> Telemetry:
    overrides.setdefault("enabled", True)
    return Telemetry(TelemetryConfig(**overrides))


def _events(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line]


def _records(text: str, kind: str) -> list[dict]:
    return [e for e in _events(text) if e["type"] == kind]


class TestJsonlSpanStream:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            JsonlSpanStream(io.StringIO(), chunk_size=0)
        with pytest.raises(ValueError):
            JsonlSpanStream(io.StringIO(), sample_every=0)

    def test_flushes_exactly_on_chunk_boundary(self):
        tel = _tel()
        out = io.StringIO()
        stream = JsonlSpanStream(out, chunk_size=4)
        tel.spans.sink = stream.offer
        for _ in range(3):
            with tel.span("s"):
                pass
        assert out.getvalue() == ""  # nothing written below the boundary
        assert stream.buffered == 3
        with tel.span("s"):
            pass
        assert stream.buffered == 0  # 4th span triggered the chunk flush
        assert stream.flushes == 1
        assert len(_events(out.getvalue())) == 4

    def test_peak_buffered_never_exceeds_chunk_size(self):
        tel = _tel()
        stream = JsonlSpanStream(io.StringIO(), chunk_size=8)
        tel.spans.sink = stream.offer
        for _ in range(100):
            with tel.span("s"):
                pass
        assert stream.peak_buffered <= 8
        assert len(tel.spans.finished) == 0  # sink consumed everything

    def test_sampling_is_deterministic_per_name(self):
        tel = _tel()
        out = io.StringIO()
        stream = JsonlSpanStream(out, chunk_size=1, sample_every=3)
        tel.spans.sink = stream.offer
        for _ in range(7):
            with tel.span("a"):
                pass
        for _ in range(2):
            with tel.span("b"):
                pass
        # every 3rd per name, starting with the first: a -> 3 kept, b -> 1.
        names = [e["name"] for e in _records(out.getvalue(), "span")]
        assert names == ["a", "a", "a", "b"]
        assert stream.written == 4
        assert stream.sampled_out == 5
        assert stream.sampled_out_by_name == {"a": 4, "b": 1}

    def test_offer_counts_are_thread_safe(self):
        tel = _tel()
        stream = JsonlSpanStream(io.StringIO(), chunk_size=64, sample_every=2)
        tel.spans.sink = stream.offer

        def worker():
            for _ in range(500):
                with tel.span("w"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stream.flush()
        assert stream.written + stream.sampled_out == 2000
        assert stream.written == 1000


class TestTelemetryStream:
    def test_header_then_snapshot_layout(self):
        tel = _tel(span_chunk_size=2)
        out = io.StringIO()
        stream = TelemetryStream(tel, out)
        tel.counter("builds").inc()
        with tel.span("s", n=1):
            pass
        acc = tel.hotspots("transport")
        acc.record_send(7, 10)
        acc.sample(1.0)
        lines = stream.close()
        events = _events(out.getvalue())
        assert lines == len(events)
        assert events[0]["type"] == "config"
        assert events[0]["span_chunk_size"] == 2
        kinds = [e["type"] for e in events]
        assert kinds.count("span_drops") == 1
        assert "metric" in kinds and "span" in kinds
        assert "hotspot_node" in kinds and "hotspot_sample" in kinds

    def test_close_is_idempotent_and_detaches_sink(self):
        tel = _tel()
        stream = TelemetryStream(tel, io.StringIO())
        first = stream.close()
        assert tel.spans.sink is None
        assert stream.close() == first
        # spans finished after close are retained, not streamed
        with tel.span("later"):
            pass
        assert len(tel.spans.finished) == 1

    def test_close_reads_shared_state_through_snapshots(self):
        # Regression: close() used to read the recorder's `finished` list
        # and the stream's sampling counters directly — fields the udprpc
        # receive thread mutates under their locks. The snapshot accessors
        # return consistent copies.
        tel = _tel()
        with tel.span("early"):
            pass
        snapshot = tel.spans.finished_snapshot()
        assert [span.name for span in snapshot] == ["early"]
        snapshot.clear()  # a copy: must not affect the recorder
        assert len(tel.spans.finished) == 1
        assert tel.spans.drop_stats() == (0, 0)
        out = io.StringIO()
        stream = TelemetryStream(tel, out, sample_every=2)
        for _ in range(4):
            with tel.span("late"):
                pass
        sampled_out, by_name = stream.stream.sampling_snapshot()
        assert sampled_out == 2
        assert by_name == {"late": 2}
        by_name["late"] = 99  # a copy: must not affect the stream
        assert stream.stream.sampling_snapshot()[1] == {"late": 2}
        lines = stream.close()
        assert lines == stream.stream.lines_written()

    def test_close_reads_the_sampling_counters_at_one_moment(self):
        # Regression: close() read `sampled_out` and `sampled_out_by_name`
        # as two unlocked loads, so an offer() on another thread between
        # its two counter updates left a drop record whose total and
        # per-name counts disagree.
        tel = _tel()
        out = io.StringIO()
        stream = TelemetryStream(tel, out, sample_every=2)
        for _ in range(2):
            with tel.span("late"):
                pass
        shared = stream.stream
        with shared._lock:  # an offer() between its two counter updates
            shared.sampled_out += 1
            closer = threading.Thread(target=stream.close)
            closer.start()
            closer.join(timeout=0.2)
            shared.sampled_out_by_name["late"] += 1
        closer.join(timeout=5.0)
        assert not closer.is_alive()
        (drops,) = _records(out.getvalue(), "span_drops")
        assert drops["sampled_out"] == 2
        assert drops["sampled_out_by_name"] == {"late": 2}

    def test_drop_accounting_combines_eviction_and_sampling(self):
        tel = _tel(max_spans=2)
        # Finish spans before any stream attaches: recorder retention evicts.
        for _ in range(5):
            with tel.span("early"):
                pass
        assert tel.spans.dropped == 3
        out = io.StringIO()
        stream = TelemetryStream(tel, out, sample_every=2)
        for _ in range(4):
            with tel.span("late"):
                pass
        stream.close()
        (drops,) = _records(out.getvalue(), "span_drops")
        assert drops["evicted"] == 3
        assert drops["sampled_out"] == 2
        assert drops["sampled_out_by_name"] == {"late": 2}
        assert drops["streamed"] == 4  # sink consumed all late spans
        # the two retained early spans were exported in the snapshot
        names = [e["name"] for e in _records(out.getvalue(), "span")]
        assert names.count("early") == 2
        assert names.count("late") == 2

    def test_empty_registry_export_renders(self):
        tel = _tel()
        out = io.StringIO()
        TelemetryStream(tel, out).close()
        events = _events(out.getvalue())
        assert [e["type"] for e in events] == ["config", "span_drops"]
        report = render_report(events)
        assert "(no spans)" in report
        assert "(no metrics)" in report

    def test_concurrent_sampling_during_record_replay(self):
        """sample() on a live accountant races record_send without tearing."""
        tel = _tel()
        out = io.StringIO()
        stream = TelemetryStream(tel, out, chunk_size=16)
        acc = tel.hotspots("churn.transport")
        stop = threading.Event()
        errors: list[Exception] = []

        def replay():
            for i in range(4000):
                acc.record_send(i % 37, 1, kind="stabilize")
                acc.record_receive((i + 1) % 37, 1)

        def sampler():
            t = 0.0
            while not stop.is_set():
                try:
                    t += 0.5
                    acc.sample(t)
                    tel.sample_hotspots(at=t)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)
                    return

        replayer = threading.Thread(target=replay)
        sampling = threading.Thread(target=sampler)
        sampling.start()
        replayer.start()
        replayer.join()
        stop.set()
        sampling.join()
        assert errors == []
        stream.close()
        samples = _records(out.getvalue(), "hotspot_sample")
        assert samples  # rolling series survived the race
        series = rolling_imbalance(_events(out.getvalue()), "churn")
        assert series["churn.transport"]


class TestLiveExport:
    def test_writes_both_formats(self, tmp_path):
        tel = _tel()
        jsonl = tmp_path / "t.jsonl"
        prom = tmp_path / "t.prom"
        live = LiveExport(tel, jsonl_path=jsonl, prom_path=prom)
        with tel.span("s"):
            pass
        tel.counter("c").inc()
        written = live.close()
        assert written["jsonl"] == len(_events(jsonl.read_text()))
        assert written["prom"] > 0
        assert "repro_c 1" in prom.read_text()
        assert live.close() == {}  # idempotent

    def test_no_paths_is_noop(self):
        tel = _tel()
        live = LiveExport(tel)
        assert live.close() == {}

    def test_spans_stream_during_run_not_at_close(self, tmp_path):
        tel = _tel()
        jsonl = tmp_path / "t.jsonl"
        with LiveExport(tel, jsonl_path=jsonl, chunk_size=1):
            with tel.span("s"):
                pass
            mid_run = jsonl.read_text()
            assert _records(mid_run, "span")  # already on disk
        assert len(tel.spans.finished) == 0


class TestMillionSpanBoundedMemory:
    def test_million_spans_bounded_by_chunk_size(self, tmp_path):
        """Acceptance: peak resident spans <= chunk size over 1M spans."""
        tel = _tel(span_chunk_size=1000, span_sample_every=20)
        out = tmp_path / "big.jsonl"
        n = 1_000_000
        with open(out, "w", encoding="utf-8") as handle:
            stream = TelemetryStream(tel, handle)
            span = tel.span  # bind once: this loop is the benchmark
            for i in range(n):
                with span("hot", i=i):
                    pass
            lines = stream.close()
        assert stream.stream.peak_buffered <= 1000
        assert len(tel.spans.finished) == 0  # nothing retained
        assert stream.stream.written == n // 20
        assert stream.stream.sampled_out == n - n // 20
        (drops,) = [
            json.loads(line)
            for line in open(out, encoding="utf-8")
            if '"span_drops"' in line
        ]
        assert drops["sampled_out"] == n - n // 20
        assert drops["streamed"] == n
        assert lines == n // 20 + 2  # spans + config + span_drops
