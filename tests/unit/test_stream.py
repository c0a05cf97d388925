"""Unit tests for the JSONL writer (repro.telemetry.stream.TelemetryStream).

Exercises the stream as the recorder's span sink (flush on the chunk
boundary, bounded buffering, concurrent offers), the session (config
header, end-of-run snapshot, drop accounting, idempotent close), and the
file exports the experiments CLI writes.
"""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro import telemetry
from repro.experiments.cli import main as experiments_main
from repro.telemetry import Telemetry, TelemetryConfig, TelemetryStream, stream
from repro.telemetry.config import SPAN_CHUNK_SIZE
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


class Writes(io.StringIO):
    """A file that also records how many lines each write carried."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[int] = []

    def write(self, text: str) -> int:
        self.writes.append(text.count("\n"))
        return super().write(text)


class TestJsonlSpanStream:
    """The stream as the recorder's span sink."""

    def test_flushes_exactly_on_chunk_boundary(self, monkeypatch):
        monkeypatch.setattr(stream, "SPAN_CHUNK_SIZE", 4)
        tel = _tel()
        out = Writes()
        TelemetryStream(tel, out)
        for _ in range(2):
            with tel.span("s"):
                pass
        assert out.writes == []  # header + 2 spans: below the boundary
        with tel.span("s"):
            pass
        assert out.writes == [4]  # the 3rd span filled the chunk
        assert [e["type"] for e in _events(out.getvalue())] == ["config"] + ["span"] * 3

    def test_peak_buffered_never_exceeds_chunk_size(self, monkeypatch):
        monkeypatch.setattr(stream, "SPAN_CHUNK_SIZE", 8)
        tel = _tel()
        out = Writes()
        TelemetryStream(tel, out)
        for _ in range(100):
            with tel.span("s"):
                pass
        # Each write empties the buffer, so full chunks mean it never held more.
        assert out.writes == [8] * 12
        assert len(tel.spans.finished) == 0  # sink consumed everything

    def test_offer_counts_are_thread_safe(self, monkeypatch):
        monkeypatch.setattr(stream, "SPAN_CHUNK_SIZE", 64)
        tel = _tel()
        out = io.StringIO()
        session = TelemetryStream(tel, out)

        def worker():
            for _ in range(500):
                with tel.span("w"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
            assert not t.is_alive()
        lines = session.close()
        assert len(_records(out.getvalue(), "span")) == 2000
        (drops,) = _records(out.getvalue(), "span_drops")
        assert drops["streamed"] == 2000
        assert lines == len(_events(out.getvalue()))


class TestTelemetryStream:
    def test_header_then_snapshot_layout(self):
        tel = _tel()
        out = io.StringIO()
        session = TelemetryStream(tel, out)
        tel.counter("builds").inc()
        with tel.span("s", n=1):
            pass
        acc = tel.hotspots("transport")
        acc.record_send(7, 10)
        acc.sample(1.0)
        lines = session.close()
        events = _events(out.getvalue())
        assert lines == len(events)
        assert events[0]["type"] == "config"
        assert events[0]["span_chunk_size"] == SPAN_CHUNK_SIZE
        kinds = [e["type"] for e in events]
        assert kinds.count("span_drops") == 1
        assert "metric" in kinds and "span" in kinds
        assert "hotspot_node" in kinds and "hotspot_sample" in kinds

    def test_close_is_idempotent_and_detaches_sink(self):
        tel = _tel()
        session = TelemetryStream(tel, io.StringIO())
        first = session.close()
        assert tel.spans.sink is None
        assert session.close() == first
        # spans finished after close are retained, not streamed
        with tel.span("later"):
            pass
        assert len(tel.spans.finished) == 1

    def test_close_reads_shared_state_through_snapshots(self):
        # Regression: close() used to read the recorder's `finished` list
        # directly — a field the udprpc receive thread mutates under its
        # lock. The snapshot accessors return consistent copies.
        tel = _tel()
        with tel.span("early"):
            pass
        snapshot = tel.spans.finished_snapshot()
        assert [span.name for span in snapshot] == ["early"]
        snapshot.clear()  # a copy: must not affect the recorder
        assert len(tel.spans.finished) == 1
        assert tel.spans.drop_stats() == (0, 0)
        out = io.StringIO()
        session = TelemetryStream(tel, out)
        for _ in range(4):
            with tel.span("late"):
                pass
        lines = session.close()
        assert lines == len(_events(out.getvalue()))
        names = [e["name"] for e in _records(out.getvalue(), "span")]
        assert names == ["late"] * 4 + ["early"]

    def test_drop_accounting_combines_eviction_and_streaming(self):
        tel = _tel()
        tel.spans.max_spans = 2
        # Finish spans before any stream attaches: recorder retention evicts.
        for _ in range(5):
            with tel.span("early"):
                pass
        assert tel.spans.dropped == 3
        out = io.StringIO()
        session = TelemetryStream(tel, out)
        for _ in range(4):
            with tel.span("late"):
                pass
        session.close()
        (drops,) = _records(out.getvalue(), "span_drops")
        assert drops == {"type": "span_drops", "evicted": 3, "streamed": 4}
        # the two retained early spans were exported in the snapshot
        names = [e["name"] for e in _records(out.getvalue(), "span")]
        assert names.count("early") == 2
        assert names.count("late") == 4

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
        session = TelemetryStream(tel, out)
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
        session.close()
        samples = _records(out.getvalue(), "hotspot_sample")
        assert samples  # rolling series survived the race
        series = rolling_imbalance(_events(out.getvalue()), "churn")
        assert series["churn.transport"]


class TestLiveExport:
    """Exports to files while a run goes on, as the experiments CLI writes them."""

    def test_writes_both_formats(self, tmp_path, capsys):
        jsonl = tmp_path / "t.jsonl"
        prom = tmp_path / "t.prom"
        code = experiments_main(
            ["fig8a", "--quick", "--telemetry-jsonl", str(jsonl),
             "--telemetry-prom", str(prom)]
        )
        assert code == 0
        assert not telemetry.is_enabled()  # the CLI uninstalls what it set up
        events = _events(jsonl.read_text())
        assert events[0]["type"] == "config"
        assert "experiment.fig8a" in {e.get("name") for e in events}
        assert 'repro_fig8a_imbalance{scheme="balanced"}' in prom.read_text()

    def test_no_paths_is_noop(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert experiments_main(["fig8a", "--quick"]) == 0
        assert not telemetry.is_enabled()
        assert list(tmp_path.iterdir()) == []

    def test_spans_stream_during_run_not_at_close(self, tmp_path, monkeypatch):
        monkeypatch.setattr(stream, "SPAN_CHUNK_SIZE", 2)
        tel = _tel()
        jsonl = tmp_path / "t.jsonl"
        with open(jsonl, "w", encoding="utf-8") as handle:
            session = TelemetryStream(tel, handle)
            with tel.span("s"):
                pass
            mid_run = jsonl.read_text()
            assert _records(mid_run, "span")  # already on disk
            session.close()
        assert len(tel.spans.finished) == 0


class Lines:
    """A file stand-in that keeps only each write's line count and the last write."""

    def __init__(self) -> None:
        self.writes: list[int] = []
        self.last = ""

    def write(self, text: str) -> int:
        self.writes.append(text.count("\n"))
        self.last = text
        return len(text)

    def flush(self) -> None:
        pass


class TestMillionSpanBoundedMemory:
    def test_million_spans_bounded_by_chunk_size(self, monkeypatch):
        """Acceptance: peak resident spans <= chunk size over 1M spans."""
        monkeypatch.setattr(stream, "SPAN_CHUNK_SIZE", 1000)
        tel = _tel()
        out = Lines()
        session = TelemetryStream(tel, out)
        n = 1_000_000
        span = tel.span  # bind once: this loop is the benchmark
        for i in range(n):
            with span("hot", i=i):
                pass
        lines = session.close()
        assert max(out.writes) <= 1000
        assert len(tel.spans.finished) == 0  # nothing retained
        assert lines == sum(out.writes) == n + 2  # spans + config + span_drops
        (drops,) = _records(out.last, "span_drops")
        assert drops["streamed"] == n
