"""Unit tests for the repro.telemetry subsystem.

Covers the metric primitives (counter/gauge/histogram on the log-spaced
bucket grid), span recording and nesting, hotspot accounting (including
the thread-safety regression MessageStats inherited), the global runtime's
no-op path, both exporters, and the report CLI.
"""

from __future__ import annotations

import ast
import csv
import io
import json
import pathlib
import threading

import pytest

import repro
from repro import telemetry
from repro.telemetry import (
    NULL_SPAN,
    HotspotAccountant,
    MetricsRegistry,
    SpanRecorder,
    Telemetry,
    TelemetryConfig,
    TelemetryStream,
    log_buckets,
    prometheus_text,
)
from repro.telemetry.export import span_drops_record
from repro.telemetry.hotspot import percentile
from repro.telemetry.report import main as report_main
from repro.telemetry.report import (
    ROLLING_FIELDS,
    load,
    render_report,
    rolling_samples,
    write_rolling_csv,
    write_rolling_json,
)


@pytest.fixture(autouse=True)
def _global_telemetry_off():
    """Every test starts and ends with the global runtime uninstalled."""
    telemetry.disable()
    yield
    telemetry.disable()


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


# --------------------------------------------------------------------- #
# Config
# --------------------------------------------------------------------- #


class TestConfig:
    def test_disabled_by_default(self):
        assert TelemetryConfig().enabled is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_spans": 0},
            {"histogram_start": 0.0},
            {"histogram_factor": 1.0},
            {"histogram_count": 0},
            {"percentiles": (0.5, 1.5)},
        ],
    )
    def test_rejects_invalid_knobs(self, kwargs):
        with pytest.raises(ValueError):
            TelemetryConfig(**kwargs)

    def test_default_buckets_are_log_spaced(self):
        config = TelemetryConfig(histogram_start=1.0, histogram_factor=2.0, histogram_count=4)
        assert config.default_buckets() == (1.0, 2.0, 4.0, 8.0)


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #


class TestMetrics:
    def test_log_buckets_grid(self):
        assert log_buckets(1, 2, 3) == (1.0, 2.0, 4.0)
        with pytest.raises(ValueError):
            log_buckets(0, 2, 3)

    def test_counter_increments_and_labels(self):
        registry = MetricsRegistry(clock=FakeClock())
        counter = registry.counter("msgs", labels=("kind",))
        counter.inc(kind="lookup")
        counter.inc(2.0, kind="lookup")
        counter.inc(kind="notify")
        assert counter.value(kind="lookup") == 3.0
        assert counter.value(kind="notify") == 1.0

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry(clock=FakeClock()).counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_label_set_mismatch_is_an_error(self):
        counter = MetricsRegistry(clock=FakeClock()).counter("c", labels=("kind",))
        with pytest.raises(ValueError):
            counter.inc(scheme="basic")

    def test_registry_kind_and_label_conflicts(self):
        registry = MetricsRegistry(clock=FakeClock())
        registry.counter("x", labels=("a",))
        with pytest.raises(ValueError):
            registry.gauge("x", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("x", labels=("b",))

    def test_gauge_set_and_inc(self):
        gauge = MetricsRegistry(clock=FakeClock()).gauge("g")
        gauge.set(4.0)
        gauge.inc(-1.5)
        assert gauge.value() == 2.5

    def test_histogram_bucketing_and_inf_tail(self):
        registry = MetricsRegistry(clock=FakeClock(), default_buckets=(1.0, 2.0, 4.0))
        hist = registry.histogram("h")
        for value in (0.5, 1.0, 3.0, 100.0):
            hist.observe(value)
        (sample,) = hist.samples()
        # 0.5 and 1.0 land in le=1, 3.0 in le=4, 100.0 in the +Inf tail.
        assert sample.bucket_counts == (2, 0, 1, 1)
        assert sample.count == 4
        assert hist.sum_of() == pytest.approx(104.5)
        assert hist.count_of() == 4

    def test_samples_carry_clock_timestamps(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        counter = registry.counter("c")
        clock.t = 7.5
        counter.inc()
        (sample,) = counter.samples()
        assert sample.updated_at == 7.5


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #


class TestSpans:
    def test_context_manager_records_duration(self):
        clock = FakeClock()
        recorder = SpanRecorder(clock=clock)
        with recorder.start("build", key=42) as sp:
            clock.t = 1.5
            sp.set(height=3)
        (span,) = recorder.finished
        assert span.duration == 1.5
        assert span.attrs == {"key": 42, "height": 3}

    def test_nesting_assigns_parents(self):
        recorder = SpanRecorder(clock=FakeClock())
        with recorder.start("outer") as outer:
            with recorder.start("inner"):
                pass
        inner, finished_outer = recorder.finished
        assert inner.name == "inner" and inner.parent_id == outer.span_id
        assert finished_outer.parent_id is None

    def test_exception_recorded_as_error(self):
        recorder = SpanRecorder(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with recorder.start("boom"):
                raise RuntimeError("x")
        (span,) = recorder.finished
        assert span.error == "RuntimeError"

    def test_explicit_finish_is_idempotent(self):
        clock = FakeClock()
        recorder = SpanRecorder(clock=clock)
        span = recorder.start("round")
        clock.t = 1.0
        span.finish(n_states=4)
        clock.t = 2.0
        span.finish()
        assert span.end == 1.0
        assert span.attrs == {"n_states": 4}
        assert len(recorder.finished) == 1

    def test_retention_cap_evicts_oldest(self):
        recorder = SpanRecorder(clock=FakeClock(), max_spans=3)
        for i in range(5):
            recorder.start("s", i=i).finish()
        assert recorder.dropped == 2
        assert [span.attrs["i"] for span in recorder.finished] == [2, 3, 4]

    def test_by_name_and_names(self):
        recorder = SpanRecorder(clock=FakeClock())
        recorder.start("a").finish()
        recorder.start("b").finish()
        recorder.start("a").finish()
        assert len(recorder.by_name("a")) == 2
        assert recorder.names() == ["a", "b"]


# --------------------------------------------------------------------- #
# Hotspot accounting
# --------------------------------------------------------------------- #


class TestHotspots:
    def test_percentile_interpolates(self):
        assert percentile([0, 10], 0.5) == 5.0
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1], 1.0)

    def test_imbalance_matches_fig8_definition(self):
        acc = HotspotAccountant()
        acc.add_load(1, sent=8)
        acc.add_load(2, sent=1)
        acc.add_load(3, sent=1)
        # max=8, mean=10/3
        assert acc.imbalance() == pytest.approx(8 / (10 / 3))
        assert acc.max_load() == 8

    def test_zero_load_nodes_enter_population(self):
        acc = HotspotAccountant()
        acc.add_load(1, sent=4)
        acc.add_load(2)  # idle node, still counted in the mean
        assert acc.loads() == {1: 4, 2: 0}
        assert acc.imbalance() == pytest.approx(2.0)

    def test_add_load_rejects_negative(self):
        with pytest.raises(ValueError):
            HotspotAccountant().add_load(1, sent=-1)

    def test_sample_builds_series(self):
        acc = HotspotAccountant(percentiles=(0.5,))
        acc.add_load(1, sent=2)
        acc.add_load(2, sent=6)
        point = acc.sample(now=3.0)
        assert acc.series == [point]
        assert point.at == 3.0
        assert point.maximum == 6 and point.mean == 4.0
        assert point.imbalance == pytest.approx(1.5)
        assert point.percentile(0.5) == 4.0
        with pytest.raises(KeyError):
            point.percentile(0.99)

    def test_empty_accountant_statistics(self):
        acc = HotspotAccountant()
        assert acc.imbalance() == 0.0
        assert acc.max_load() == 0
        assert acc.mean_load() == 0.0
        with pytest.raises(ValueError):
            acc.percentile(0.5)

    def test_reset_clears_counters_and_series(self):
        acc = HotspotAccountant()
        acc.record_send(1, 10, kind="x")
        acc.sample(now=0.0)
        acc.reset()
        assert acc.nodes() == set()
        assert acc.series == []
        assert acc.by_kind() == {}

    def test_concurrent_writers_and_readers(self):
        """Regression: readers must not observe torn counter state.

        MessageStats historically locked writes only; unlocked reads from
        the UDP receive thread's counters could straddle a sent/received
        update. Hammer reads and writes concurrently and then check exact
        totals.
        """
        acc = HotspotAccountant()
        errors: list[Exception] = []
        stop = threading.Event()

        def writer():
            for _ in range(2000):
                acc.record_send(7, 1, kind="x")
                acc.record_receive(7, 1)

        def reader():
            while not stop.is_set():
                try:
                    load = acc.load(7)
                    assert load.sent >= 0 and load.received >= 0
                    acc.imbalance()
                    acc.loads()
                except Exception as exc:  # noqa: BLE001 - captured for the main thread
                    errors.append(exc)
                    return

        writers = [threading.Thread(target=writer) for _ in range(4)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert errors == []
        assert acc.load(7).sent == 8000
        assert acc.load(7).received == 8000


# --------------------------------------------------------------------- #
# Runtime: global install, helpers, no-op path
# --------------------------------------------------------------------- #


class TestRuntime:
    def test_disabled_helpers_are_noops(self):
        assert telemetry.active() is None
        assert telemetry.span("anything", key=1) is NULL_SPAN
        telemetry.count("x")  # must not raise
        telemetry.observe("y", 3.0)
        telemetry.gauge_set("z", 1.0)
        assert not telemetry.is_enabled()

    def test_configure_installs_and_disable_uninstalls(self):
        tel = telemetry.configure(enabled=True)
        assert tel is telemetry.active()
        telemetry.count("hits", kind="a")
        assert tel.counter("hits", labels=("kind",)).value(kind="a") == 1.0
        telemetry.disable()
        assert telemetry.active() is None

    def test_configure_disabled_config_uninstalls(self):
        telemetry.configure(enabled=True)
        assert telemetry.configure(TelemetryConfig()) is None
        assert telemetry.active() is None

    def test_enabled_context_restores_previous(self):
        with telemetry.enabled() as tel:
            assert telemetry.active() is tel
        assert telemetry.active() is None

    def test_names_are_namespaced(self):
        with telemetry.enabled() as tel:
            telemetry.count("dat_builds_total", scheme="basic")
            (family,) = tel.metrics.families()
            assert family.name == "repro_dat_builds_total"

    def test_span_helper_records_on_active_runtime(self):
        with telemetry.enabled() as tel:
            with telemetry.span("dat.build", key=5) as sp:
                assert sp is not NULL_SPAN
            (span,) = tel.spans.by_name("dat.build")
            assert span.attrs["key"] == 5

    def test_bind_clock_stamps_future_updates(self):
        clock = FakeClock()
        with telemetry.enabled() as tel:
            telemetry.bind_clock(clock)
            clock.t = 9.0
            telemetry.count("ticks")
            (sample,) = tel.counter("ticks").samples()
            assert sample.updated_at == 9.0

    def test_hotspots_get_or_create_and_register(self):
        with telemetry.enabled() as tel:
            acc = tel.hotspots("fig8.basic")
            assert tel.hotspots("fig8.basic") is acc
            external = HotspotAccountant()
            tel.register_hotspots("transport", external)
            assert tel.hotspots("transport") is external
            assert tel.hotspot_names() == ["fig8.basic", "transport"]

    def test_reset_clears_all_stores(self):
        with telemetry.enabled() as tel:
            telemetry.count("c")
            telemetry.span("s").finish()
            tel.hotspots("h").record_send(1)
            tel.reset()
            assert list(tel.metrics.samples()) == []
            assert tel.spans.finished == []
            assert tel.hotspots("h").nodes() == set()


# --------------------------------------------------------------------- #
# Exporters
# --------------------------------------------------------------------- #


def _populated_telemetry() -> Telemetry:
    tel = Telemetry(TelemetryConfig(enabled=True))
    tel.counter("events_total", labels=("kind",)).inc(kind="build")
    tel.histogram("hops", buckets=(1.0, 2.0, 4.0)).observe(3.0)
    tel.span("dat.build", key=1).finish()
    acc = tel.hotspots("transport")
    acc.add_load(1, sent=3, received=1)
    acc.add_load(2, sent=1)
    acc.sample(tel.now())
    return tel


def _export_lines(tel: Telemetry) -> list[str]:
    """``tel``'s JSONL export, written by the one writer, as lines."""
    out = io.StringIO()
    TelemetryStream(tel, out).close()
    return out.getvalue().splitlines()


def _write_export(path):
    with open(path, "w", encoding="utf-8") as handle:
        TelemetryStream(_populated_telemetry(), handle).close()
    return path


class TestExport:
    def test_jsonl_event_types_and_roundtrip(self):
        tel = _populated_telemetry()
        events = [json.loads(line) for line in _export_lines(tel)]
        by_type = {e["type"] for e in events}
        assert by_type == {
            "config",
            "metric",
            "span",
            "span_drops",
            "hotspot_node",
            "hotspot_sample",
        }
        node1 = next(
            e for e in events if e["type"] == "hotspot_node" and e["node"] == 1
        )
        assert node1["total"] == 4

    def test_jsonl_is_deterministic(self):
        a = _export_lines(_populated_telemetry())
        b = _export_lines(_populated_telemetry())
        assert a == b

    def test_jsonl_exports_the_spans_retained_when_it_reaches_them(self):
        # Regression: the export iterated the recorder's live list, so a
        # span finishing mid-export (the udprpc receive thread does that)
        # evicted a retained span from under the iterator and lost it.
        tel = Telemetry(TelemetryConfig(enabled=True, max_spans=2))
        tel.span("a").finish()
        tel.span("b").finish()
        names = []

        class Out(io.StringIO):
            def write(self, text):
                for line in text.splitlines():
                    event = json.loads(line)
                    if event["type"] == "span":
                        names.append(event["name"])
                        if names == ["a"]:
                            tel.span("c").finish()  # evicts "a"
                return super().write(text)

        TelemetryStream(tel, Out(), chunk_size=1).close()
        assert names == ["a", "b"]

    def test_drop_record_reads_both_counters_at_one_moment(self):
        # Regression: span_drops_record read `dropped` and `streamed` as two
        # unlocked loads, so a writer between its two updates produced a
        # pair no single moment had.
        spans = Telemetry(TelemetryConfig(enabled=True)).spans
        records = []
        with spans._lock:  # a writer between its two counter updates
            spans.dropped += 1
            reader = threading.Thread(
                target=lambda: records.append(span_drops_record(spans))
            )
            reader.start()
            reader.join(timeout=0.2)
            spans.streamed += 1
        reader.join(timeout=5.0)
        assert not reader.is_alive()
        assert (records[0]["evicted"], records[0]["streamed"]) == (1, 1)

    def test_stream_close_counts_lines(self):
        out = io.StringIO()
        n = TelemetryStream(_populated_telemetry(), out).close()
        # config + 2 metrics + span + span_drops + 2 nodes + sample
        assert n == len(out.getvalue().splitlines()) == 8

    def test_prometheus_histogram_is_cumulative(self):
        text = prometheus_text(_populated_telemetry())
        assert '# TYPE repro_hops histogram' in text
        assert 'repro_hops_bucket{le="2"} 0' in text
        assert 'repro_hops_bucket{le="4"} 1' in text
        assert 'repro_hops_bucket{le="+Inf"} 1' in text
        assert "repro_hops_count 1" in text

    def test_prometheus_hotspot_summaries(self):
        text = prometheus_text(_populated_telemetry())
        assert (
            'repro_hotspot_node_messages{accountant="transport",'
            'direction="sent",node="1"} 3'
        ) in text
        # max=4, mean=2.5 -> imbalance 1.6
        assert 'repro_hotspot_imbalance{accountant="transport"} 1.6' in text

    def test_prometheus_escapes_label_values(self):
        tel = Telemetry(TelemetryConfig(enabled=True))
        tel.gauge("g", labels=("tag",)).set(1.0, tag='a"b\\c')
        text = prometheus_text(tel)
        assert 'tag="a\\"b\\\\c"' in text


# --------------------------------------------------------------------- #
# Report CLI
# --------------------------------------------------------------------- #


class TestReport:
    def _export(self, tmp_path):
        return _write_export(tmp_path / "run.jsonl")

    def test_render_report_sections(self, tmp_path):
        text = render_report(load([self._export(tmp_path)]).events)
        assert "== metrics ==" in text
        assert "repro_events_total" in text
        assert "dat.build" in text
        assert "[transport]" in text and "imbalance=1.600" in text

    def test_cli_happy_path(self, tmp_path, capsys):
        path = self._export(tmp_path)
        assert report_main([str(path), "--section", "hotspots"]) == 0
        out = capsys.readouterr().out
        assert "== hotspots ==" in out
        assert "== metrics ==" not in out

    def test_cli_missing_file_exits_2(self, tmp_path, capsys):
        assert report_main([str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_malformed_line_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"metric"}\nnot json\n')
        assert report_main([str(path)]) == 2
        assert "line 2" in capsys.readouterr().err


class TestRollingArtifacts:
    """The plot-ready CSV/JSON emitters for the rolling-imbalance series."""

    def _events(self):
        return [json.loads(line) for line in _export_lines(_populated_telemetry())]

    def test_rolling_samples_shape(self):
        records = rolling_samples(self._events())
        assert len(records) == 1
        record = records[0]
        assert tuple(record) == ROLLING_FIELDS
        assert record["accountant"] == "transport"
        # loads: node1=4, node2=1 -> total 5, mean 2.5, max 4, imbalance 1.6
        assert record["n_nodes"] == 2
        assert record["total"] == 5
        assert record["maximum"] == 4
        assert record["imbalance"] == 1.6

    def test_rolling_samples_accountant_filter(self):
        events = self._events()
        assert rolling_samples(events, accountant="transp")
        assert rolling_samples(events, accountant="no-such") == []

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "rolling.csv"
        assert write_rolling_csv(self._events(), str(path)) == 1
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert rows[0]["accountant"] == "transport"
        assert float(rows[0]["imbalance"]) == 1.6
        assert int(rows[0]["maximum"]) == 4

    def test_csv_empty_series_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert write_rolling_csv([], str(path)) == 0
        header = path.read_text(encoding="utf-8").strip()
        assert header == ",".join(ROLLING_FIELDS)

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "rolling.json"
        assert write_rolling_json(self._events(), str(path)) == 1
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["fields"] == list(ROLLING_FIELDS)
        assert document["samples"][0]["imbalance"] == 1.6

    def test_cli_flags_write_artifacts(self, tmp_path, capsys):
        export = _write_export(tmp_path / "run.jsonl")
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        code = report_main(
            [
                str(export),
                "--section", "samples",
                "--rolling-csv", str(csv_path),
                "--rolling-json", str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote 1 rolling sample(s) to {csv_path}" in out
        assert csv_path.exists() and json_path.exists()

    def test_cli_unwritable_artifact_exits_2(self, tmp_path, capsys):
        export = _write_export(tmp_path / "run.jsonl")
        bad = tmp_path / "no-such-dir" / "out.csv"
        assert report_main([str(export), "--rolling-csv", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestMetricCatalogue:
    """Every metric name the library emits has a row in the catalogue."""

    EMITTERS = {"count", "observe", "gauge_set"}

    def _emitted_names(self):
        names: dict[str, str] = {}
        src = pathlib.Path(repro.__file__).parent
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self.EMITTERS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "telemetry"
                    and node.args
                ):
                    continue
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    names.setdefault(first.value, f"{path.relative_to(src)}:{node.lineno}")
        return names

    def test_every_emitted_name_is_catalogued(self):
        doc = pathlib.Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"
        text = doc.read_text(encoding="utf-8")
        catalogue = text.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
        names = self._emitted_names()
        assert "agg_pushes_total" in names and "net_batch_occupancy" in names
        missing = {
            name: where for name, where in names.items()
            if f"`repro_{name}`" not in catalogue
        }
        assert not missing, f"no row in docs/OBSERVABILITY.md for {missing}"
