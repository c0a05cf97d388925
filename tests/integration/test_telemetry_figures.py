"""Integration: every paper figure reconstructs from streamed telemetry alone.

The acceptance property of the live telemetry pipeline: run Fig. 7,
Fig. 9, the dynamics sweep, the churn-overhead experiment, and the
centralized baselines with a streaming JSONL export attached, throw the
in-process results away, and rebuild each figure's numbers from the
export file — they must match the experiments' own outputs. (Fig. 8 has
its own dedicated round-trip test in ``test_telemetry_fig8.py``.)
"""

from __future__ import annotations

import json
import math

import pytest

from repro import telemetry
from repro.chord.idgen import ProbingIdAssigner
from repro.chord.idspace import IdSpace
from repro.baselines.centralized import CentralizedAggregator
from repro.experiments.churn_overhead import run_churn_overhead
from repro.experiments.dynamics import run_dynamics
from repro.experiments.fig7_tree_properties import run_fig7_tree_properties
from repro.experiments.fig9_accuracy import run_fig9_accuracy
from repro.telemetry import TelemetryStream
from repro.telemetry.report import rolling_imbalance

FIG7_CONFIGS = [("balanced", "probing"), ("basic", "random")]
FIG7_SIZES = [16, 32]
FIG9_SLOTS = 12
DYNAMICS_RATES = [0.0, 0.5]
DYNAMICS_DURATION = 10.0
SAMPLE_WINDOW = 1.0


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """Run every figure experiment under one streamed export."""
    path = tmp_path_factory.mktemp("telemetry") / "figures.jsonl"
    tel = telemetry.configure(enabled=True, sample_window=SAMPLE_WINDOW)
    assert tel is not None
    handle = open(path, "w", encoding="utf-8")
    live = TelemetryStream(tel, handle)
    try:
        fig7 = run_fig7_tree_properties(
            sizes=FIG7_SIZES, n_seeds=1, configs=FIG7_CONFIGS
        )
        fig9 = run_fig9_accuracy(
            n_nodes=32, bits=16, mode="continuous", n_slots=FIG9_SLOTS
        )
        dynamics = run_dynamics(
            churn_rates=DYNAMICS_RATES,
            n_nodes=16,
            bits=16,
            duration=DYNAMICS_DURATION,
        )
        churn = run_churn_overhead(n_nodes=16, bits=16, n_churn_events=3)
        space = IdSpace(16)
        ring = ProbingIdAssigner().build_ring(space, 24, rng=2007)
        CentralizedAggregator(ring, key=0x1234, routed=False).message_loads()
        CentralizedAggregator(ring, key=0x1234).message_loads()
        live.close()
    finally:
        live.close()
        handle.close()
        telemetry.disable()
    with open(path, encoding="utf-8") as handle:
        events = [json.loads(line) for line in handle if line.strip()]
    return {
        "fig7": fig7,
        "fig9": fig9,
        "dynamics": dynamics,
        "churn": churn,
        "ring": ring,
        "events": events,
    }


def _metrics(events, name):
    """All metric records for one (qualified) metric name."""
    return [
        e for e in events if e["type"] == "metric" and e["name"] == f"repro_{name}"
    ]


def _gauge(events, name, **labels):
    """The value of one gauge sample, matched by its full label set."""
    want = {k: str(v) for k, v in labels.items()}
    matches = [e for e in _metrics(events, name) if e["labels"] == want]
    assert len(matches) == 1, (name, labels, matches)
    return float(matches[0]["value"])


class TestFig7FromTelemetry:
    def test_every_point_reconstructs(self, exported):
        events = exported["events"]
        points = exported["fig7"]
        assert len(points) == len(FIG7_CONFIGS) * len(FIG7_SIZES)
        for point in points:
            labels = {
                "scheme": point.scheme, "ids": point.id_strategy, "n": point.n_nodes
            }
            assert _gauge(events, "fig7_max_branching", **labels) == pytest.approx(
                point.max_branching
            )
            assert _gauge(events, "fig7_avg_branching", **labels) == pytest.approx(
                point.avg_branching
            )
            assert _gauge(events, "fig7_height", **labels) == pytest.approx(
                point.height
            )


class TestFig9FromTelemetry:
    def _series(self, events, name):
        samples = _metrics(events, name)
        assert len(samples) == FIG9_SLOTS
        by_slot = {int(e["labels"]["slot"]): float(e["value"]) for e in samples}
        return [by_slot[slot] for slot in sorted(by_slot)]

    def test_per_slot_series_reconstruct(self, exported):
        events = exported["events"]
        fig9 = exported["fig9"]
        assert self._series(events, "fig9_actual") == pytest.approx(fig9.actual)
        assert self._series(events, "fig9_aggregated") == pytest.approx(
            fig9.aggregated
        )

    def test_error_gauges_match_series_recomputation(self, exported):
        events = exported["events"]
        fig9 = exported["fig9"]
        actual = self._series(events, "fig9_actual")
        aggregated = self._series(events, "fig9_aggregated")
        mean_rel = sum(
            abs(a - b) / a for a, b in zip(actual, aggregated)
        ) / len(actual)
        assert _gauge(
            events, "fig9_mean_relative_error", mode="continuous"
        ) == pytest.approx(mean_rel)
        assert _gauge(
            events, "fig9_max_relative_error", mode="continuous"
        ) == pytest.approx(
            max(abs(a - b) / a for a, b in zip(actual, aggregated))
        )
        assert _gauge(
            events, "fig9_correlation", mode="continuous"
        ) == pytest.approx(fig9.correlation())

    def test_staleness_gauge_bounds_reading_age(self, exported):
        events = exported["events"]
        staleness = _gauge(events, "fig9_max_staleness_seconds", mode="continuous")
        assert staleness > 0.0
        assert math.isfinite(staleness)


class TestDynamicsFromTelemetry:
    def test_per_rate_gauges_reconstruct(self, exported):
        events = exported["events"]
        for point in exported["dynamics"].points:
            labels = {"churn_rate": f"{point.churn_rate:g}"}
            assert _gauge(
                events, "dynamics_mean_relative_error", **labels
            ) == pytest.approx(point.mean_relative_error)
            assert _gauge(
                events, "dynamics_max_relative_error", **labels
            ) == pytest.approx(point.max_relative_error)
            assert _gauge(
                events, "dynamics_availability", **labels
            ) == pytest.approx(point.availability)
            assert _gauge(
                events, "dynamics_incremental_updates", **labels
            ) == pytest.approx(point.mean_incremental_updates)
            assert _gauge(events, "dynamics_samples_total", **labels) == float(
                point.n_samples
            )

    def test_rolling_imbalance_covers_every_window(self, exported):
        series = rolling_imbalance(exported["events"], "dynamics")
        assert set(series) == {
            f"dynamics.rate{rate:g}" for rate in DYNAMICS_RATES
        }
        min_samples = int(DYNAMICS_DURATION / SAMPLE_WINDOW) - 1
        for name, points in series.items():
            assert len(points) >= min_samples, name
            times = [t for t, _ in points]
            assert times == sorted(times)
            # consecutive samples are one window apart: no skipped windows
            gaps = [b - a for a, b in zip(times, times[1:])]
            assert all(gap == pytest.approx(SAMPLE_WINDOW) for gap in gaps), name


class TestChurnFromTelemetry:
    def test_overhead_gauges_reconstruct(self, exported):
        events = exported["events"]
        churn = exported["churn"]
        assert _gauge(events, "churn_total_messages") == float(
            churn.total_messages
        )
        assert _gauge(events, "churn_messages_per_node_second") == pytest.approx(
            churn.messages_per_node_second
        )
        rounds = churn.repair_rounds
        assert _gauge(events, "churn_mean_repair_rounds") == pytest.approx(
            sum(rounds) / len(rounds) if rounds else 0.0
        )

    def test_by_kind_counters_reconstruct(self, exported):
        events = exported["events"]
        churn = exported["churn"]
        by_kind = {
            e["labels"]["kind"]: int(e["value"])
            for e in _metrics(events, "churn_messages_total")
        }
        assert by_kind == churn.by_kind

    def test_repair_rounds_histogram_uses_unit_buckets(self, exported):
        events = exported["events"]
        (hist,) = _metrics(events, "churn_repair_rounds")
        assert hist["kind"] == "histogram"
        buckets = hist["buckets"]
        # the per-metric override: unit-width buckets so "repaired in k
        # rounds" is readable directly off the figure
        assert buckets[:4] == [1.0, 2.0, 3.0, 4.0]
        assert hist["count"] == len(exported["churn"].repair_rounds)
        total = sum(hist["bucket_counts"])
        assert total == hist["count"]


class TestBaselinesFromTelemetry:
    def test_direct_variant_counts_one_send_per_node(self, exported):
        events = exported["events"]
        n = len(exported["ring"])
        assert _gauge(
            events, "baseline_messages_total", variant="direct"
        ) == float(n - 1)

    def test_routed_variant_counts_all_hops(self, exported):
        events = exported["events"]
        n = len(exported["ring"])
        routed = _gauge(events, "baseline_messages_total", variant="routed")
        # finger routing relays: at least one message per non-root node,
        # strictly more than the direct baseline once any route multi-hops
        assert routed >= float(n - 1)


class TestStreamedSpansPresent:
    def test_each_experiment_span_streamed(self, exported):
        events = exported["events"]
        names = {e["name"] for e in events if e["type"] == "span"}
        for expected in (
            "experiment.fig7",
            "experiment.fig9",
            "experiment.dynamics",
            "experiment.dynamics.rate",
            "experiment.churn",
            "dat.build",
        ):
            assert expected in names, expected

    def test_drop_accounting_present_and_consistent(self, exported):
        events = exported["events"]
        (drops,) = [e for e in events if e["type"] == "span_drops"]
        streamed = int(drops["streamed"])
        spans_on_disk = sum(1 for e in events if e["type"] == "span")
        assert streamed >= spans_on_disk - int(drops["evicted"])
