"""Integration: Fig. 8 load distributions are reproducible from exported
telemetry alone.

The acceptance property of the telemetry subsystem: run the Fig. 8(a)
experiment with telemetry enabled, write the JSONL export, throw the
in-process results away, and rebuild the per-scheme load distributions and
imbalance factors from the export — they must match the experiment's own
output exactly.
"""

from __future__ import annotations

import json
from collections import defaultdict

import pytest

from repro import telemetry
from repro.core.analysis import imbalance_factor
from repro.experiments.fig8_load_balance import (
    run_fig8a_message_distribution,
    run_fig8b_imbalance_sweep,
)
from repro.telemetry import TelemetryStream

N_NODES = 64
SCHEMES = ("centralized", "basic", "balanced")


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """Run fig8a (and a one-point fig8b) under telemetry; return the events."""
    path = tmp_path_factory.mktemp("telemetry") / "fig8.jsonl"
    with telemetry.enabled() as tel:
        distribution = run_fig8a_message_distribution(n_nodes=N_NODES, seed=2007)
        points = run_fig8b_imbalance_sweep(sizes=[N_NODES], n_seeds=2)
        with open(path, "w", encoding="utf-8") as handle:
            TelemetryStream(tel, handle).close()
    with open(path, encoding="utf-8") as handle:
        events = [json.loads(line) for line in handle if line.strip()]
    return distribution, points, events


def _loads_from_events(events, scheme: str) -> list[int]:
    """Rank-ordered per-node loads of one scheme, from the export alone."""
    totals = [
        int(e["total"])
        for e in events
        if e["type"] == "hotspot_node" and e["accountant"] == f"fig8.{scheme}"
    ]
    return sorted(totals, reverse=True)


class TestFig8FromTelemetry:
    def test_distributions_reconstruct_exactly(self, exported):
        distribution, _points, events = exported
        for scheme in SCHEMES:
            assert _loads_from_events(events, scheme) == sorted(
                getattr(distribution, scheme), reverse=True
            ), scheme

    def test_imbalance_gauges_match_experiment(self, exported):
        distribution, _points, events = exported
        gauges = {
            e["labels"]["scheme"]: e["value"]
            for e in events
            if e["type"] == "metric" and e["name"] == "repro_fig8a_imbalance"
        }
        for scheme in SCHEMES:
            expected = imbalance_factor(getattr(distribution, scheme))
            assert gauges[scheme] == pytest.approx(expected), scheme

    def test_imbalance_recomputable_from_node_events(self, exported):
        _distribution, _points, events = exported
        gauges = {
            e["labels"]["scheme"]: e["value"]
            for e in events
            if e["type"] == "metric" and e["name"] == "repro_fig8a_imbalance"
        }
        for scheme in SCHEMES:
            loads = _loads_from_events(events, scheme)
            assert imbalance_factor(loads) == pytest.approx(gauges[scheme]), scheme

    def test_load_samples_exported_per_scheme(self, exported):
        _distribution, _points, events = exported
        samples = defaultdict(list)
        for e in events:
            if e["type"] == "hotspot_sample":
                samples[e["accountant"]].append(e)
        for scheme in SCHEMES:
            (point,) = samples[f"fig8.{scheme}"]
            assert point["n_nodes"] == N_NODES
            assert point["imbalance"] > 0

    def test_fig8b_gauges_match_sweep(self, exported):
        _distribution, points, events = exported
        (point,) = points
        gauges = {
            e["labels"]["scheme"]: e["value"]
            for e in events
            if e["type"] == "metric" and e["name"] == "repro_fig8b_imbalance"
        }
        for scheme in SCHEMES:
            assert gauges[scheme] == pytest.approx(getattr(point, scheme)), scheme

    def test_experiment_spans_exported(self, exported):
        _distribution, _points, events = exported
        names = {e["name"] for e in events if e["type"] == "span"}
        assert {"experiment.fig8a", "experiment.fig8b"} <= names

    def test_balance_ordering_holds_in_export(self, exported):
        """The paper's qualitative result survives the export round-trip."""
        _distribution, _points, events = exported
        imbalances = {
            scheme: imbalance_factor(_loads_from_events(events, scheme))
            for scheme in SCHEMES
        }
        assert imbalances["balanced"] < imbalances["basic"] < imbalances["centralized"]
