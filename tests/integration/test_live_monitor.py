"""Integration: the full P-GMA stack over the live protocol (LiveGridMonitor)."""

import pytest

from repro import telemetry
from repro.errors import MonitoringError
from repro.gma.live import LiveGridMonitor
from repro.gma.monitor import MonitorConfig
from repro.gma.producer import Producer
from repro.workloads.grids import default_schemas, make_producers


@pytest.fixture(scope="module")
def live():
    config = MonitorConfig(n_nodes=16, bits=16, id_strategy="probing", seed=31)
    monitor = LiveGridMonitor(config, default_schemas())
    ring = monitor.network.ideal_ring()
    for producer in make_producers(ring, seed=31).values():
        monitor.attach_producer(producer)
    stored = monitor.register_all(t=0.0)
    assert stored == 16 * 4  # every attribute of every node placed
    return monitor


class TestLiveDiscovery:
    def test_full_range_finds_everyone(self, live):
        result = live.search("cpu-usage", 0.0, 100.0)
        assert len(result.resources) == 16

    def test_narrow_range_filters(self, live):
        result = live.search("memory-size", 0.0, 2.0)
        for resource in result.resources:
            assert resource.attributes["memory-size"] <= 2.0

    def test_routed_costs_reported(self, live):
        result = live.search("cpu-usage", 10.0, 30.0)
        assert result.lookup_hops >= 0
        assert result.nodes_visited >= 0


class TestLiveAggregation:
    def test_on_demand_matches_truth(self, live):
        measured = live.aggregate("cpu-usage", "sum", t=0.0)
        truth = live.actual_aggregate("cpu-usage", "sum", t=0.0)
        assert measured == pytest.approx(truth)

    def test_avg_aggregate(self, live):
        measured = live.aggregate("cpu-usage", "avg", t=5.0)
        truth = live.actual_aggregate("cpu-usage", "avg", t=5.0)
        assert measured == pytest.approx(truth)

    def test_continuous_monitoring_tracks(self, live):
        live.start_monitoring("cpu-usage", "count", interval=0.5)
        live.run(8.0)
        assert live.read_monitoring("cpu-usage") == 16

    def test_explicit_wave_budget(self, live):
        measured = live.aggregate("cpu-usage", "count", t=0.0, waves=8)
        assert measured == 16


class TestLiveEdgeCases:
    def test_attach_producer_rejects_unknown_node(self, live):
        stranger = Producer(node=-1, resource_id="ghost")
        with pytest.raises(MonitoringError):
            live.attach_producer(stranger)

    def test_read_monitoring_unknown_attribute_is_none(self, live):
        assert live.read_monitoring("no-such-attribute") is None

    def test_search_timeout_raises(self, live):
        # A settle window of zero gives the routed query no virtual time
        # to resolve in — the facade must surface that, not hang.
        with pytest.raises(MonitoringError):
            live.search("cpu-usage", 0.0, 100.0, settle=0.0)

    def test_rendezvous_key_is_stable_and_in_space(self, live):
        key = live.rendezvous_key("cpu-usage")
        assert key == live.rendezvous_key("cpu-usage")
        assert 0 <= key < live.space.size


class TestLiveTelemetry:
    def test_search_and_aggregate_emit_spans(self, live):
        with telemetry.enabled() as tel:
            live.search("cpu-usage", 0.0, 100.0)
            live.aggregate("cpu-usage", "sum", t=0.0)
            (search_span,) = [s for s in tel.spans.finished if s.name == "gma.live.search"]
            assert search_span.attrs["attribute"] == "cpu-usage"
            assert search_span.attrs["n_resources"] == 16
            assert search_span.attrs["hops"] >= 0
            (agg_span,) = [s for s in tel.spans.finished if s.name == "gma.live.aggregate"]
            assert agg_span.attrs["attribute"] == "cpu-usage"
            assert agg_span.attrs["waves"] >= 1


class TestLiveTeardown:
    def test_close_detaches_every_layer(self):
        # Regression: broadcast services were constructed as
        # locals and never closed — their `bcast` upcall registrations
        # outlived the monitor, so a second monitor built on the same
        # process inherited ghost broadcast handlers.
        # Later regression: close() left every Chord node registered and
        # maintaining, and in-flight pushes reached hosts with no DAT upcall.
        config = MonitorConfig(n_nodes=4, bits=12, id_strategy="probing", seed=7)
        monitor = LiveGridMonitor(config, default_schemas())
        hosts = dict(monitor.network.nodes)
        assert monitor.broadcasts  # one service per node while live
        monitor.start_monitoring("cpu-usage", "count", interval=0.5)
        monitor.run(4.0)
        monitor.close()
        assert not monitor.broadcasts
        assert not monitor.collectors
        assert not monitor.dat
        assert not monitor.maan
        for host in hosts.values():
            for kind in ("bcast", "gather_push", "agg_push", "agg_collect", "maan_store",
                         "maan_scan"):
                assert kind not in host.upcalls, kind
        transport = monitor.transport
        sent = transport.stats.total_messages()
        monitor.run(10.0)
        assert transport.stats.total_messages() == sent
        assert transport.pending_calls() == 0
        monitor.close()  # idempotent
