"""End-to-end integration: producers -> MAAN -> DAT -> consumer (P-GMA)."""

import pytest

from repro.gma.monitor import GridMonitor, MonitorConfig
from repro.gma.traces import TraceGenerator
from repro.maan.query import MultiAttributeQuery, RangeQuery
from repro.workloads.grids import default_schemas, make_producers


@pytest.fixture(scope="module")
def stack():
    config = MonitorConfig(n_nodes=64, bits=28, id_strategy="probing", seed=77)
    monitor = GridMonitor(config, default_schemas())
    traces = TraceGenerator(seed=77).generate_fleet(64, identical=False)
    producers = make_producers(monitor.ring, traces=traces, seed=77)
    for producer in producers.values():
        monitor.attach_producer(producer)
    monitor.register_all(t=0.0)
    return monitor


class TestDiscoveryThenMonitoring:
    def test_discover_then_aggregate(self, stack):
        # An application finds idle-enough machines, then watches the
        # global average — the paper's motivating consumer workflow.
        idle = stack.index.range_query(RangeQuery("cpu-usage", 0.0, 50.0))
        for resource in idle.resources:
            assert resource.attributes["cpu-usage"] <= 50.0

        average = stack.aggregate("cpu-usage", "avg", t=0.0).value
        truth = stack.actual_aggregate("cpu-usage", "avg", t=0.0)
        assert average == pytest.approx(truth)

    def test_search_and_aggregate_consistency(self, stack):
        # COUNT from the DAT equals the MAAN full-range result set size.
        count = stack.aggregate("cpu-usage", "count", t=0.0).value
        full = stack.index.range_query(RangeQuery("cpu-usage", 0.0, 100.0))
        assert count == len(full.resources) == 64

    def test_multi_attribute_discovery(self, stack):
        query = MultiAttributeQuery.of(
            RangeQuery("cpu-usage", 0.0, 100.0),
            RangeQuery("memory-size", 4.0, 64.0),
            RangeQuery("cpu-speed", 2.0, 5.0),
        )
        result = stack.index.multi_attribute_query(query)
        for resource in result.resources:
            assert resource.attributes["memory-size"] >= 4.0
            assert resource.attributes["cpu-speed"] >= 2.0

    def test_monitoring_time_series(self, stack):
        times = [0.0, 100.0, 200.0, 300.0]
        series = [stack.aggregate("cpu-usage", "sum", t=t).value for t in times]
        truths = [stack.actual_aggregate("cpu-usage", "sum", t=t) for t in times]
        for measured, truth in zip(series, truths):
            assert measured == pytest.approx(truth)

    def test_histogram_of_fleet_load(self, stack):
        outcome = stack.aggregate("cpu-usage", "histogram", t=0.0, low=0, high=100, n_bins=10)
        assert sum(outcome.value) == 64

    def test_multiple_attributes_multiple_trees(self, stack):
        # Different attributes aggregate on different trees (distinct roots
        # with high probability) but all give exact results.
        roots = set()
        for attribute in ("cpu-usage", "cpu-speed", "memory-size", "disk-size"):
            outcome = stack.aggregate(attribute, "max", t=0.0)
            truth = stack.actual_aggregate(attribute, "max", t=0.0)
            assert outcome.value == pytest.approx(truth)
            roots.add(outcome.root)
        assert len(roots) >= 2

    def test_load_balance_on_this_deployment(self, stack):
        from repro.core.analysis import imbalance_factor

        outcome = stack.aggregate("cpu-usage", "sum")
        assert imbalance_factor(outcome.message_loads) < 5.0


class TestChurnOnStack:
    def test_node_departure_keeps_results_exact(self):
        config = MonitorConfig(n_nodes=32, bits=24, seed=5)
        monitor = GridMonitor(config, default_schemas())
        producers = make_producers(monitor.ring, seed=5)
        for producer in producers.values():
            monitor.attach_producer(producer)

        victim = monitor.ring.nodes[3]
        monitor.ring.remove(victim)
        monitor.producers.pop(victim)

        outcome = monitor.aggregate("cpu-usage", "count")
        assert outcome.value == 31
        outcome.tree.validate()
