"""Unit tests for the GridMonitor facade and the consumer workflows on it."""

import numpy as np
import pytest

from repro.errors import MonitoringError
from repro.gma.monitor import GridMonitor, MonitorConfig
from repro.gma.producer import Producer
from repro.gma.traces import CpuTrace
from repro.maan.attrs import Resource
from repro.maan.query import MultiAttributeQuery, RangeQuery
from repro.workloads.grids import default_schemas, make_producers


@pytest.fixture
def monitor() -> GridMonitor:
    config = MonitorConfig(n_nodes=32, bits=24, seed=11)
    monitor = GridMonitor(config, default_schemas())
    for producer in make_producers(monitor.ring, seed=11).values():
        monitor.attach_producer(producer)
    return monitor


class TestSetup:
    def test_ring_size(self, monitor):
        assert len(monitor.ring) == 32

    def test_attach_requires_overlay_membership(self, monitor):
        bogus = Producer(
            node=99999999,
            resource=Resource("x", {}),
            trace=CpuTrace(values=np.zeros(1), period=1.0),
        )
        with pytest.raises(MonitoringError):
            monitor.attach_producer(bogus)

    def test_full_coverage_check(self):
        config = MonitorConfig(n_nodes=4, bits=16, seed=1)
        monitor = GridMonitor(config, default_schemas())
        with pytest.raises(MonitoringError):
            monitor.aggregate("cpu-usage", "sum")

    def test_register_all(self, monitor):
        hops = monitor.register_all()
        assert hops > 0
        assert monitor.index.total_records() == 32 * 4  # 4 attributes each

    def test_refresh_all(self, monitor):
        monitor.register_all()
        monitor.register_all(t=10.0)
        assert monitor.index.total_records() == 32 * 4


class TestAggregation:
    def test_rendezvous_key_stable(self, monitor):
        assert monitor.rendezvous_key("cpu-usage") == monitor.rendezvous_key("cpu-usage")

    def test_tree_rooted_at_key_successor(self, monitor):
        key = monitor.rendezvous_key("cpu-usage")
        tree = monitor.aggregate("cpu-usage", "count").tree
        assert tree.root == monitor.ring.successor(key)

    def test_aggregate_matches_ground_truth(self, monitor):
        outcome = monitor.aggregate("cpu-usage", "sum", t=0.0)
        truth = monitor.actual_aggregate("cpu-usage", "sum", t=0.0)
        assert outcome.value == pytest.approx(truth)

    def test_readings_are_functions_of_time(self, monitor):
        # A reading depends on t alone: a round at another time in between
        # must not move the value at t=0.
        before = monitor.aggregate("cpu-usage", "sum", t=0.0).value
        monitor.aggregate("cpu-usage", "sum", t=5.0)
        assert monitor.aggregate("cpu-usage", "sum", t=0.0).value == before

    def test_aggregate_avg(self, monitor):
        outcome = monitor.aggregate("cpu-usage", "avg", t=3.0)
        truth = monitor.actual_aggregate("cpu-usage", "avg", t=3.0)
        assert outcome.value == pytest.approx(truth)

    def test_aggregate_with_kwargs(self, monitor):
        outcome = monitor.aggregate("cpu-usage", "topk", t=0.0, k=3)
        assert len(outcome.value) == 3

    def test_message_economics(self, monitor):
        outcome = monitor.aggregate("cpu-usage", "sum")
        assert outcome.total_messages == 31
        assert sum(outcome.message_loads.values()) == 2 * 31
        assert outcome.root == outcome.tree.root

    def test_static_attribute_aggregation(self, monitor):
        outcome = monitor.aggregate("cpu-speed", "max")
        truth = monitor.actual_aggregate("cpu-speed", "max")
        assert outcome.value == truth


class TestConsumers:
    def test_consumer_search(self, monitor):
        monitor.register_all()
        result = monitor.index.range_query(RangeQuery("cpu-usage", 0.0, 100.0))
        assert len(result.resources) == 32  # everyone matches the full range

    def test_consumer_search_narrow(self, monitor):
        monitor.register_all()
        result = monitor.index.range_query(RangeQuery("memory-size", 0.0, 1.0))
        for resource in result.resources:
            assert resource.attributes["memory-size"] <= 1.0

    def test_search_all_conjunction(self, monitor):
        monitor.register_all()
        query = MultiAttributeQuery.of(
            RangeQuery("cpu-usage", 0.0, 100.0), RangeQuery("memory-size", 0.0, 8.0)
        )
        result = monitor.index.multi_attribute_query(query)
        for resource in result.resources:
            assert resource.attributes["memory-size"] <= 8.0

    def test_global_aggregate_via_consumer(self, monitor):
        value = monitor.aggregate("cpu-usage", "avg").value
        assert value == pytest.approx(monitor.actual_aggregate("cpu-usage", "avg"))

    def test_monitor_series(self, monitor):
        times = [0.0, 10.0, 20.0]
        series = [monitor.aggregate("cpu-usage", "avg", t=t).value for t in times]
        truths = [monitor.actual_aggregate("cpu-usage", "avg", t=t) for t in times]
        assert series == pytest.approx(truths)


class TestSchemes:
    def test_basic_and_balanced_same_value(self):
        values = {}
        for scheme in ("basic", "balanced"):
            config = MonitorConfig(n_nodes=16, bits=20, dat_scheme=scheme, seed=5)
            monitor = GridMonitor(config, default_schemas())
            for producer in make_producers(monitor.ring, seed=5).values():
                monitor.attach_producer(producer)
            values[scheme] = monitor.aggregate("cpu-usage", "sum").value
        # The aggregate value is scheme-independent; only loads differ.
        assert values["basic"] == pytest.approx(values["balanced"])
