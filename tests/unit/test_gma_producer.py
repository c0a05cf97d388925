"""Unit tests for the producer layer."""

import numpy as np
import pytest

from repro.errors import MonitoringError
from repro.gma.monitor import GridMonitor, MonitorConfig
from repro.gma.producer import Producer
from repro.gma.traces import CpuTrace
from repro.maan.attrs import AttributeSchema, Resource
from repro.maan.query import RangeQuery


def make_producer(node: int = 0) -> Producer:
    # cpu-usage reads 10 + t for whole seconds t.
    trace = CpuTrace(values=10.0 + np.arange(6000.0), period=1.0)
    return Producer(node=node, resource=Resource("host-1", {"cpu-speed": 2.8}), trace=trace)


def make_monitor() -> GridMonitor:
    config = MonitorConfig(n_nodes=16, bits=16, id_strategy="uniform")
    monitor = GridMonitor(
        config,
        {
            "cpu-usage": AttributeSchema("cpu-usage", low=0.0, high=10000.0),
            "cpu-speed": AttributeSchema("cpu-speed", low=0.0, high=5.0),
        },
    )
    monitor.attach_producer(make_producer(node=monitor.ring.nodes[0]))
    return monitor


class TestReads:
    def test_sensor_read(self):
        assert make_producer().read("cpu-usage", 5.0) == 15.0

    def test_static_read(self):
        assert make_producer().read("cpu-speed", 99.0) == 2.8

    def test_unknown_attribute(self):
        with pytest.raises(MonitoringError):
            make_producer().read("disk", 0.0)


class TestSnapshotsAndEvents:
    def test_snapshot_merges_static_and_dynamic(self):
        snapshot = make_producer().snapshot(t=2.0)
        assert snapshot.attributes["cpu-speed"] == 2.8
        assert snapshot.attributes["cpu-usage"] == 12.0


class TestIndexing:
    def test_register_places_records(self):
        monitor = make_monitor()
        hops = monitor.register_all(t=0.0)
        assert hops >= 0
        assert monitor.index.total_records() == 2

    def test_refresh_moves_dynamic_value(self):
        monitor = make_monitor()
        monitor.register_all(t=0.0)
        monitor.register_all(t=5000.0)  # big change moves the record
        assert monitor.index.total_records() == 2  # no duplicates left behind
        moved = monitor.index.range_query(RangeQuery("cpu-usage", 5000.0, 5100.0))
        stale = monitor.index.range_query(RangeQuery("cpu-usage", 0.0, 100.0))
        assert [r.resource_id for r in moved.resources] == ["host-1"]
        assert stale.resources == []
