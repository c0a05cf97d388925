"""Unit tests for the producer layer."""

import pytest

from repro.chord.idgen import UniformIdAssigner
from repro.chord.idspace import IdSpace
from repro.errors import MonitoringError
from repro.gma.producer import Producer
from repro.gma.sensors import CallbackSensor, ConstantSensor
from repro.maan.attrs import AttributeSchema
from repro.maan.network import MaanNetwork


def make_producer(node: int = 0) -> Producer:
    return Producer(
        node=node,
        resource_id="host-1",
        sensors={
            "cpu-usage": CallbackSensor("host-1", "cpu-usage", lambda t: 10.0 + t)
        },
        static_attributes={"cpu-speed": 2.8},
    )


def make_index() -> MaanNetwork:
    space = IdSpace(16)
    ring = UniformIdAssigner().build_ring(space, 16)
    return MaanNetwork(
        ring,
        {
            "cpu-usage": AttributeSchema("cpu-usage", low=0.0, high=10000.0),
            "cpu-speed": AttributeSchema("cpu-speed", low=0.0, high=5.0),
        },
    )


class TestReads:
    def test_sensor_read(self):
        assert make_producer().read("cpu-usage", 5.0) == 15.0

    def test_static_read(self):
        assert make_producer().read("cpu-speed", 99.0) == 2.8

    def test_unknown_attribute(self):
        with pytest.raises(MonitoringError):
            make_producer().read("disk", 0.0)

    def test_attributes_listing(self):
        assert make_producer().attributes() == ["cpu-speed", "cpu-usage"]

    def test_sensor_attribute_mismatch_rejected(self):
        with pytest.raises(MonitoringError):
            Producer(
                node=0,
                resource_id="h",
                sensors={"cpu": ConstantSensor("h", "memory", 1.0)},
            )

    def test_add_sensor(self):
        producer = make_producer()
        producer.add_sensor(ConstantSensor("host-1", "load", 0.5))
        assert producer.read("load", 0.0) == 0.5


class TestSnapshotsAndEvents:
    def test_snapshot_merges_static_and_dynamic(self):
        snapshot = make_producer().snapshot(t=2.0)
        assert snapshot.attributes["cpu-speed"] == 2.8
        assert snapshot.attributes["cpu-usage"] == 12.0


class TestIndexing:
    def test_register_places_records(self):
        index = make_index()
        producer = make_producer()
        hops = producer.register(index, t=0.0)
        assert hops >= 0
        assert index.total_records() == 2

    def test_refresh_moves_dynamic_value(self):
        index = make_index()
        producer = make_producer()
        producer.register(index, t=0.0)
        producer.refresh_index(index, t=5000.0)  # big change moves the record
        assert index.total_records() == 2  # no duplicates left behind

    def test_refresh_without_register(self):
        index = make_index()
        producer = make_producer()
        producer.refresh_index(index, t=1.0)  # acts as first registration
        assert index.total_records() == 2
