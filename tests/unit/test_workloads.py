"""Unit tests for workload generators."""

import numpy as np
import pytest

from repro.chord.idgen import UniformIdAssigner
from repro.chord.idspace import IdSpace
from repro.gma.traces import TraceGenerator
from repro.workloads.churn import ChurnKind, ChurnWorkload
from repro.workloads.grids import GridResourceGenerator, default_schemas, make_producers
from repro.workloads.queries import QueryWorkload


class TestGridResourceGenerator:
    def test_fleet_naming(self):
        fleet = GridResourceGenerator(seed=1).fleet(5, prefix="m")
        assert [r.resource_id for r in fleet] == [f"m-{i}" for i in range(5)]

    def test_attributes_within_schema_domains(self):
        schemas = default_schemas()
        for resource in GridResourceGenerator(seed=2).fleet(100):
            for name, value in resource.attributes.items():
                schema = schemas[name]
                assert schema.low <= value <= schema.high, name

    def test_deterministic(self):
        a = GridResourceGenerator(seed=3).fleet(10)
        b = GridResourceGenerator(seed=3).fleet(10)
        assert [r.attributes for r in a] == [r.attributes for r in b]

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            GridResourceGenerator(seed=0).fleet(-1)


class TestMakeProducers:
    def test_one_per_node(self):
        ring = UniformIdAssigner().build_ring(IdSpace(16), 8)
        producers = make_producers(ring, seed=4)
        assert set(producers) == set(ring)

    def test_trace_fleet_by_default(self):
        ring = UniformIdAssigner().build_ring(IdSpace(16), 4)
        producers = make_producers(ring, seed=5)
        traces = [producer.trace for producer in producers.values()]
        for producer in producers.values():
            assert "cpu-usage" not in producer.resource.attributes
            assert 0 <= producer.read("cpu-usage", 0.0) <= 100
        # A non-identical fleet, and the same fleet again from the same seed.
        assert not np.array_equal(traces[0].values, traces[1].values)
        again = make_producers(ring, seed=5)
        assert all(
            np.array_equal(again[node].trace.values, producers[node].trace.values)
            for node in ring
        )

    def test_trace_backed_sensors(self):
        ring = UniformIdAssigner().build_ring(IdSpace(16), 4)
        traces = TraceGenerator(seed=6).generate_fleet(4, identical=False)
        producers = make_producers(ring, traces=traces, seed=6)
        for index, node in enumerate(ring):
            expected = traces[index].at_time(0.0)
            assert producers[node].read("cpu-usage", 0.0) == expected


class TestChurnWorkload:
    def test_event_times_sorted_and_bounded(self):
        workload = ChurnWorkload(duration=100.0, join_rate=0.2, leave_rate=0.2, seed=7)
        events = workload.generate()
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(0 <= t < 100.0 for t in times)

    def test_rates_roughly_respected(self):
        workload = ChurnWorkload(duration=1000.0, join_rate=0.1, leave_rate=0.0, seed=8)
        events = workload.generate()
        assert 60 <= len(events) <= 150  # ~100 expected
        assert all(e.kind is ChurnKind.JOIN for e in events)

    def test_crash_fraction(self):
        workload = ChurnWorkload(
            duration=1000.0, join_rate=0.0, leave_rate=0.1, crash_fraction=1.0, seed=9
        )
        events = workload.generate()
        assert events
        assert all(e.kind is ChurnKind.CRASH for e in events)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnWorkload(duration=0)
        with pytest.raises(ValueError):
            ChurnWorkload(duration=1, crash_fraction=1.5)


class TestQueryWorkload:
    def test_selectivity_respected(self):
        workload = QueryWorkload(default_schemas(), seed=10)
        query = workload.range_query("cpu-usage", 0.25)
        assert query.selectivity(0.0, 100.0) == pytest.approx(0.25, abs=0.01)

    def test_queries_within_domain(self):
        workload = QueryWorkload(default_schemas(), seed=11)
        for query in workload.batch("memory-size", 0.1, 50):
            assert 0.25 <= query.low <= query.high <= 64.0

    def test_multi_query(self):
        workload = QueryWorkload(default_schemas(), seed=12)
        query = workload.multi_query({"cpu-usage": 0.1, "memory-size": 0.5})
        assert sorted(query.attribute_names()) == ["cpu-usage", "memory-size"]

    def test_full_selectivity(self):
        workload = QueryWorkload(default_schemas(), seed=13)
        query = workload.range_query("cpu-usage", 1.0)
        assert query.low == 0.0 and query.high == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryWorkload({})
        workload = QueryWorkload(default_schemas(), seed=14)
        with pytest.raises(ValueError):
            workload.range_query("cpu-usage", 1.5)
        with pytest.raises(ValueError):
            workload.batch("cpu-usage", 0.5, -1)
