"""Unit tests for the MAAN overlay: registration and query resolution."""

import pytest

from repro.chord.idgen import ProbingIdAssigner
from repro.chord.idspace import IdSpace
from repro.errors import QueryError, SchemaError
from repro.maan.attrs import AttributeSchema, Resource
from repro.maan.network import MaanNetwork
from repro.maan.query import MultiAttributeQuery, RangeQuery
from repro.util.bits import ceil_log2


@pytest.fixture
def network() -> MaanNetwork:
    space = IdSpace(24)
    ring = ProbingIdAssigner().build_ring(space, 64, rng=7)
    schemas = {
        "cpu-usage": AttributeSchema("cpu-usage", low=0.0, high=100.0),
        "memory-size": AttributeSchema("memory-size", low=0.0, high=64.0),
    }
    return MaanNetwork(ring, schemas)


def fleet(count: int) -> list[Resource]:
    # Deterministic spread of resources over the attribute domains.
    return [
        Resource(
            f"node-{i}",
            {"cpu-usage": (i * 97) % 101 * 0.99, "memory-size": (i * 13) % 65 * 0.98},
        )
        for i in range(count)
    ]


class TestRegistration:
    def test_one_record_per_attribute(self, network):
        resource = Resource("a", {"cpu-usage": 50.0, "memory-size": 8.0})
        network.register(resource)
        assert network.total_records() == 2

    def test_placement_on_value_successor(self, network):
        resource = Resource("a", {"cpu-usage": 50.0})
        network.register(resource)
        owner = network.ring.successor(network._hashers["cpu-usage"](50.0))
        assert network.stores[owner].count("cpu-usage") == 1

    def test_hops_logarithmic(self, network):
        hops = network.register(Resource("a", {"cpu-usage": 50.0, "memory-size": 8.0}))
        # O(m log n): 2 attributes, n=64 -> comfortably under 2 * 2*log2(64).
        assert hops <= 2 * 2 * ceil_log2(64)

    def test_undeclared_attributes_skipped(self, network):
        network.register(Resource("a", {"cpu-usage": 10.0, "gpu-count": 4}))
        assert network.total_records() == 1

    def test_all_undeclared_rejected(self, network):
        with pytest.raises(SchemaError):
            network.register(Resource("a", {"gpu-count": 4}))

    def test_deregister_removes_records(self, network):
        resource = Resource("a", {"cpu-usage": 50.0, "memory-size": 8.0})
        network.register(resource)
        network.deregister(resource)
        assert network.total_records() == 0

    def test_empty_ring_rejected(self):
        space = IdSpace(8)
        from repro.chord.ring import StaticRing

        with pytest.raises(QueryError):
            MaanNetwork(StaticRing(space), {})


class TestRangeQuery:
    def test_finds_exactly_matching_resources(self, network):
        resources = fleet(50)
        for resource in resources:
            network.register(resource)
        query = RangeQuery("cpu-usage", 20.0, 60.0)
        result = network.range_query(query)
        expected = {r.resource_id for r in resources if query.matches(r)}
        assert result.resource_ids() == expected

    def test_point_query(self, network):
        network.register(Resource("a", {"cpu-usage": 33.0}))
        result = network.range_query(RangeQuery("cpu-usage", 33.0, 33.0))
        assert result.resource_ids() == {"a"}

    def test_cost_structure(self, network):
        for resource in fleet(30):
            network.register(resource)
        narrow = network.range_query(RangeQuery("cpu-usage", 10.0, 12.0))
        wide = network.range_query(RangeQuery("cpu-usage", 10.0, 90.0))
        assert narrow.lookup_hops <= 2 * ceil_log2(64)
        assert wide.nodes_visited > narrow.nodes_visited

    def test_string_attribute_rejects_range(self):
        from repro.maan.attrs import AttributeKind

        space = IdSpace(16)
        ring = ProbingIdAssigner().build_ring(space, 8, rng=1)
        network = MaanNetwork(
            ring, {"os": AttributeSchema("os", kind=AttributeKind.STRING)}
        )
        with pytest.raises(QueryError):
            network.range_query(RangeQuery("os", 0, 1))

    def test_undeclared_attribute_rejected(self, network):
        with pytest.raises(SchemaError):
            network.range_query(RangeQuery("disk", 0, 1))


class TestMultiAttributeQuery:
    def test_conjunction_results_exact(self, network):
        resources = fleet(60)
        for resource in resources:
            network.register(resource)
        query = MultiAttributeQuery.of(
            RangeQuery("cpu-usage", 0.0, 30.0),
            RangeQuery("memory-size", 10.0, 60.0),
        )
        result = network.multi_attribute_query(query)
        expected = {r.resource_id for r in resources if query.matches(r)}
        assert result.resource_ids() == expected

    def test_dominated_by_most_selective(self, network):
        for resource in fleet(60):
            network.register(resource)
        # Narrow cpu sub-query should bound the walk, despite the wide mem one.
        narrow_first = network.multi_attribute_query(
            MultiAttributeQuery.of(
                RangeQuery("cpu-usage", 10.0, 15.0),
                RangeQuery("memory-size", 0.0, 64.0),
            )
        )
        wide_walk = network.range_query(RangeQuery("memory-size", 0.0, 64.0))
        assert narrow_first.nodes_visited < wide_walk.nodes_visited

    def test_selectivity_estimation(self, network):
        q = RangeQuery("cpu-usage", 0.0, 25.0)
        assert network.estimate_selectivity(q) == pytest.approx(0.25)


class TestArcNodes:
    def test_arc_is_contiguous(self, network):
        nodes = network.arc_nodes("cpu-usage", 10.0, 40.0)
        ring = network.ring
        for left, right in zip(nodes, nodes[1:]):
            assert ring.successor_of_node(left) == right

    def test_arc_covers_hash_interval(self, network):
        # The arc must contain the successor of every value in the range.
        hasher = network._hashers["cpu-usage"]
        nodes = set(network.arc_nodes("cpu-usage", 10.0, 40.0))
        for value in (10.0, 17.3, 25.0, 39.9, 40.0):
            assert network.ring.successor(hasher(value)) in nodes


class TestStorageBalance:
    def test_loads_spread(self, network):
        for resource in fleet(200):
            network.register(resource)
        loads = network.storage_loads()
        assert sum(loads.values()) == network.total_records()
        # Consistent hashing + probing ids: no node hoards everything.
        assert max(loads.values()) < network.total_records() / 4
