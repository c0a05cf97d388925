"""Integration: MAAN over the live protocol (routed registration + walks)."""

import pytest

from repro.chord.idspace import IdSpace
from repro.chord.network import ChordNetwork
from repro.chord.node import ChordConfig
from repro.maan.attrs import AttributeSchema, Resource
from repro.maan.query import QueryResult, RangeQuery
from repro.maan.service import MaanNodeService
from repro.sim.latency import ConstantLatency
from repro.sim.messages import Message
from repro.sim.simnet import SimTransport
from repro.util.bits import ceil_log2

SCHEMAS = {
    "cpu-usage": AttributeSchema("cpu-usage", low=0.0, high=100.0),
    "memory-size": AttributeSchema("memory-size", low=0.0, high=64.0),
}


@pytest.fixture(scope="module")
def overlay():
    space = IdSpace(14)
    transport = SimTransport(latency=ConstantLatency(0.002))
    config = ChordConfig(stabilize_interval=0.25, fix_fingers_interval=0.05)
    network = ChordNetwork(space, transport, config)
    n = 16
    for i in range(n):
        network.add_node((i * space.size) // n + 3)
        network.settle(1.0)
    network.settle_until_converged()
    for node in network.nodes.values():
        node.fix_all_fingers()
    network.settle(5.0)
    services = {
        ident: MaanNodeService(node, SCHEMAS)
        for ident, node in network.nodes.items()
    }
    return network, transport, services


@pytest.fixture(scope="module")
def populated(overlay):
    network, transport, services = overlay
    origin = services[next(iter(services))]
    resources = [
        Resource(
            f"node-{i}",
            {"cpu-usage": (i * 7) % 101 * 0.99, "memory-size": (i * 5) % 65 * 0.9},
        )
        for i in range(32)
    ]
    acks: list[int] = []
    for resource in resources:
        origin.register(resource, on_done=acks.append)
    transport.run(until=transport.now() + 10.0)
    assert len(acks) == 32
    assert all(count == 2 for count in acks)  # both attributes placed
    return network, transport, services, resources


class TestRegistration:
    def test_records_distributed(self, populated):
        _network, _transport, services, _resources = populated
        total = sum(service.store.count() for service in services.values())
        assert total == 32 * 2

    def test_placement_matches_static_model(self, populated):
        network, _transport, services, resources = populated
        ring = network.ideal_ring()
        for resource in resources[:8]:
            for attribute in SCHEMAS:
                key = services[next(iter(services))]._hashers[attribute](
                    resource.attributes[attribute]
                )
                owner = ring.successor(key)
                stored_ids = {
                    r.resource_id
                    for r in services[owner].store.all_for_attribute(attribute)
                }
                assert resource.resource_id in stored_ids


class TestRangeQueries:
    def run_query(self, transport, service, query) -> QueryResult:
        results: list[QueryResult] = []
        service.range_query(query, results.append)
        transport.run(until=transport.now() + 10.0)
        assert len(results) == 1
        return results[0]

    def test_results_exact(self, populated):
        _network, transport, services, resources = populated
        service = services[next(iter(services))]
        query = RangeQuery("cpu-usage", 20.0, 60.0)
        result = self.run_query(transport, service, query)
        expected = {r.resource_id for r in resources if query.matches(r)}
        assert result.resource_ids() == expected

    def test_full_domain(self, populated):
        _network, transport, services, resources = populated
        service = services[next(iter(services))]
        query = RangeQuery("memory-size", 0.0, 64.0)
        result = self.run_query(transport, service, query)
        assert result.resource_ids() == {r.resource_id for r in resources}

    def test_cost_structure(self, populated):
        _network, transport, services, _resources = populated
        service = services[next(iter(services))]
        narrow = self.run_query(transport, service, RangeQuery("cpu-usage", 10.0, 12.0))
        wide = self.run_query(transport, service, RangeQuery("cpu-usage", 0.0, 90.0))
        assert narrow.lookup_hops <= 2 * ceil_log2(16)
        assert wide.nodes_visited > narrow.nodes_visited

    def test_query_from_every_node_consistent(self, populated):
        _network, transport, services, resources = populated
        query = RangeQuery("cpu-usage", 30.0, 70.0)
        expected = {r.resource_id for r in resources if query.matches(r)}
        for service in list(services.values())[:4]:
            result = self.run_query(transport, service, query)
            assert result.resource_ids() == expected

    def test_no_query_mails_its_originator(self, populated, monkeypatch):
        # A walk that ends at its originator (whether it started there or
        # came round to it) completes in place; it used to send the
        # originator a maan_result from itself.
        _network, transport, services, resources = populated
        self_addressed: list[Message] = []
        send = transport.send

        def recording_send(message: Message) -> None:
            if message.source == message.destination:
                self_addressed.append(message)
            send(message)

        monkeypatch.setattr(transport, "send", recording_send)
        queries = [
            RangeQuery("cpu-usage", 20.0, 60.0),
            RangeQuery("cpu-usage", 10.0, 12.0),
            RangeQuery("memory-size", 0.0, 64.0),
        ]
        for service in services.values():
            for query in queries:
                result = self.run_query(transport, service, query)
                expected = {r.resource_id for r in resources if query.matches(r)}
                assert result.resource_ids() == expected
        assert self_addressed == []

    def test_undeclared_attribute_rejected(self, populated):
        from repro.errors import SchemaError

        _network, _transport, services, _resources = populated
        service = services[next(iter(services))]
        with pytest.raises(SchemaError):
            service.range_query(RangeQuery("disk", 0, 1), lambda r: None)
