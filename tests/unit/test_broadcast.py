"""Unit tests for the Chord broadcast primitive."""

from repro.chord.broadcast import BroadcastService, broadcast_tree
from repro.chord.idgen import ProbingIdAssigner, RandomIdAssigner
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.core.service import StandaloneDatHost
from repro.sim.latency import ConstantLatency
from repro.sim.simnet import SimTransport
from repro.util.bits import ceil_log2


class TestBroadcastChildren:
    def test_initiator_delegates_all_distinct_fingers(self, full_ring4):
        tree = broadcast_tree(full_ring4, initiator=0)
        assert sorted(tree.children(0)) == [1, 2, 4, 8]

    def test_limits_partition_the_arc(self, full_ring4):
        # Each child covers the arc up to the next finger; the last child's
        # arc ends at the initiator.
        tree = broadcast_tree(full_ring4, initiator=0)
        arcs = {child: sorted(tree.children(child)) for child in (1, 2, 4, 8)}
        assert arcs == {1: [], 2: [3], 4: [5, 6], 8: [9, 10, 12]}

    def test_respects_limit(self, full_ring4):
        # Node 4 covers [4, 8): its fingers 8 and 12 are not its children.
        tree = broadcast_tree(full_ring4, initiator=0)
        assert sorted(tree.children(4)) == [5, 6]

    def test_no_children_when_arc_empty(self, full_ring4):
        tree = broadcast_tree(full_ring4, initiator=0)
        assert tree.children(1) == []


class TestBroadcastTree:
    def test_covers_every_node_once(self, full_ring4):
        tree = broadcast_tree(full_ring4, initiator=0)
        tree.validate()
        assert set(tree.nodes()) == set(full_ring4)

    def test_height_logarithmic(self):
        space = IdSpace(32)
        ring = ProbingIdAssigner().build_ring(space, 512, rng=6)
        tree = broadcast_tree(ring, initiator=ring.nodes[0])
        assert tree.height <= 2 * ceil_log2(512)

    def test_every_initiator_works(self, full_ring4):
        for initiator in full_ring4:
            tree = broadcast_tree(full_ring4, initiator=initiator)
            assert tree.n_nodes == 16
            tree.validate()

    def test_random_ring_coverage(self):
        space = IdSpace(24)
        ring = RandomIdAssigner().build_ring(space, 100, rng=8)
        tree = broadcast_tree(ring, initiator=ring.nodes[42])
        assert set(tree.nodes()) == set(ring)


class TestBroadcastService:
    def build(self, n: int = 16):
        space = IdSpace(16)
        ring = StaticRing(space, [(i * space.size) // n for i in range(n)])
        tables = ring.all_finger_tables()
        transport = SimTransport(latency=ConstantLatency(0.001))
        services = {}
        for node in ring:
            host = StandaloneDatHost(node, space, transport)
            services[node] = BroadcastService(
                host, finger_provider=lambda node=node: tables[node]
            )
        return ring, transport, services

    def test_delivery_to_all_nodes_exactly_once(self):
        ring, transport, services = self.build()
        initiator = ring.nodes[3]
        broadcast_id = services[initiator].broadcast({"cmd": "refresh"})
        transport.run(until=5.0)
        for node, service in services.items():
            assert service.received(broadcast_id), node
            assert len(service.deliveries) == 1

    def test_payload_and_initiator_propagated(self):
        ring, transport, services = self.build(8)
        seen: list[tuple[int, dict]] = []
        for service in services.values():
            service.on_deliver = lambda initiator, payload: seen.append(
                (initiator, payload)
            )
        initiator = ring.nodes[0]
        services[initiator].broadcast({"x": 1})
        transport.run(until=5.0)
        assert len(seen) == 8
        assert all(src == initiator and payload == {"x": 1} for src, payload in seen)

    def test_message_count_is_n_minus_one(self):
        ring, transport, services = self.build(16)
        transport.stats.reset()
        services[ring.nodes[0]].broadcast("ping")
        transport.run(until=5.0)
        assert transport.stats.by_kind().get("bcast", 0) == 15

    def test_close_releases_upcall_registration(self):
        # Regression: the service had no close(), so a departed
        # host kept handling `bcast` messages for as long as it lived.
        ring, transport, services = self.build(4)
        node = ring.nodes[0]
        service = services[node]
        host = service.host
        assert host.upcalls["bcast"] == service._on_broadcast
        service.close()
        assert "bcast" not in host.upcalls
        service.close()  # idempotent

    def test_close_leaves_foreign_handler_alone(self):
        ring, transport, services = self.build(4)
        service = services[ring.nodes[0]]
        replacement = lambda message: None  # noqa: E731
        service.host.upcalls["bcast"] = replacement
        service.close()
        assert service.host.upcalls["bcast"] is replacement

    def test_two_broadcasts_independent(self):
        ring, transport, services = self.build(8)
        a = services[ring.nodes[0]].broadcast("a")
        b = services[ring.nodes[5]].broadcast("b")
        transport.run(until=5.0)
        for service in services.values():
            assert service.received(a) and service.received(b)
            assert len(service.deliveries) == 2
