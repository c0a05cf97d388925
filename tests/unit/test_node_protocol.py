"""Unit tests for the dynamic Chord protocol node."""

import pytest

from repro import telemetry
from repro.chord.idspace import IdSpace
from repro.chord.node import ChordConfig, ChordProtocolNode
from repro.sim.latency import ConstantLatency
from repro.sim.messages import Message
from repro.sim.simnet import SimTransport


def make_overlay(idents: list[int], bits: int = 8, settle: float = 60.0):
    """Build a small overlay and let it stabilize."""
    space = IdSpace(bits)
    transport = SimTransport(latency=ConstantLatency(0.01))
    config = ChordConfig(stabilize_interval=0.5, fix_fingers_interval=0.1)
    nodes: dict[int, ChordProtocolNode] = {}
    first = ChordProtocolNode(idents[0], space, transport, config)
    first.create()
    nodes[idents[0]] = first
    for ident in idents[1:]:
        node = ChordProtocolNode(ident, space, transport, config)
        node.join(idents[0])
        nodes[ident] = node
        transport.run(until=transport.now() + 5.0)
    transport.run(until=transport.now() + settle)
    return space, transport, nodes


class TestSingleNode:
    def test_create_self_ring(self):
        space = IdSpace(8)
        transport = SimTransport()
        node = ChordProtocolNode(42, space, transport)
        node.create()
        assert node.successor == 42
        assert node.predecessor is None

    def test_lookup_on_single_node_ring(self):
        space = IdSpace(8)
        transport = SimTransport()
        node = ChordProtocolNode(42, space, transport)
        node.create()
        results: list[int] = []
        node.lookup(100, lambda result, path: results.append(result))
        transport.run(until=5.0)
        assert results == [42]


class TestStabilization:
    def test_two_node_ring_converges(self):
        _space, _transport, nodes = make_overlay([10, 200])
        assert nodes[10].successor == 200
        assert nodes[200].successor == 10
        assert nodes[10].predecessor == 200
        assert nodes[200].predecessor == 10

    def test_five_node_ring_converges(self):
        idents = [10, 60, 120, 180, 240]
        _space, _transport, nodes = make_overlay(idents)
        for i, ident in enumerate(idents):
            expected_succ = idents[(i + 1) % len(idents)]
            expected_pred = idents[i - 1]
            assert nodes[ident].successor == expected_succ, ident
            assert nodes[ident].predecessor == expected_pred, ident

    def test_successor_lists_populated(self):
        idents = [10, 60, 120, 180, 240]
        _space, _transport, nodes = make_overlay(idents)
        for node in nodes.values():
            assert len(node.successor_list) >= 2

    def test_fingers_converge(self):
        idents = [10, 60, 120, 180, 240]
        space, transport, nodes = make_overlay(idents)
        from repro.chord.ring import StaticRing

        ideal = StaticRing(space, idents)
        for node in nodes.values():
            node.fix_all_fingers()
        transport.run(until=transport.now() + 10.0)
        for ident, node in nodes.items():
            assert node.finger_table().entries == ideal.finger_entries(ident), ident


class TestLookup:
    def test_lookup_resolves_successor(self):
        idents = [10, 60, 120, 180, 240]
        space, transport, nodes = make_overlay(idents)
        for node in nodes.values():
            node.fix_all_fingers()
        transport.run(until=transport.now() + 10.0)

        results: list[int] = []
        nodes[10].lookup(119, lambda result, path: results.append(result))
        transport.run(until=transport.now() + 5.0)
        assert results == [120]

    def test_lookup_own_key(self):
        idents = [10, 200]
        _space, transport, nodes = make_overlay(idents)
        results: list[int] = []
        nodes[10].lookup(10, lambda result, path: results.append(result))
        transport.run(until=transport.now() + 5.0)
        assert results == [10]

    def test_lookup_path_recorded(self):
        idents = [10, 60, 120, 180, 240]
        space, transport, nodes = make_overlay(idents)
        for node in nodes.values():
            node.fix_all_fingers()
        transport.run(until=transport.now() + 10.0)
        paths: list[list[int]] = []
        nodes[10].lookup(239, lambda result, path: paths.append(path))
        transport.run(until=transport.now() + 5.0)
        assert len(paths) == 1
        assert paths[0][0] == 10  # starts at the origin


class TestOwnedLookup:
    """A key whose successor the origin knows is answered without a message."""

    @staticmethod
    def counters(transport):
        return (
            transport.stats.total_messages(),
            transport.pending_calls(),
            len(transport.engine._heap),
        )

    def lookup_now(self, node, key):
        results: list[tuple[int, list[int]]] = []
        node.lookup(key, lambda result, path: results.append((result, path)))
        return results

    @pytest.mark.parametrize("key, expected", [(30, 60), (60, 60), (10, 10)])
    def test_answered_before_lookup_returns(self, key, expected):
        _space, transport, nodes = make_overlay([10, 60, 120, 180, 240])
        assert nodes[10].successor == 60
        before = self.counters(transport)
        assert self.lookup_now(nodes[10], key) == [(expected, [10])]
        assert self.counters(transport) == before

    @pytest.mark.parametrize("key", [42, 100])
    def test_single_node_ring(self, key):
        transport = SimTransport()
        node = ChordProtocolNode(42, IdSpace(8), transport)
        node.create()
        before = self.counters(transport)
        assert self.lookup_now(node, key) == [(42, [42])]
        assert self.counters(transport) == before

    @pytest.mark.parametrize("tracing", [False, True])
    def test_one_lookup_span_only_under_tracing(self, tracing):
        telemetry.configure(enabled=True, tracing=tracing)
        try:
            transport = SimTransport()
            node = ChordProtocolNode(42, IdSpace(8), transport)
            node.create()
            self.lookup_now(node, 100)
            spans = [
                span.attrs
                for span in telemetry.active().spans.finished_snapshot()
                if span.name.startswith("chord.lookup")
            ]
        finally:
            telemetry.disable()
        assert spans == ([{"node": 42, "key": 100, "hops": 0}] if tracing else [])

    def test_key_outside_the_owned_arc_sends_one_lookup(self):
        _space, transport, nodes = make_overlay([10, 60, 120, 180, 240])
        total, pending, _events = self.counters(transport)
        lookups = transport.stats.by_kind()["lookup"]
        results = self.lookup_now(nodes[10], 119)
        assert results == []
        assert transport.stats.total_messages() == total + 1
        assert transport.stats.by_kind()["lookup"] == lookups + 1
        assert transport.pending_calls() == pending + 1
        transport.run(until=transport.now() + 5.0)
        assert [result for result, _path in results] == [120]


class TestNoSelfAddressedMessages:
    def test_converged_overlay_never_mails_itself(self):
        from repro.chord.network import ChordNetwork
        from repro.chord.ring import StaticRing

        space = IdSpace(12)
        transport = SimTransport(latency=ConstantLatency(0.002))
        network = ChordNetwork(
            space, transport, ChordConfig(stabilize_interval=0.25, fix_fingers_interval=0.05)
        )
        n = 16
        for i in range(n):
            network.add_node((i * space.size) // n + 3)
            network.settle(1.0)
        network.settle_until_converged()
        for node in network.nodes.values():
            node.fix_all_fingers()
        network.settle(5.0)

        sent: list[Message] = []
        send = transport.send

        def recording_send(message: Message) -> None:
            sent.append(message)
            send(message)

        transport.send = recording_send
        network.settle(10.0)
        assert sent
        assert [m for m in sent if m.source == m.destination] == []
        ideal = StaticRing(space, network.nodes)
        for ident, node in network.nodes.items():
            assert node.finger_table().entries == ideal.finger_entries(ident), ident


class TestDepartures:
    def test_graceful_leave_repairs_ring(self):
        idents = [10, 60, 120]
        _space, transport, nodes = make_overlay(idents)
        nodes[60].leave()
        transport.run(until=transport.now() + 30.0)
        assert nodes[10].successor == 120
        assert nodes[120].predecessor == 10

    def test_crash_repaired_by_stabilization(self):
        idents = [10, 60, 120, 180]
        _space, transport, nodes = make_overlay(idents)
        nodes[60].crash()
        transport.run(until=transport.now() + 60.0)
        assert nodes[10].successor == 120


class TestUpcalls:
    def test_custom_kind_dispatched(self):
        space = IdSpace(8)
        transport = SimTransport()
        node = ChordProtocolNode(5, space, transport)
        node.create()
        seen: list[Message] = []
        node.upcalls["custom"] = lambda m: seen.append(m) or None
        transport.send(Message(kind="custom", source=99, destination=5))
        transport.run(until=1.0)
        assert len(seen) == 1

    def test_unknown_kind_dropped_and_counted(self):
        # A DAT push reaching a Chord node with no DAT service is dropped
        # and counted, the same rule as every other host (it used to raise
        # out of the transport's run loop).
        space = IdSpace(8)
        transport = SimTransport()
        node = ChordProtocolNode(5, space, transport)
        node.create()
        with telemetry.enabled() as tel:
            transport.send(Message(kind="agg_push", source=99, destination=5))
            transport.run(until=1.0)
            family = tel.counter("messages_dropped_total", labels=("reason",))
            dropped = {dict(x.labels)["reason"]: x.value for x in family.samples()}
        assert dropped == {"no_handler": 1.0}


class TestProbeJoin:
    def test_probe_returns_midpoint_of_largest_gap(self):
        idents = [0, 128]
        _space, transport, nodes = make_overlay(idents)
        request = Message(kind="probe_join", source=0, destination=128, payload={})
        reply = nodes[128]._handle(request)
        designated = reply.payload["designated"]
        # Largest visible interval is (0, 128] or (128, 0]; both split to
        # a point far from the two existing nodes.
        assert designated not in (0, 128)
        assert 30 < designated % 256 < 230 or designated in (64, 192)


class TestDepartedStaysDeparted:
    """A node that left or crashed mid-join must not come back to life."""

    def _stranded_joiner(self):
        # Nothing is registered at the bootstrap address, so the join
        # lookup can only time out and schedule a retry.
        transport = SimTransport(latency=ConstantLatency(0.01))
        config = ChordConfig(rpc_timeout=1.0)
        node = ChordProtocolNode(42, IdSpace(8), transport, config)
        outcomes: list[str] = []
        node.join(
            7,
            on_joined=lambda: outcomes.append("joined"),
            on_failure=lambda: outcomes.append("failed"),
        )
        # Past the first lookup timeout, before the retry it armed one
        # rpc_timeout later.
        lookup_timeout = config.rpc_timeout * config.max_lookup_hops / 8
        transport.run(until=lookup_timeout + config.rpc_timeout / 2)
        assert len(transport.engine._heap) == 1
        return transport, config, node, outcomes

    @pytest.mark.parametrize("depart", ["crash", "leave"])
    def test_departure_cancels_pending_join_retry(self, depart):
        transport, config, node, outcomes = self._stranded_joiner()
        getattr(node, depart)()
        sent_at_departure = transport.stats.load(42).sent
        assert len(transport.engine._heap) == 0
        transport.run(until=transport.now() + 10 * config.rpc_timeout)
        assert transport.stats.load(42).sent == sent_at_departure
        assert not node._running
        assert len(transport.engine._heap) == 0
        assert outcomes == []

    def test_start_maintenance_is_a_noop_after_crash(self):
        transport, _config, node, _outcomes = self._stranded_joiner()
        node.crash()
        node.create()  # a late bootstrap must not revive the timers
        assert not node._running
        assert len(transport.engine._heap) == 0


class TestTimerHandlesStayBounded:
    def test_one_handle_per_loop_after_a_thousand_ticks(self):
        # Each re-arm used to append a cancel handle (pinning its fired
        # event) that nothing dropped before stop_maintenance().
        _space, transport, nodes = make_overlay([10, 80, 200], settle=0.0)
        node = nodes[80]
        config = node.config
        ticks_per_s = (
            1 / config.stabilize_interval
            + 1 / config.fix_fingers_interval
            + 1 / config.check_predecessor_interval
        )
        transport.run(until=transport.now() + 1000 / ticks_per_s + 1.0)
        assert node._running
        assert len(node._timer_cancels) <= 4

        for other in nodes.values():
            other.stop_maintenance()
        assert not node._timer_cancels
        transport.run(until=transport.now() + 5.0)  # in-flight RPCs drain
        assert len(transport.engine._heap) == 0
