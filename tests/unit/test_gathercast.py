"""Unit tests for broadcast-gather (membership-free on-demand) collection."""

import pytest

from repro.chord.broadcast import BroadcastService
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.core.gathercast import GatherCollector
from repro.core.service import DatNodeService, StandaloneDatHost
from repro.errors import AggregationError
from repro.sim.latency import ConstantLatency
from repro.sim.simnet import SimTransport
from tests.oracles import build_balanced_dat


def build_overlay(n: int = 16, bits: int = 12, values=None):
    space = IdSpace(bits)
    ring = StaticRing(space, [(i * space.size) // n for i in range(n)])
    tables = ring.all_finger_tables()
    transport = SimTransport(latency=ConstantLatency(0.002))
    local = values if values is not None else {node: float(node % 9 + 1) for node in ring}
    collectors = {}
    for node in ring:
        host = StandaloneDatHost(node, space, transport)
        dat = DatNodeService(
            host,
            finger_provider=lambda node=node: tables[node],
            value_provider=lambda node=node: local[node],
            scheme="balanced",
            d0_provider=lambda: space.size / n,
            predecessor_provider=lambda node=node: ring.predecessor_of_node(node),
        )
        broadcast = BroadcastService(
            host, finger_provider=lambda node=node: tables[node]
        )
        collectors[node] = GatherCollector(dat, broadcast)
    return ring, transport, collectors, local


class TestGatherCollect:
    def test_sum_exact(self):
        ring, transport, collectors, values = build_overlay()
        key = 1
        root = ring.successor(key)
        results: list[float] = []
        collectors[root].collect(key, "sum", results.append, waves=8)
        transport.run(until=10.0)
        assert results == [sum(values.values())]

    def test_count_exact(self):
        ring, transport, collectors, _values = build_overlay(n=24)
        key = 100
        root = ring.successor(key)
        results: list[int] = []
        collectors[root].collect(key, "count", results.append, waves=10)
        transport.run(until=10.0)
        assert results == [24]

    def test_parameterized_aggregate_travels(self):
        ring, transport, collectors, values = build_overlay()
        key = 1
        root = ring.successor(key)
        results = []
        collectors[root].collect(key, "topk", results.append, waves=8)
        transport.run(until=10.0)
        expected = tuple(sorted(values.values(), reverse=True)[:10])
        assert results[0] == expected

    def test_insufficient_waves_underestimates(self):
        # With a single wave only depth-1 subtrees reach the root: the
        # result is a strict undercount on any tree of height >= 2.
        ring, transport, collectors, _values = build_overlay(n=32)
        key = 1
        root = ring.successor(key)
        tree = build_balanced_dat(ring, key)
        assert tree.height >= 2
        results: list[int] = []
        collectors[root].collect(key, "count", results.append, waves=1)
        transport.run(until=10.0)
        assert results and results[0] < 32

    def test_message_cost_bounded(self):
        ring, transport, collectors, _values = build_overlay(n=16)
        key = 1
        root = ring.successor(key)
        transport.stats.reset()
        done: list[float] = []
        waves = 8
        collectors[root].collect(key, "sum", done.append, waves=waves)
        transport.run(until=10.0)
        assert done
        kinds = transport.stats.by_kind()
        assert kinds.get("bcast", 0) == 15  # n - 1 dissemination messages
        assert kinds.get("gather_push", 0) <= waves * 15

    def test_two_rounds_isolated(self):
        ring, transport, collectors, values = build_overlay()
        key = 1
        root = ring.successor(key)
        results: list[float] = []
        collectors[root].collect(key, "sum", results.append, waves=8)
        transport.run(until=10.0)
        values[ring.nodes[2]] += 50.0
        collectors[root].collect(key, "sum", results.append, waves=8)
        transport.run(until=20.0)
        assert results[1] == results[0] + 50.0

    def test_rejects_zero_waves(self):
        ring, _transport, collectors, _values = build_overlay(n=4)
        root = ring.successor(1)
        with pytest.raises(AggregationError):
            collectors[root].collect(1, "sum", lambda r: None, waves=0)

    def test_plain_broadcasts_still_delivered(self):
        # GatherCollector chains, not replaces, the broadcast on_deliver.
        ring, transport, collectors, _values = build_overlay(n=8)
        seen: list = []
        node = ring.nodes[3]
        collectors[node].broadcast._chain_test = True  # no-op marker
        base = collectors[node]
        base._chain_deliver = lambda initiator, payload: seen.append(payload)
        initiator = ring.nodes[0]
        collectors[initiator].broadcast.broadcast({"plain": "payload"})
        transport.run(until=5.0)
        assert seen == [{"plain": "payload"}]
