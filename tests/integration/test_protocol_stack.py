"""Integration: live Chord protocol + DAT service over the DES transport.

This is the paper's simulator configuration end-to-end: protocol nodes
join and stabilize, then the DAT layer aggregates over the *live* finger
tables (not an oracle snapshot).
"""

import pytest

from repro.chord.idspace import IdSpace
from repro.chord.network import ChordNetwork
from repro.chord.node import ChordConfig
from repro.core.service import DatNodeService
from repro.experiments.churn_overhead import live_tree
from repro.sim.latency import ConstantLatency
from repro.sim.simnet import SimTransport
from tests.oracles import build_balanced_dat


@pytest.fixture(scope="module")
def overlay():
    space = IdSpace(12)
    transport = SimTransport(latency=ConstantLatency(0.005))
    config = ChordConfig(stabilize_interval=0.5, fix_fingers_interval=0.05)
    network = ChordNetwork(space, transport, config)
    idents = [(i * space.size) // 24 + 7 for i in range(24)]
    for ident in idents:
        network.add_node(ident)
        network.settle(2.0)
    network.settle_until_converged()
    for node in network.nodes.values():
        node.fix_all_fingers()
    network.settle(10.0)
    assert network.is_converged(check_fingers=True)
    return network


class TestLiveTreeMatchesStatic:
    def test_live_equals_oracle(self, overlay):
        key = 1234
        live = live_tree(overlay, key)
        static = build_balanced_dat(overlay.ideal_ring(), key)
        assert live.parent == static.parent

    def test_live_tree_valid(self, overlay):
        live = live_tree(overlay, 999)
        live.validate()


class TestContinuousAggregationOverProtocol:
    def test_sum_converges_on_live_overlay(self, overlay):
        transport = overlay.transport
        space = overlay.space
        n = len(overlay.nodes)
        key = 1234
        ring = overlay.ideal_ring()
        root = ring.successor(key)
        values = {ident: float(i) for i, ident in enumerate(sorted(overlay.nodes))}

        services = {}
        for ident, node in overlay.nodes.items():
            services[ident] = DatNodeService(
                node,
                finger_provider=node.finger_table,
                value_provider=lambda ident=ident: values[ident],
                scheme="balanced",
                d0_provider=lambda: space.size / n,
            )
        for service in services.values():
            service.start_continuous(key, root, "sum", interval=0.5)
        transport.run(until=transport.now() + 30.0)
        estimate = services[root].root_estimate(key)
        assert estimate == pytest.approx(sum(values.values()))

    def test_estimate_survives_graceful_leave(self, overlay):
        transport = overlay.transport
        space = overlay.space
        key = 3321
        ring = overlay.ideal_ring()
        root = ring.successor(key)
        victims = [ident for ident in overlay.nodes if ident != root]
        victim = victims[5]

        values = {ident: 1.0 for ident in overlay.nodes}
        n = len(overlay.nodes)
        services = {}
        for ident, node in overlay.nodes.items():
            services[ident] = DatNodeService(
                node,
                finger_provider=node.finger_table,
                value_provider=lambda ident=ident: values[ident],
                scheme="balanced",
                d0_provider=lambda: space.size / n,
            )
        for service in services.values():
            service.start_continuous(key, root, "count", interval=0.5)
        transport.run(until=transport.now() + 30.0)
        assert services[root].root_estimate(key) == n

        # A node leaves; stabilization re-wires fingers; pushes re-route.
        services[victim].stop_continuous(key)
        overlay.remove_node(victim, graceful=True)
        transport.run(until=transport.now() + 60.0)

        # The root's cached child states may briefly double-count the
        # departed node; after caches refresh the count reflects n-1
        # within one stale entry.
        estimate = services[root].root_estimate(key)
        assert abs(estimate - (n - 1)) <= 1
