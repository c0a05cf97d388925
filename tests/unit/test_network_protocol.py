"""Unit tests for ChordNetwork orchestration."""

import pytest

from repro.chord.idspace import IdSpace
from repro.chord.network import ChordNetwork
from repro.chord.node import ChordConfig
from repro.errors import RingError
from repro.sim.latency import ConstantLatency
from repro.sim.simnet import SimTransport


def make_network(bits: int = 8) -> ChordNetwork:
    transport = SimTransport(latency=ConstantLatency(0.01))
    config = ChordConfig(stabilize_interval=0.5, fix_fingers_interval=0.1)
    return ChordNetwork(IdSpace(bits), transport, config)


class TestMembership:
    def test_bootstrap_then_joins(self):
        network = make_network()
        network.add_node(10)
        network.add_node(100)
        network.add_node(200)
        network.settle(30.0)
        assert network.is_converged()

    def test_duplicate_join_rejected(self):
        network = make_network()
        network.add_node(10)
        with pytest.raises(RingError):
            network.add_node(10)

    def test_add_node_bootstraps_empty_network(self):
        network = make_network()
        network.add_node(5)
        assert 5 in network.nodes

    def test_remove_node(self):
        network = make_network()
        network.add_node(10)
        network.add_node(100)
        network.settle(30.0)
        network.remove_node(100, graceful=True)
        network.settle(10.0)
        assert 100 not in network.nodes
        assert network.is_converged()

    def test_build_incrementally(self):
        network = make_network()
        network.build_incrementally([10, 50, 100, 150, 200], settle_between=3.0)
        network.settle_until_converged()
        assert len(network.nodes) == 5


class TestConvergence:
    def test_settle_until_converged(self):
        network = make_network()
        for ident in (10, 60, 120, 180):
            network.add_node(ident)
        rounds = network.settle_until_converged()
        assert rounds >= 1
        assert network.is_converged()

    def test_fingers_reach_the_ideal_ring(self):
        network = make_network()
        for ident in (10, 60, 120, 180):
            network.add_node(ident)
        network.settle_until_converged()
        for node in network.nodes.values():
            node.fix_all_fingers()
        network.settle(10.0)
        assert network.is_converged(check_fingers=True)

    def test_ideal_ring_matches_membership(self):
        network = make_network()
        for ident in (10, 60, 120):
            network.add_node(ident)
        assert network.ideal_ring().nodes == [10, 60, 120]

    def test_empty_network_is_converged(self):
        assert make_network().is_converged()


class TestProbeJoin:
    def test_probe_returns_designated_identifier(self):
        network = make_network()
        network.add_node(0)
        network.add_node(128)
        network.settle_until_converged()
        before = set(network.nodes)
        node = network.add_node_probing(rng=7)
        assert node is not None
        assert node.ident not in before
        assert set(network.nodes) == before | {node.ident}

    def test_probe_on_empty_network(self):
        network = make_network()
        assert network.add_node_probing(rng=1) is None
        assert network.nodes == {}
