"""Unit tests for the centralized aggregation baseline."""

import pytest

from repro.baselines.centralized import CentralizedAggregator
from repro.chord.idgen import ProbingIdAssigner
from repro.chord.idspace import IdSpace
from repro.core.aggregates import SumAggregate
from tests.oracles import centralized_routed_loads


class TestDirectLoads:
    def test_root_receives_everything(self, full_ring4):
        loads = CentralizedAggregator(full_ring4, 0, routed=False).message_loads()
        assert loads[0] == 15  # n - 1 receives, zero sends

    def test_others_send_one(self, full_ring4):
        loads = CentralizedAggregator(full_ring4, 0, routed=False).message_loads()
        for node in range(1, 16):
            assert loads[node] == 1

    def test_total_conservation(self, full_ring4):
        loads = CentralizedAggregator(full_ring4, 0, routed=False).message_loads()
        # Each message counted once at the sender and once at the root.
        assert sum(loads.values()) == 2 * 15

    def test_imbalance_linear(self):
        from repro.core.analysis import imbalance_factor

        space = IdSpace(32)
        small = ProbingIdAssigner().build_ring(space, 64, rng=1)
        large = ProbingIdAssigner().build_ring(space, 512, rng=1)
        imb_small, imb_large = (
            imbalance_factor(CentralizedAggregator(ring, 5, routed=False).message_loads())
            for ring in (small, large)
        )
        assert imb_large > 4 * imb_small  # ~linear growth


class TestRoutedLoads:
    def test_root_receives_n_minus_one(self, full_ring4):
        loads = centralized_routed_loads(full_ring4, key=0)
        # The root terminates every route: n - 1 receives (plus 0 sends).
        assert loads[0] == 15

    def test_forwarders_loaded_near_root(self, full_ring4):
        # Paper Fig. 8(a): "the closer a node precedes the root node in the
        # Chord identifier space, the more aggregation messages it has to
        # forward" — N15 relays the whole left half of the ring toward N0.
        loads = centralized_routed_loads(full_ring4, key=0)
        assert loads[15] > loads[1]
        assert loads[15] > loads[8]

    def test_total_counts_every_hop_twice(self, full_ring4):
        from repro.chord.routing import finger_route

        loads = centralized_routed_loads(full_ring4, key=0)
        total_hops = sum(
            finger_route(full_ring4, node, 0).hops for node in full_ring4 if node != 0
        )
        assert sum(loads.values()) == 2 * total_hops

    def test_matches_paper_scale_at_512(self):
        space = IdSpace(32)
        ring = ProbingIdAssigner().build_ring(space, 512, rng=42)
        loads = centralized_routed_loads(ring, key=12345)
        root = ring.successor(12345)
        assert loads[root] == 511  # the paper's headline number


class TestCentralizedAggregator:
    def test_aggregate_value_matches_truth(self, full_ring4):
        aggregator = CentralizedAggregator(full_ring4, key=0)
        values = {node: float(node) for node in full_ring4}
        assert aggregator.aggregate(values, SumAggregate()) == sum(values.values())

    def test_missing_values_rejected(self, full_ring4):
        aggregator = CentralizedAggregator(full_ring4, key=0)
        with pytest.raises(ValueError):
            aggregator.aggregate({0: 1.0}, SumAggregate())

    def test_loads_variant_switch(self, full_ring4):
        routed = CentralizedAggregator(full_ring4, key=0, routed=True).message_loads()
        direct = CentralizedAggregator(full_ring4, key=0, routed=False).message_loads()
        assert routed != direct
        assert direct[1] == 1
