"""Unit tests for the fingers-of-fingers extension (paper Sec. 4)."""

import pytest

from repro.chord.fof import FofCache, FofMaintainer
from repro.chord.idspace import IdSpace
from repro.chord.network import ChordNetwork
from repro.chord.node import ChordConfig
from repro.sim.latency import ConstantLatency
from repro.sim.simnet import SimTransport


class TestFofCache:
    def test_update_and_known_nodes(self):
        cache = FofCache(space=IdSpace(8))
        cache.update(10, [20, 30, 40, 40, 10, 10, 10, 10])
        assert cache.known_nodes() == {10, 20, 30, 40}

    def test_forget(self):
        cache = FofCache(space=IdSpace(8))
        cache.update(10, [20] * 8)
        cache.forget(10)
        assert cache.known_nodes() == set()

    def test_best_toward_prefers_closest_preceding(self):
        space = IdSpace(8)
        cache = FofCache(space=space)
        cache.update(10, [20, 40, 80, 80, 80, 80, 80, 80])
        # From owner 0 toward key 100: candidates {10, 20, 40, 80}; 80 is
        # the farthest without overshooting.
        assert cache.best_toward(0, 100) == 80

    def test_best_toward_never_overshoots(self):
        space = IdSpace(8)
        cache = FofCache(space=space)
        cache.update(10, [20, 40, 200, 200, 200, 200, 200, 200])
        assert cache.best_toward(0, 100) == 40

    def test_best_toward_empty(self):
        cache = FofCache(space=IdSpace(8))
        assert cache.best_toward(0, 100) is None

    def test_best_toward_zero_distance(self):
        cache = FofCache(space=IdSpace(8))
        cache.update(10, [20] * 8)
        assert cache.best_toward(5, 5) is None


@pytest.fixture
def fof_overlay():
    space = IdSpace(12)
    transport = SimTransport(latency=ConstantLatency(0.005))
    config = ChordConfig(stabilize_interval=0.25, fix_fingers_interval=0.05)
    network = ChordNetwork(space, transport, config)
    n = 32
    for i in range(n):
        network.add_node((i * space.size) // n + 1)
        network.settle(0.5)
    network.settle_until_converged()
    for node in network.nodes.values():
        node.fix_all_fingers()
    network.settle(5.0)
    maintainers = {
        ident: FofMaintainer(node, interval=0.2)
        for ident, node in network.nodes.items()
    }
    for maintainer in maintainers.values():
        maintainer.refresh_all()
    network.settle(5.0)
    return network, maintainers


class TestFofMaintainer:
    def test_cache_fills(self, fof_overlay):
        network, maintainers = fof_overlay
        for ident, maintainer in maintainers.items():
            fingers = network.nodes[ident].finger_table().distinct_fingers()
            assert set(maintainer.cache.tables) == set(fingers), ident

    def test_cached_tables_are_correct(self, fof_overlay):
        network, maintainers = fof_overlay
        for ident, maintainer in maintainers.items():
            for finger, entries in maintainer.cache.tables.items():
                assert entries == network.nodes[finger].finger_table().entries

    def test_next_hop_at_least_as_good(self, fof_overlay):
        network, maintainers = fof_overlay
        space = network.space
        for ident, maintainer in list(maintainers.items())[:8]:
            table = network.nodes[ident].finger_table()
            for key in range(0, space.size, 509):
                plain = table.closest_preceding(key)
                improved = maintainer.next_hop(key)
                if plain is None:
                    continue
                assert improved is not None
                assert space.cw(ident, improved) >= space.cw(ident, plain)
                assert space.cw(ident, improved) <= space.cw(ident, key)

    def test_two_hop_horizon_reduces_distance(self, fof_overlay):
        # Somewhere on the ring FoF must strictly beat the plain finger
        # (otherwise the cache adds nothing).
        network, maintainers = fof_overlay
        space = network.space
        improvements = 0
        for ident, maintainer in maintainers.items():
            table = network.nodes[ident].finger_table()
            for key in range(0, space.size, 127):
                plain = table.closest_preceding(key)
                improved = maintainer.next_hop(key)
                if plain is not None and improved is not None:
                    if space.cw(ident, improved) > space.cw(ident, plain):
                        improvements += 1
        assert improvements > 0

    def test_start_stop(self, fof_overlay):
        network, maintainers = fof_overlay
        maintainer = next(iter(maintainers.values()))
        maintainer.start()
        network.settle(1.0)
        maintainer.stop()
        # No crash; periodic refresh ran and stopped.

    def test_close_stops_and_releases_upcall(self, fof_overlay):
        # Regression: stop() cancelled the timer but the
        # `get_fingers` upcall registration survived the maintainer.
        network, maintainers = fof_overlay
        ident, maintainer = next(iter(maintainers.items()))
        node = network.nodes[ident]
        assert node.upcalls["get_fingers"] == maintainer._on_get_fingers
        maintainer.start()
        maintainer.close()
        assert not maintainer._running
        assert "get_fingers" not in node.upcalls
        maintainer.close()  # idempotent

    def test_dead_finger_forgotten(self, fof_overlay):
        network, maintainers = fof_overlay
        victim = list(network.nodes)[3]
        observers = [
            maintainer
            for ident, maintainer in maintainers.items()
            if victim in maintainer.cache.tables
        ]
        assert observers
        network.remove_node(victim, graceful=False)
        for maintainer in observers:
            maintainer.refresh_all()
        network.settle(5.0)
        for maintainer in observers:
            assert victim not in maintainer.cache.tables
