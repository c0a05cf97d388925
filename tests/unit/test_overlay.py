"""Unit tests for the DatOverlay facade."""

import pytest

from repro.chord.idspace import IdSpace
from repro.chord.node import ChordConfig
from repro.core.overlay import DatOverlay
from repro.errors import RingError
from repro.sim.latency import ConstantLatency
from repro.sim.simnet import SimTransport


def make_overlay(n: int = 8, bits: int = 12) -> DatOverlay:
    space = IdSpace(bits)
    transport = SimTransport(latency=ConstantLatency(0.005))
    config = ChordConfig(stabilize_interval=0.25, fix_fingers_interval=0.05)
    overlay = DatOverlay(space, transport, config)
    overlay.boot([(i * space.size) // n + 1 for i in range(n)], spacing=1.0)
    return overlay


class TestMembership:
    def test_add_wires_service(self):
        overlay = make_overlay(4)
        assert len(overlay) == 4
        assert set(overlay.services) == set(overlay.network.nodes)

    def test_remove_stops_service(self):
        overlay = make_overlay(4)
        victim = next(iter(overlay.network.nodes))
        overlay.remove_node(victim)
        assert victim not in overlay.services
        assert len(overlay) == 3

    def test_remove_node_fully_detaches_service(self):
        # Regression: remove_node only stopped continuous pushes;
        # the departed node's host kept the service's upcall registrations
        # and batcher.
        overlay = make_overlay(4)
        victim = next(iter(overlay.network.nodes))
        host = overlay.network.nodes[victim]
        assert "agg_push" in host.upcalls
        overlay.remove_node(victim)
        for kind in ("agg_push", "agg_collect", "net_batch"):
            assert kind not in host.upcalls

    def test_close_tears_down_every_service(self):
        # Regression: close() finalized telemetry but left every
        # DatNodeService registered on its host; later, it closed the
        # services but left every Chord node registered and maintaining,
        # so the next run kept sending and delivered pushes to hosts with
        # no DAT upcall.
        overlay = make_overlay(4)
        overlay.start_continuous_everywhere(17, "count", 0.5)
        overlay.run(4.0)
        hosts = dict(overlay.network.nodes)
        overlay.close()
        assert not overlay.services
        assert len(overlay) == 0
        for host in hosts.values():
            for kind in ("agg_push", "agg_collect", "net_batch"):
                assert kind not in host.upcalls
        transport = overlay.transport
        sent = transport.stats.total_messages()
        transport.run(until=transport.now() + 10.0)
        assert transport.stats.total_messages() == sent
        assert transport.pending_calls() == 0
        overlay.close()  # idempotent

    def test_enroll_requires_membership(self):
        overlay = make_overlay(4)
        with pytest.raises(RingError):
            overlay.enroll(999999, 0, "count", 0.5)


class TestAggregation:
    def test_count_converges_to_membership(self):
        overlay = make_overlay(8)
        key = 17
        overlay.start_continuous_everywhere(key, "count", 0.5)
        overlay.run(8.0)
        assert overlay.root_estimate(key) == 8

    def test_custom_value_provider(self):
        space = IdSpace(12)
        transport = SimTransport(latency=ConstantLatency(0.005))
        config = ChordConfig(stabilize_interval=0.25, fix_fingers_interval=0.05)
        overlay = DatOverlay(
            space, transport, config, value_provider=lambda ident: 2.0
        )
        overlay.boot([(i * space.size) // 4 + 1 for i in range(4)], spacing=1.0)
        overlay.start_continuous_everywhere(5, "sum", 0.5)
        overlay.run(6.0)
        assert overlay.root_estimate(5) == pytest.approx(8.0)

    def test_estimate_none_before_start(self):
        overlay = make_overlay(4)
        assert overlay.root_estimate(123) is None

    def test_join_mid_aggregation_is_counted(self):
        overlay = make_overlay(8)
        key = 17
        overlay.start_continuous_everywhere(key, "count", 0.5)
        overlay.run(8.0)
        newcomer = 999
        overlay.add_node(newcomer)
        overlay.enroll(newcomer, key, "count", 0.5)
        overlay.run(15.0)
        assert overlay.root_estimate(key) == 9

    def test_crash_mid_aggregation_is_uncounted(self):
        overlay = make_overlay(8)
        key = 17
        overlay.start_continuous_everywhere(key, "count", 0.5)
        overlay.run(8.0)
        root = overlay.current_root(key)
        victim = next(i for i in overlay.network.nodes if i != root)
        overlay.remove_node(victim, graceful=False)
        overlay.run(25.0)
        assert overlay.root_estimate(key) == 7


class TestRootRelocation:
    def test_root_follows_key_ownership(self):
        overlay = make_overlay(8)
        key = 17
        old_root = overlay.current_root(key)
        overlay.start_continuous_everywhere(key, "count", 0.5)
        overlay.run(8.0)
        # Join a node between the key and the old root: it takes over.
        new_root = (key + 1) % overlay.space.size
        if new_root in overlay.network.nodes:
            new_root += 1
        overlay.add_node(new_root)
        overlay.enroll(new_root, key, "count", 0.5)
        overlay.run(25.0)
        assert overlay.current_root(key) == new_root != old_root
        assert overlay.root_estimate(key) == 9


class TestRunGuards:
    def test_run_requires_sim_transport(self):
        from tests.inproc import InprocTransport

        overlay = DatOverlay(IdSpace(8), InprocTransport())
        with pytest.raises(RingError):
            overlay.run(1.0)
