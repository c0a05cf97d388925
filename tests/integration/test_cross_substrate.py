"""Cross-substrate equivalence: the same layers over DES and real UDP.

The paper's prototype claim (Sec. 5.1): the RPC-based and simulator-based
setups share the Chord/DAT layers and "indeed have the consistent results
for the metrics we measured". These tests run identical small scenarios on
both transports and require identical outcomes.
"""

import time

from repro.chord.broadcast import BroadcastService
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.core.service import DatNodeService, StandaloneDatHost
from repro.sim.latency import ConstantLatency
from repro.sim.simnet import SimTransport
from repro.sim.udprpc import UdpRpcTransport


def wait_until(predicate, timeout=10.0, interval=0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


N = 12
SPACE = IdSpace(12)
RING = StaticRing(SPACE, [(i * SPACE.size) // N for i in range(N)])
TABLES = RING.all_finger_tables()
KEY = 0
VALUES = {node: float(node % 5 + 1) for node in RING}


def deploy_dat(transport):
    services = {}
    for node in RING:
        host = StandaloneDatHost(node, SPACE, transport)
        services[node] = DatNodeService(
            host,
            finger_provider=lambda node=node: TABLES[node],
            value_provider=lambda node=node: VALUES[node],
            scheme="balanced",
            d0_provider=lambda: SPACE.size / N,
            predecessor_provider=lambda node=node: RING.predecessor_of_node(node),
        )
    return services


class TestContinuousAcrossSubstrates:
    def test_same_estimate_on_both_transports(self):
        root = RING.successor(KEY)
        truth = sum(VALUES.values())

        # Simulator run.
        sim = SimTransport(latency=ConstantLatency(0.001))
        sim_services = deploy_dat(sim)
        for service in sim_services.values():
            service.start_continuous(KEY, root, "sum", interval=0.1)
        sim.run(until=5.0)
        sim_estimate = sim_services[root].root_estimate(KEY)

        # Real UDP run.
        with UdpRpcTransport() as udp:
            udp_services = deploy_dat(udp)
            for service in udp_services.values():
                service.start_continuous(KEY, root, "sum", interval=0.05)
            assert wait_until(
                lambda: udp_services[root].root_estimate(KEY) == truth
            )
            udp_estimate = udp_services[root].root_estimate(KEY)
            for service in udp_services.values():
                service.stop_continuous(KEY)

        assert sim_estimate == udp_estimate == truth


class TestBroadcastAcrossSubstrates:
    def deploy_broadcast(self, transport):
        services = {}
        for node in RING:
            host = StandaloneDatHost(node, SPACE, transport)
            services[node] = BroadcastService(
                host, finger_provider=lambda node=node: TABLES[node]
            )
        return services

    def test_same_coverage_and_message_count(self):
        initiator = RING.nodes[2]

        sim = SimTransport(latency=ConstantLatency(0.001))
        sim_services = self.deploy_broadcast(sim)
        sim.stats.reset()
        sim_id = sim_services[initiator].broadcast("cfg")
        sim.run(until=5.0)
        assert all(s.received(sim_id) for s in sim_services.values())
        sim_messages = sim.stats.by_kind().get("bcast", 0)

        with UdpRpcTransport() as udp:
            udp_services = self.deploy_broadcast(udp)
            udp_id = udp_services[initiator].broadcast("cfg")
            assert wait_until(
                lambda: all(s.received(udp_id) for s in udp_services.values())
            )
        assert sim_messages == N - 1  # and UDP delivered to everyone too
