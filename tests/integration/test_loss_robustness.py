"""Integration: aggregation robustness under UDP-style message loss.

The prototype rides on UDP — datagrams vanish. Continuous mode tolerates
loss naturally (the next push replaces the lost one within an interval);
these tests quantify that on a lossy simulated network.
"""

import pytest

from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.core.service import DatNodeService, StandaloneDatHost
from repro.sim.latency import ConstantLatency
from repro.sim.simnet import SimTransport
from tests.oracles import build_balanced_dat


def build_lossy_overlay(n: int, loss_rate: float, seed: int = 1):
    space = IdSpace(12)
    ring = StaticRing(space, [(i * space.size) // n for i in range(n)])
    tables = ring.all_finger_tables()
    transport = SimTransport(
        latency=ConstantLatency(0.002), loss_rate=loss_rate, rng=seed
    )
    key = 0
    tree = build_balanced_dat(ring, key, tables=tables)
    values = {node: float(node % 7 + 1) for node in ring}
    services = {}
    for node in ring:
        host = StandaloneDatHost(node, space, transport)
        services[node] = DatNodeService(
            host,
            finger_provider=lambda node=node: tables[node],
            value_provider=lambda node=node: values[node],
            scheme="balanced",
            d0_provider=lambda: space.size / n,
        )
    return ring, transport, tree, services, values


class TestContinuousUnderLoss:
    @pytest.mark.parametrize("loss_rate", [0.05, 0.15])
    def test_estimate_stays_near_truth(self, loss_rate):
        ring, transport, tree, services, values = build_lossy_overlay(
            32, loss_rate
        )
        truth = sum(values.values())
        for service in services.values():
            service.start_continuous(0, tree.root, "sum", interval=0.5)
        transport.run(until=30.0)
        # Sample the root estimate over the last 10 virtual seconds.
        samples = []
        for _ in range(20):
            transport.run(until=transport.now() + 0.5)
            estimate = services[tree.root].root_estimate(0)
            if estimate is not None:
                samples.append(estimate)
        assert samples, "root never produced an estimate"
        worst = max(abs(s - truth) / truth for s in samples)
        # Each lost push blanks one subtree for <= stale_after intervals;
        # with 15% loss the estimate stays within a modest band.
        assert worst < 0.6
        mean_error = sum(abs(s - truth) / truth for s in samples) / len(samples)
        assert mean_error < 0.25

    def test_zero_loss_is_exact(self):
        ring, transport, tree, services, values = build_lossy_overlay(16, 0.0)
        for service in services.values():
            service.start_continuous(0, tree.root, "sum", interval=0.5)
        transport.run(until=10.0)
        assert services[tree.root].root_estimate(0) == pytest.approx(
            sum(values.values())
        )

    def test_loss_hurts_monotonically(self):
        def mean_error(loss_rate: float) -> float:
            ring, transport, tree, services, values = build_lossy_overlay(
                24, loss_rate, seed=3
            )
            truth = sum(values.values())
            for service in services.values():
                service.start_continuous(0, tree.root, "sum", interval=0.5)
            transport.run(until=20.0)
            errors = []
            for _ in range(20):
                transport.run(until=transport.now() + 0.5)
                estimate = services[tree.root].root_estimate(0)
                if estimate is not None:
                    errors.append(abs(estimate - truth) / truth)
            return sum(errors) / len(errors)

        assert mean_error(0.0) <= mean_error(0.3) + 1e-9
