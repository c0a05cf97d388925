"""Integration: a real UDP cluster on localhost (the paper's RPC setup).

Mirrors the prototype's cluster deployment at reduced scale: protocol nodes
exchanging genuine datagrams over 127.0.0.1, stabilizing in wall-clock
time, then aggregating over the live overlay. Kept small (8 nodes, short
timers) so the test finishes in a few seconds.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.chord.idspace import IdSpace
from repro.chord.node import ChordConfig, ChordProtocolNode
from repro.chord.ring import StaticRing
from repro.core.service import DatNodeService
from repro.sim.udprpc import UdpRpcTransport


def wait_until(predicate, timeout=20.0, interval=0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class ThreadRecordingTransport(UdpRpcTransport):
    """Records the thread of every handler dispatch and timer callback."""

    def __init__(self) -> None:
        self.handler_threads: set[int] = set()
        self.timer_threads: set[int] = set()
        super().__init__()

    def _dispatch(self, message) -> None:
        self.handler_threads.add(threading.get_ident())
        super()._dispatch(message)

    def schedule(self, delay, callback):
        def fire() -> None:
            self.timer_threads.add(threading.get_ident())
            callback()

        return super().schedule(delay, fire)


@pytest.fixture(scope="module")
def cluster():
    space = IdSpace(12)
    transport = ThreadRecordingTransport()
    config = ChordConfig(
        stabilize_interval=0.05,
        fix_fingers_interval=0.02,
        check_predecessor_interval=0.1,
        rpc_timeout=0.5,
    )
    idents = [(i * space.size) // 8 + 3 for i in range(8)]
    nodes: dict[int, ChordProtocolNode] = {}
    first = ChordProtocolNode(idents[0], space, transport, config)
    first.create()
    nodes[idents[0]] = first
    for ident in idents[1:]:
        node = ChordProtocolNode(ident, space, transport, config)
        node.join(idents[0])
        nodes[ident] = node
        time.sleep(0.05)

    ideal = StaticRing(space, idents)

    def converged() -> bool:
        return all(
            node.successor == ideal.successor_of_node(ident)
            and node.predecessor == ideal.predecessor_of_node(ident)
            for ident, node in nodes.items()
        )

    assert wait_until(converged), "UDP overlay failed to stabilize"

    def fingers_done() -> bool:
        return all(
            node.finger_table().entries == ideal.finger_entries(ident)
            for ident, node in nodes.items()
        )

    for node in nodes.values():
        node.fix_all_fingers()
    assert wait_until(fingers_done), "UDP fingers failed to converge"

    yield space, transport, nodes, ideal
    for node in nodes.values():
        node.stop_maintenance()
    transport.close()


class TestUdpOverlay:
    def test_ring_converged(self, cluster):
        space, _transport, nodes, ideal = cluster
        for ident, node in nodes.items():
            assert node.successor == ideal.successor_of_node(ident)

    def test_lookup_over_udp(self, cluster):
        space, _transport, nodes, ideal = cluster
        origin = next(iter(nodes.values()))
        results: list[int] = []
        target_key = (ideal.nodes[5] - 1) % space.size
        origin.lookup(target_key, lambda result, path: results.append(result))
        assert wait_until(lambda: bool(results))
        assert results[0] == ideal.successor(target_key)

    def test_continuous_aggregation_over_udp(self, cluster):
        space, _transport, nodes, ideal = cluster
        key = 100
        root = ideal.successor(key)
        n = len(nodes)
        values = {ident: float(i + 1) for i, ident in enumerate(sorted(nodes))}
        services = {}
        for ident, node in nodes.items():
            services[ident] = DatNodeService(
                node,
                finger_provider=node.finger_table,
                value_provider=lambda ident=ident: values[ident],
                scheme="balanced",
                d0_provider=lambda: space.size / n,
            )
        for service in services.values():
            service.start_continuous(key, root, "sum", interval=0.05)
        expected = sum(values.values())
        assert wait_until(
            lambda: services[root].root_estimate(key) == pytest.approx(expected),
            timeout=15.0,
        )
        for service in services.values():
            service.stop_continuous(key)

    def test_every_handler_and_timer_runs_on_the_receive_loop(self, cluster):
        # One thread per transport: every dispatch and timer callback so far
        # (joins, stabilization, fix-fingers, RPC deadlines and, after the
        # test above, the continuous pushes) ran on the receive loop.
        _space, transport, _nodes, _ideal = cluster
        loop = transport._thread.ident
        assert transport.handler_threads == {loop}
        assert transport.timer_threads == {loop}


def test_udp_cluster_example_runs():
    # The example builds its cluster on DatOverlay over real sockets. Its
    # convergence waits are deadline polls, so the timeout only bounds a hang.
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(root / "examples" / "udp_cluster.py")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert "(exact)" in done.stdout, done.stdout
