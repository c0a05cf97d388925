"""Orchestration of many protocol nodes over one transport.

:class:`ChordNetwork` builds a live overlay node by node (optionally with
identifier-probing joins), drives stabilization until the overlay converges
to the ideal ring, and exports :class:`~repro.chord.ring.StaticRing`
snapshots so the analytical tooling can inspect a protocol-built network.
It works over any transport; with :class:`~repro.sim.simnet.SimTransport`
time is virtual and convergence checks are deterministic.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.chord.fingers import FingerTable
from repro.chord.idspace import IdSpace
from repro.chord.node import ChordConfig, ChordProtocolNode
from repro.chord.ring import StaticRing
from repro.errors import RingError
from repro.sim.messages import Message
from repro.sim.simnet import SimTransport
from repro.sim.transport import Transport
from repro.util.rng import ensure_rng

__all__ = ["ChordNetwork"]


class ChordNetwork:
    """A managed collection of live Chord nodes.

    Parameters
    ----------
    space:
        Shared identifier space.
    transport:
        Message substrate. The convergence helpers that advance virtual
        time require a :class:`SimTransport`.
    config:
        Protocol configuration applied to every node.
    """

    def __init__(
        self,
        space: IdSpace,
        transport: Transport,
        config: ChordConfig | None = None,
    ) -> None:
        self.space = space
        self.transport = transport
        self.config = config or ChordConfig()
        self.nodes: dict[int, ChordProtocolNode] = {}

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    def create_first(self, ident: int) -> ChordProtocolNode:
        """Bootstrap the ring with its first node."""
        if self.nodes:
            raise RingError("ring already bootstrapped; use add_node()")
        node = ChordProtocolNode(ident, self.space, self.transport, self.config)
        node.create()
        self.nodes[ident] = node
        return node

    def add_node(self, ident: int, bootstrap: int | None = None) -> ChordProtocolNode:
        """Join a new node through ``bootstrap`` (default: any existing node)."""
        if not self.nodes:
            return self.create_first(ident)
        if ident in self.nodes:
            raise RingError(f"node {ident} already in the network")
        gateway = bootstrap if bootstrap is not None else next(iter(self.nodes))
        node = ChordProtocolNode(ident, self.space, self.transport, self.config)
        node.join(gateway)
        self.nodes[ident] = node
        return node

    def probe_join(
        self,
        rng: int | np.random.Generator | None = None,
        bootstrap: int | None = None,
    ) -> int | None:
        """Request a probing-designated identifier from the overlay (Sec. 4).

        Sends ``probe_join`` with a random point through a well-known node
        and returns the designated identifier (``None`` until the reply
        arrives — with a sim transport, call :meth:`settle` or inspect the
        returned box after running the engine).
        """
        if not self.nodes:
            return None
        generator = ensure_rng(rng)
        point = int(generator.integers(0, self.space.size))
        gateway_id = bootstrap if bootstrap is not None else next(iter(self.nodes))
        gateway = self.nodes[gateway_id]
        result: dict[str, int | None] = {"designated": None}

        def route_done(successor: int, _path: list[int]) -> None:
            request = Message(
                kind="probe_join",
                source=gateway.ident,
                destination=successor,
                payload={"point": point},
            )

            def on_reply(reply: Message) -> None:
                result["designated"] = reply.payload["designated"]

            gateway.net.call(request, on_reply)

        gateway.lookup(point, route_done)
        if isinstance(self.transport, SimTransport):
            self.transport.run(until=self.transport.now() + 5 * self.config.rpc_timeout)
        return result["designated"]

    def add_node_probing(
        self,
        rng: int | np.random.Generator | None = None,
        bootstrap: int | None = None,
    ) -> ChordProtocolNode | None:
        """Join a node whose identifier is designated by probing (Sec. 4).

        Runs the ``probe_join`` exchange to get a designated identifier,
        then performs an ordinary join with it. Returns the new node, or
        ``None`` when the probe did not resolve (empty network, probe
        timeout) — callers can fall back to a random identifier.
        """
        designated = self.probe_join(rng=rng, bootstrap=bootstrap)
        if designated is None or designated in self.nodes:
            return None
        return self.add_node(designated, bootstrap=bootstrap)

    def remove_node(self, ident: int, graceful: bool = True) -> None:
        """Depart a node (gracefully or by crash)."""
        node = self.nodes.pop(ident)
        if graceful:
            node.leave()
        else:
            node.crash()

    # ------------------------------------------------------------------ #
    # Convergence helpers (virtual time; SimTransport only)
    # ------------------------------------------------------------------ #

    def _require_sim(self) -> SimTransport:
        if not isinstance(self.transport, SimTransport):
            raise RingError("time-driven helpers require a SimTransport")
        return self.transport

    def settle(self, duration: float) -> None:
        """Advance virtual time by ``duration`` (stabilization keeps running)."""
        sim = self._require_sim()
        sim.run(until=sim.now() + duration)

    def settle_until_converged(
        self, max_rounds: int = 200, round_duration: float | None = None
    ) -> int:
        """Run until the overlay matches the ideal ring; returns rounds used.

        Raises :class:`RingError` if convergence is not reached within
        ``max_rounds`` — a real protocol bug, not a tuning issue, in a
        loss-free simulation.
        """
        period = (
            round_duration
            if round_duration is not None
            else max(self.config.stabilize_interval, self.config.fix_fingers_interval)
        )
        for round_index in range(1, max_rounds + 1):
            self.settle(period)
            if self.is_converged():
                return round_index
        raise RingError(
            f"overlay failed to converge within {max_rounds} rounds "
            f"({len(self.nodes)} nodes)"
        )

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    def ideal_ring(self) -> StaticRing:
        """The converged ring implied by the current membership."""
        return StaticRing(self.space, self.nodes.keys())

    def is_converged(self, check_fingers: bool = False) -> bool:
        """True when every node's successor/predecessor (and optionally all
        finger slots) match the ideal ring."""
        if not self.nodes:
            return True
        ideal = self.ideal_ring()
        for ident, node in self.nodes.items():
            if node.successor != ideal.successor_of_node(ident):
                return False
            expected_pred = ideal.predecessor_of_node(ident)
            if len(self.nodes) > 1 and node.predecessor != expected_pred:
                return False
            if check_fingers:
                expected = ideal.finger_entries(ident)
                actual = node.finger_table().entries
                if actual != expected:
                    return False
        return True

    def finger_convergence_fraction(self) -> float:
        """Fraction of finger slots across all nodes matching the ideal ring."""
        if not self.nodes:
            return 1.0
        ideal = self.ideal_ring()
        total = 0
        correct = 0
        for ident, node in self.nodes.items():
            expected = ideal.finger_entries(ident)
            actual = node.finger_table().entries
            total += len(expected)
            correct += sum(1 for e, a in zip(expected, actual) if e == a)
        return correct / total if total else 1.0

    def snapshot_finger_tables(self) -> dict[int, FingerTable]:
        """Live finger tables of every node (as the DAT layer sees them)."""
        return {ident: node.finger_table() for ident, node in self.nodes.items()}

    def build_incrementally(
        self,
        idents: Iterable[int],
        settle_between: float = 0.0,
    ) -> None:
        """Join a sequence of nodes, optionally settling between joins."""
        for ident in idents:
            self.add_node(ident)
            if settle_between > 0:
                self.settle(settle_between)
