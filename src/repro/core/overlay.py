"""DatOverlay — a live protocol overlay with DAT services on every node.

The one assembly of the DAT layer on live Chord nodes, on any transport: a
:class:`~repro.chord.network.ChordNetwork` plus one
:class:`~repro.core.service.DatNodeService` per node, kept consistent as
members join and leave. :meth:`DatOverlay.close` removes every member, so
nothing the overlay built sends another message. Used by the
extreme-dynamics experiment (the paper's suggested future work),
:class:`~repro.gma.live.LiveGridMonitor` and the UDP example.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.chord.idspace import IdSpace
from repro.chord.network import ChordNetwork
from repro.chord.node import ChordConfig
from repro.core.service import DatNodeService
from repro.errors import RingError
from repro.sim.simnet import SimTransport
from repro.sim.transport import Transport

__all__ = ["DatOverlay"]


class DatOverlay:
    """A churn-capable overlay where every node runs the DAT layer.

    Parameters
    ----------
    space:
        Identifier space.
    transport:
        Message substrate (any :class:`Transport`).
    config:
        Chord protocol tuning.
    scheme:
        DAT construction scheme for all services.
    value_provider:
        ``node_ident -> current local reading``; defaults to 1.0 per node
        (so SUM == COUNT == live membership — handy for dynamics studies).
    """

    def __init__(
        self,
        space: IdSpace,
        transport: Transport | None = None,
        config: ChordConfig | None = None,
        scheme: str = "balanced",
        value_provider: Callable[[int], float] | None = None,
    ) -> None:
        self.space = space
        self.transport = transport if transport is not None else SimTransport()
        self.config = config or ChordConfig()
        self.scheme = scheme
        self.value_provider = value_provider or (lambda ident: 1.0)
        self.network = ChordNetwork(space, self.transport, self.config)
        self.services: dict[int, DatNodeService] = {}

    # ------------------------------------------------------------------ #
    # Teardown
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Remove every member: its DAT service, then its Chord node
        (maintenance stopped, unregistered, pending RPCs cancelled).
        Idempotent."""
        for ident in list(self.network.nodes):
            self.remove_node(ident, graceful=False)

    def __enter__(self) -> "DatOverlay":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.network.nodes)

    def add_node(self, ident: int, bootstrap: int | None = None) -> None:
        """Join a node and attach its DAT service."""
        node = self.network.add_node(ident, bootstrap=bootstrap)
        self.services[ident] = DatNodeService(
            node,
            finger_provider=node.finger_table,
            value_provider=lambda ident=ident: self.value_provider(ident),
            scheme=self.scheme,
            d0_provider=self._estimate_d0,
        )

    def boot(self, idents: Iterable[int], spacing: float) -> None:
        """Join ``idents`` one by one, ``spacing`` sim-s apart, then settle
        the ring, refresh every finger and run 5 sim-s (SimTransport only).
        """
        for ident in idents:
            self.add_node(ident)
            self.run(spacing)
        self.network.settle_until_converged()
        for node in self.network.nodes.values():
            node.fix_all_fingers()
        self.run(5.0)

    def remove_node(self, ident: int, graceful: bool = True) -> None:
        """Depart a node (closes its DAT service first).

        Teardown cost is proportional to the *departing node's own* state
        (its active keys, its pending RPCs via the transport's per-source
        index) — no scan over the remaining membership, so mass departures
        at 10^5 nodes stay linear overall instead of quadratic.
        """
        service = self.services.pop(ident, None)
        if service is not None:
            # Full teardown, not just stop_continuous: the service also
            # holds upcall registrations and a batcher on the host.
            service.close()
        self.network.remove_node(ident, graceful=graceful)

    def _estimate_d0(self) -> float:
        """Mean-gap estimate from the current (live) membership size.

        A deployed node would estimate this from its own gap or finger
        density; using the true count here isolates tree dynamics from
        estimation error (the d0-sensitivity ablation covers the latter).
        """
        count = max(len(self.network.nodes), 1)
        return self.space.size / count

    # ------------------------------------------------------------------ #
    # Aggregation across the overlay
    # ------------------------------------------------------------------ #

    def start_continuous_everywhere(
        self,
        key: int,
        aggregate: str,
        interval: float,
        stale_after: float = 4.0,
    ) -> int:
        """Start continuous aggregation on every current member.

        Returns the current root (``successor(key)`` in the live
        membership). New joiners must call :meth:`enroll` to participate.
        """
        root = self.current_root(key)
        for service in self.services.values():
            service.start_continuous(
                key, root, aggregate, interval, stale_after=stale_after
            )
        return root

    def enroll(
        self,
        ident: int,
        key: int,
        aggregate: str,
        interval: float,
        stale_after: float = 4.0,
    ) -> None:
        """Add one (newly joined) node to an active aggregation."""
        if ident not in self.services:
            raise RingError(f"node {ident} is not in the overlay")
        self.services[ident].start_continuous(
            key, self.current_root(key), aggregate, interval, stale_after=stale_after
        )

    def current_root(self, key: int) -> int:
        """``successor(key)`` under the live membership."""
        return self.network.ideal_ring().successor(key)

    def root_estimate(self, key: int) -> Any:
        """The current root's latest estimate (None before convergence)."""
        root = self.current_root(key)
        service = self.services.get(root)
        if service is None or key not in service._continuous:
            return None
        return service.root_estimate(key)

    # ------------------------------------------------------------------ #
    # Time
    # ------------------------------------------------------------------ #

    def run(self, duration: float) -> None:
        """Advance virtual time (SimTransport only)."""
        if not isinstance(self.transport, SimTransport):
            raise RingError("run() requires a SimTransport")
        self.transport.run(until=self.transport.now() + duration)
