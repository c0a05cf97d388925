"""DHT broadcast over Chord fingers (paper Sec. 4's third primitive).

The DAT layer "leverages the three underlying Chord routines, i.e. route,
broadcast and upcall". Broadcast follows the classic finger-range scheme
(El-Ansary et al. / Li, Sollins & Lim, cited as [12]): the initiator hands
each distinct finger responsibility for the identifier arc up to the next
finger; each receiver recurses within its delegated arc. Every node
receives the message exactly once and the dissemination tree has height
O(log n) — invariants the property tests pin down.

Two implementations share the range logic:

* :func:`broadcast_tree` — the implied dissemination tree on a converged
  :class:`~repro.chord.ring.StaticRing` (for analysis and tests);
* :class:`BroadcastService` — a live upcall handler for protocol nodes /
  standalone hosts, delivering an application payload network-wide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.chord.fingers import FingerTable
from repro.chord.host import ChordHost
from repro.chord.ring import StaticRing
from repro.core.tree import DatTree
from repro.sim.messages import Message

__all__ = ["broadcast_tree", "BroadcastService"]


def _broadcast_children(
    table: FingerTable, limit: int
) -> list[tuple[int, int]]:
    """The (child, child_limit) delegations for one broadcast step.

    ``limit`` is the exclusive end of the identifier arc this node is
    responsible for covering. Each distinct finger ``f_j`` strictly inside
    ``(owner, limit)`` is delegated the sub-arc up to the next finger (or
    ``limit`` for the last one).
    """
    space = table.space
    owner = table.owner
    span = space.cw(owner, limit)
    if span == 0:
        # Responsible for the whole ring (initiator case).
        span = space.size

    fingers: list[int] = []
    for node in table.entries:
        if node == owner or node in fingers:
            continue
        if 0 < space.cw(owner, node) < span:
            fingers.append(node)
    fingers.sort(key=lambda node: space.cw(owner, node))

    delegations: list[tuple[int, int]] = []
    for index, child in enumerate(fingers):
        child_limit = fingers[index + 1] if index + 1 < len(fingers) else limit
        delegations.append((child, child_limit))
    return delegations


def broadcast_tree(
    ring: StaticRing,
    initiator: int,
    tables: dict[int, FingerTable] | None = None,
) -> DatTree:
    """The dissemination tree of a broadcast started at ``initiator``.

    Returned as a :class:`DatTree` rooted at the initiator so all the tree
    metrics (height, branching, loads) apply directly.
    """
    if tables is None:
        tables = ring.all_finger_tables()
    parent: dict[int, int] = {}
    # (node, limit) work queue; initiator covers the full circle.
    queue: list[tuple[int, int]] = [(initiator, initiator)]
    while queue:
        node, limit = queue.pop()
        for child, child_limit in _broadcast_children(tables[node], limit):
            parent[child] = node
            queue.append((child, child_limit))
    return DatTree(root=initiator, parent=parent, key=None)


@dataclass
class _Delivery:
    """Record of one delivered broadcast at a node."""

    broadcast_id: int
    initiator: int
    payload: Any


class BroadcastService:
    """Live broadcast layer for one node (upcall kind ``bcast``).

    Attach to any host with ``ident``/``space``/``transport``/``upcalls``
    (a :class:`~repro.chord.node.ChordProtocolNode` or a
    :class:`~repro.core.service.StandaloneDatHost`).

    Parameters
    ----------
    host:
        The hosting node.
    finger_provider:
        Returns the node's current finger table.
    on_deliver:
        Application callback ``(initiator, payload) -> None`` invoked once
        per broadcast.
    """

    _id_counter = 0

    def __init__(
        self,
        host: ChordHost,
        finger_provider: Callable[[], FingerTable],
        on_deliver: Callable[[int, Any], None] | None = None,
    ) -> None:
        self.host = host
        self.finger_provider = finger_provider
        self.on_deliver = on_deliver
        self.deliveries: list[_Delivery] = []
        self._seen: set[int] = set()
        host.upcalls["bcast"] = self._on_broadcast

    def close(self) -> None:
        """Detach from the host: release the ``bcast`` upcall registration.

        Without this, a departed node's service keeps handling broadcasts
        relayed to its ident for as long as the host object lives.
        """
        # `==`, not `is`: bound-method objects are recreated per access.
        if self.host.upcalls.get("bcast") == self._on_broadcast:
            self.host.upcalls.pop("bcast", None)

    def broadcast(self, payload: Any) -> int:
        """Start a network-wide broadcast from this node; returns its id."""
        BroadcastService._id_counter += 1
        broadcast_id = BroadcastService._id_counter
        self._deliver(broadcast_id, self.host.ident, payload)
        self._relay(broadcast_id, self.host.ident, payload, limit=self.host.ident)
        return broadcast_id

    def _relay(self, broadcast_id: int, initiator: int, payload: Any, limit: int) -> None:
        table = self.finger_provider()
        for child, child_limit in _broadcast_children(table, limit):
            self.host.transport.send(
                Message(
                    kind="bcast",
                    source=self.host.ident,
                    destination=child,
                    payload={
                        "id": broadcast_id,
                        "initiator": initiator,
                        "limit": child_limit,
                        "data": payload,
                    },
                )
            )

    def _on_broadcast(self, message: Message) -> None:
        payload = message.payload
        broadcast_id = payload["id"]
        if broadcast_id in self._seen:
            return None  # duplicate under churn: deliver-once semantics
        self._deliver(broadcast_id, payload["initiator"], payload["data"])
        self._relay(broadcast_id, payload["initiator"], payload["data"], payload["limit"])
        return None

    def _deliver(self, broadcast_id: int, initiator: int, payload: Any) -> None:
        self._seen.add(broadcast_id)
        self.deliveries.append(
            _Delivery(broadcast_id=broadcast_id, initiator=initiator, payload=payload)
        )
        if self.on_deliver is not None:
            self.on_deliver(initiator, payload)

    def received(self, broadcast_id: int) -> bool:
        """True if this node has delivered the given broadcast."""
        return broadcast_id in self._seen
