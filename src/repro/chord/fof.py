"""Fingers-of-fingers (FoF) — the prototype's Chord extension (paper Sec. 4).

"Each node keeps not only the information of its direct fingers, but also
the information of its fingers of fingers (FOF)." The FoF cache gives a
node a two-hop routing horizon: when forwarding a lookup it can consider
its fingers' fingers as candidate next-next hops and jump straight to the
best one, roughly halving hop counts. It is also the information base the
prototype's DAT layer uses to compute child sets locally (our
``children_resolver`` injection is the converged equivalent — DESIGN.md).

:class:`FofMaintainer` holds the learned tables, drives their periodic
refresh over a transport and exposes the improved next-hop choice. The
cache is advisory: a stale entry can at worst cause one wasted
hop (the contacted node forwards normally), never incorrectness, because
candidates are still required not to overshoot the key.
"""

from __future__ import annotations

from typing import Callable

from repro.chord.fingers import FingerTable
from repro.chord.host import FingeredHost
from repro.net import RpcClient
from repro.sim.messages import Message

__all__ = ["FofMaintainer"]


class FofMaintainer:
    """Periodic FoF refresh for one protocol node.

    Parameters
    ----------
    host:
        Object with ``ident``, ``space``, ``transport``, ``upcalls`` and a
        ``finger_table()`` method (a :class:`ChordProtocolNode`).
    interval:
        Seconds between refreshes of one finger's table (round-robin).
    """

    def __init__(self, host: FingeredHost, interval: float = 1.0) -> None:
        self.host = host
        self.interval = interval
        host_net = getattr(host, "net", None)
        self.net: RpcClient = (
            host_net
            if isinstance(host_net, RpcClient)
            else RpcClient(host.transport, host.ident)
        )
        #: finger ident -> that finger's entries (as last reported).
        self.tables: dict[int, list[int]] = {}
        self._cursor = 0
        self._running = False
        self._cancel: Callable[[], None] | None = None
        host.upcalls["get_fingers"] = self._on_get_fingers

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Begin periodic refresh."""
        if self._running:
            return
        self._running = True
        self._schedule()

    def stop(self) -> None:
        """Stop refreshing (cache retained)."""
        self._running = False
        if self._cancel is not None:
            self._cancel()
            self._cancel = None

    def close(self) -> None:
        """Stop and release the ``get_fingers`` upcall registration."""
        self.stop()
        # `==`, not `is`: bound-method objects are recreated per access.
        if self.host.upcalls.get("get_fingers") == self._on_get_fingers:
            self.host.upcalls.pop("get_fingers", None)

    def _schedule(self) -> None:
        if not self._running:
            return
        self._cancel = self.host.transport.schedule(self.interval, self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        self._refresh_next()
        self._schedule()

    def _refresh_next(self) -> None:
        """Request the table of the next distinct finger (round-robin)."""
        table: FingerTable = self.host.finger_table()
        fingers = table.distinct_fingers()
        if not fingers:
            return
        self._cursor = (self._cursor + 1) % len(fingers)
        target = fingers[self._cursor]
        request = Message(
            kind="get_fingers", source=self.host.ident, destination=target, payload={}
        )

        def on_reply(reply: Message) -> None:
            self.tables[target] = list(reply.payload["entries"])

        def on_timeout(_msg: Message) -> None:
            self.tables.pop(target, None)

        self.net.call(request, on_reply, on_timeout=on_timeout)

    def refresh_all(self) -> None:
        """Kick a refresh of every distinct finger (test convergence aid)."""
        table: FingerTable = self.host.finger_table()
        for _ in table.distinct_fingers():
            self._refresh_next()

    def _on_get_fingers(self, message: Message) -> Message:
        table: FingerTable = self.host.finger_table()
        return message.response(entries=list(table.entries))

    # ------------------------------------------------------------------ #
    # Routing improvement
    # ------------------------------------------------------------------ #

    def next_hop(self, key: int) -> int | None:
        """Best next hop toward ``key`` using fingers + FoF.

        The known node (a finger, a cached finger or an entry of a cached
        table) that most closely precedes or reaches ``key``: at least as
        close as the plain finger choice; never overshoots.
        """
        table: FingerTable = self.host.finger_table()
        space, owner = self.host.space, self.host.ident
        best = table.closest_preceding(key)
        best_distance = -1 if best is None else space.cw(owner, best)
        target = space.cw(owner, key)
        for entries in (self.tables, *self.tables.values()):
            for node in entries:
                distance = space.cw(owner, node)
                if best_distance < distance <= target and node != owner:
                    best, best_distance = node, distance
        return best
