"""Greedy Chord finger routing (paper Sec. 3.1).

``finger_route(ring, source, key)`` reproduces the lookup path
``f_{u,v} = <w_0, ..., w_q>`` where each hop forwards to the finger that most
closely precedes the key, terminating at ``v = successor(key)``. The basic
DAT (Sec. 3.2) is exactly the union of these paths toward a rendezvous key;
the centralized baseline counts per-node load along them.

This is the *analytical* routing model (pure functions over a converged
:class:`~repro.chord.ring.StaticRing`). The live equivalent — recursive
``lookup`` messages with a deadline and reply correlation — runs in
:class:`~repro.chord.node.ChordProtocolNode` on top of the
:mod:`repro.net` session layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chord.fingers import FingerTable
from repro.chord.ring import StaticRing
from repro.errors import RoutingError

__all__ = ["RouteResult", "finger_route", "route_lengths"]


@dataclass(frozen=True)
class RouteResult:
    """The outcome of one finger-routed lookup."""

    key: int
    path: tuple[int, ...] = field(default_factory=tuple)

    @property
    def source(self) -> int:
        return self.path[0]

    @property
    def destination(self) -> int:
        return self.path[-1]

    @property
    def hops(self) -> int:
        """Number of messages: ``len(path) - 1``."""
        return len(self.path) - 1


def finger_route(
    ring: StaticRing,
    source: int,
    key: int,
    tables: dict[int, FingerTable] | None = None,
) -> RouteResult:
    """Route from ``source`` to ``successor(key)`` via greedy finger routing.

    Parameters
    ----------
    ring:
        Converged ring answering successor queries.
    source:
        Identifier of the originating node (must be in the ring).
    key:
        Lookup key.
    tables:
        Optional pre-built finger tables (saves recomputation across many
        routes, e.g. when the centralized baseline routes from every node).

    Returns
    -------
    RouteResult
        Path ``<source, ..., successor(key)>``. A source that is itself the
        key's successor yields a single-element path (0 hops).
    """
    space = ring.space
    destination = ring.successor(key)
    path = [source]
    current = source
    # Each hop at least halves the remaining clockwise distance, so b+1
    # iterations suffice on any converged ring; more means a table bug.
    for _ in range(space.bits + 1):
        if current == destination:
            return RouteResult(key=key, path=tuple(path))
        table = tables[current] if tables is not None else ring.finger_table(current)
        nxt = table.closest_preceding(key)
        if nxt is None or nxt == current:
            # No finger precedes the key: the destination is the immediate
            # successor of the current node.
            nxt = ring.successor_of_node(current)
        if space.cw(current, nxt) > space.cw(current, key) and nxt != destination:
            raise RoutingError(
                f"hop {current}->{nxt} overshoots key {key} (dest {destination})"
            )
        path.append(nxt)
        current = nxt
    raise RoutingError(
        f"lookup for key {key} from {source} exceeded {space.bits + 1} hops"
    )


def route_lengths(
    ring: StaticRing, key: int, tables: dict[int, FingerTable] | None = None
) -> dict[int, int]:
    """Hop count from every node to ``successor(key)``.

    Used to validate the ``O(log n)`` lookup bound and the basic-DAT height
    (the tree height equals the longest finger route, Sec. 3.3).
    """
    if tables is None:
        tables = ring.all_finger_tables()
    return {
        node: finger_route(ring, node, key, tables=tables).hops for node in ring
    }
