"""Identifier probing for balanced identifier assignment (paper Sec. 3.5).

Randomly chosen identifiers give adjacent-gap ratios of ``O(log n)``, which
ruins the balanced DAT's constant branching factor. Adler et al. (STOC 2003)
proposed *identifier probing*: a joining node picks a random point, probes
``O(log n)`` neighbors of that point's successor, and splits the largest
owned interval among those probed. The max/min gap ratio then stays bounded
by a constant, and Sec. 5.2 shows the balanced DAT max branching becomes a
small constant (~4) under this scheme.

The prototype (Sec. 4) implements this at join time: the contacted successor
"splits the maximal interval of its fingers and returns the designated node
identifier to the joining node". :func:`probe_split_identifier` reproduces
that procedure against a ring snapshot; the protocol node calls the same
logic through its RPC layer.
"""

from __future__ import annotations

import math

import numpy as np

from repro.chord.ring import StaticRing
from repro.util.bits import ceil_log2
from repro.util.rng import ensure_rng

__all__ = ["probe_neighbors", "probe_split_identifier", "default_probe_count"]


def default_probe_count(n_nodes: int, multiplier: float = 2.0) -> int:
    """Number of neighbors to probe: ``ceil(multiplier * ceil_log2(n))``, >= 1.

    ``n`` is the ring size the join sees, so the count only moves when
    ``n`` passes a power of two.
    """
    if n_nodes <= 1:
        return 1
    return max(1, math.ceil(multiplier * ceil_log2(n_nodes)))


def probe_neighbors(ring: StaticRing, start: int, count: int) -> list[int]:
    """``count`` consecutive nodes clockwise starting at ``successor(start)``.

    These are the neighbors whose owned intervals the joining node inspects.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    count = min(count, len(ring))
    neighbors = [ring.successor(start)]
    while len(neighbors) < count:
        neighbors.append(ring.successor_of_node(neighbors[-1]))
    return neighbors


def probe_split_identifier(
    ring: StaticRing,
    rng: int | np.random.Generator | None = None,
    probe_multiplier: float = 2.0,
) -> int:
    """Choose a join identifier by probing and splitting the largest interval.

    Procedure (Sec. 3.5 / Sec. 4):

    1. Draw a random point ``p`` in the identifier space.
    2. Probe ``default_probe_count(n)`` consecutive neighbors of
       ``successor(p)``.
    3. Among the probed nodes, find the one owning the largest interval
       (largest clockwise gap from its predecessor).
    4. Return the midpoint of that interval as the new node's identifier.

    The returned identifier is guaranteed not to collide with an existing
    node (the midpoint of a gap of length >= 2; length-1 gaps fall back to a
    fresh random draw, which only occurs in nearly-full tiny spaces).
    """
    generator = ensure_rng(rng)
    space = ring.space
    if len(ring) == 0:
        return int(generator.integers(0, space.size))

    point = int(generator.integers(0, space.size))
    count = default_probe_count(len(ring), probe_multiplier)
    candidates = probe_neighbors(ring, point, count)

    best_node = max(candidates, key=ring.gap_before)
    gap = ring.gap_before(best_node)
    if gap < 2:
        # Space is locally saturated; retry with fresh random points.
        for _ in range(64):
            candidate = int(generator.integers(0, space.size))
            if candidate not in ring:
                return candidate
        raise RuntimeError("identifier space saturated; cannot place new node")

    predecessor = ring.predecessor_of_node(best_node)
    return space.wrap(predecessor + gap // 2)
