"""The centralized aggregation baseline (paper Sec. 5.3, Fig. 8).

"Each node in the network except the root node itself must send their local
values to the root node directly. In addition, the closer a node precedes
the root node in the Chord identifier space, the more aggregation messages
it has to forward for other nodes due to the nature of the Chord finger
routing algorithm."

Two variants are provided:

* **routed** — every node ships its raw value to the root over Chord finger
  routing with *no in-network aggregation*; intermediate hops forward
  (and are loaded by) other nodes' values. This is the variant the Fig. 8(a)
  narrative describes; :func:`fast_centralized_load_array` counts its loads
  without tracing a route.
* **direct** — every node sends one IP-direct message to the root (one
  logical hop). The root still melts under ``n - 1`` messages; forwarders
  carry nothing.

Loads use the library-wide accounting: messages sent + received per node.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro import telemetry
from repro.chord.fastbuild import fast_tree_arrays
from repro.chord.ring import StaticRing
from repro.core.aggregates import Aggregate
from repro.core.builder import DatScheme

__all__ = [
    "fast_centralized_load_array",
    "CentralizedAggregator",
]


def _direct_loads(ring: StaticRing, key: int) -> dict[int, int]:
    """Per-node message loads when every node sends directly to the root."""
    root = ring.successor(key)
    loads: dict[int, int] = {}
    for node in ring:
        loads[node] = 1 if node != root else 0  # one send each
    loads[root] += len(ring) - 1  # root receives everything
    telemetry.count(
        "baseline_messages_total", float(len(ring) - 1), variant="direct"
    )
    return loads


def fast_centralized_load_array(ring: StaticRing, key: int) -> np.ndarray:
    """Per-node loads of the centralized *routed* baseline, aligned with
    ``ring.id_index().ids``.

    Equals the route-by-route count (``centralized_routed_loads`` in
    ``tests/oracles.py``) without tracing a single route: the greedy hop
    toward the root *is* the basic-DAT parent rule
    (``FingerTable.closest_preceding`` picks the highest non-overshooting
    slot, which always exists because slot 0 is the immediate successor),
    so every route climbs the basic tree's parent chain. A node ``v !=
    root`` therefore forwards one message per member of its basic-DAT
    subtree and receives one per member but itself — ``load(v) = 2 *
    subtree(v) - 1`` — while the root receives ``n - 1``. Emits the
    ``baseline_messages_total`` counter (total sent = sum of depths).
    """
    tree = fast_tree_arrays(ring, key, scheme=DatScheme.BASIC)
    sizes = tree.subtree_size_array()
    loads = 2 * sizes - 1
    loads[tree.root_index] = tree.nodes.size - 1
    telemetry.count(
        "baseline_messages_total",
        float(int(tree.depth_array().sum())),
        variant="routed",
    )
    return loads


class CentralizedAggregator:
    """Convenience wrapper computing a global aggregate the centralized way.

    Functionally the result equals the DAT's (same aggregate function over
    the same values); only the message economics differ — which is the
    entire point of Fig. 8.
    """

    def __init__(self, ring: StaticRing, key: int, routed: bool = True) -> None:
        self.ring = ring
        self.key = key
        self.routed = routed
        self.root = ring.successor(key)

    def aggregate(self, values: Mapping[int, float], aggregate: Aggregate) -> Any:
        """Compute the global aggregate over per-node ``values``."""
        missing = [node for node in self.ring if node not in values]
        if missing:
            raise ValueError(f"missing values for {len(missing)} nodes: {missing[:5]}")
        return aggregate.aggregate(values[node] for node in self.ring)

    def message_loads(self) -> dict[int, int]:
        """Per-node loads for one aggregation round under this variant."""
        if self.routed:
            loads = fast_centralized_load_array(self.ring, self.key)
            return dict(zip(self.ring.id_index().ids.tolist(), loads.tolist()))
        return _direct_loads(self.ring, self.key)
