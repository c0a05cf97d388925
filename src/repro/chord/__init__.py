"""Chord structured P2P overlay (Stoica et al., SIGCOMM 2001).

Two complementary models are provided, mirroring the paper's prototype:

* **Static analytical model** — :class:`~repro.chord.ring.StaticRing` holds a
  sorted snapshot of node identifiers and answers successor/predecessor and
  finger queries exactly. This is what the large-scale (up to 8192-node)
  tree-property experiments use; it corresponds to a converged overlay.

* **Dynamic protocol model** — :class:`~repro.chord.node.ChordProtocolNode`
  implements join / leave / stabilize / fix-fingers over a pluggable
  transport (discrete-event simulator or real UDP), used for churn and
  message-overhead experiments.

Identifier assignment strategies (random, uniform, Adler-style probing) live
in :mod:`repro.chord.idgen` and :mod:`repro.chord.probing`.
"""

from repro.chord.idspace import IdSpace
from repro.chord.hashing import sha1_id, LocalityPreservingHash
from repro.chord.fingers import FingerTable
from repro.chord.ring import StaticRing
from repro.chord.routing import finger_route, RouteResult
from repro.chord.idgen import (
    IdAssigner,
    RandomIdAssigner,
    UniformIdAssigner,
    ProbingIdAssigner,
    make_assigner,
)
from repro.chord.broadcast import BroadcastService, broadcast_tree
from repro.chord.fof import FofCache, FofMaintainer
from repro.chord.host import ChordHost, FingeredHost

__all__ = [
    "ChordHost",
    "FingeredHost",
    "IdSpace",
    "sha1_id",
    "LocalityPreservingHash",
    "FingerTable",
    "StaticRing",
    "finger_route",
    "RouteResult",
    "IdAssigner",
    "RandomIdAssigner",
    "UniformIdAssigner",
    "ProbingIdAssigner",
    "make_assigner",
    "BroadcastService",
    "broadcast_tree",
    "FofCache",
    "FofMaintainer",
]
