"""Slim protocol-node block: a whole ring's routing state as shared arrays.

The object path gives every node a :class:`~repro.chord.node.ChordNode` with
its own finger list — fine to ~10^4 nodes, prohibitive at 10^5+. In
bulk-simulation mode the whole converged ring is represented once, here, as
the sorted identifier vector (shared with :class:`~repro.chord.ring.StaticRing`
/ :class:`~repro.chord.ringarray.RingArray`), and the protocol's parent rule
runs for *all* nodes at once (:meth:`ChordNodeBlock.key_parents`) as the
closed form of :func:`repro.core.limiting.parent_slots`: two
``searchsorted`` passes over the ids, no finger read.

Bit-exactness contract: :meth:`ChordNodeBlock.key_parents` reproduces
``DatNodeService.parent_toward_key`` — the *key-addressed* Algorithm 1
rule, including the balanced scheme's float-estimated ``d0`` path through
:class:`~repro.core.limiting.FingerLimiter.for_gap` — for every node,
asserted in ``tests/unit/test_block.py``, against the ``(n, bits)`` finger
scan it replaced in ``tests/property/test_prop_key_parent_slot.py``, and by
the protocol property suite.

The block holds ``space`` and the sorted ``ids`` (8 B/node, shared with
the ring). :attr:`ChordNodeBlock.matrix`, the ``(n, bits)`` finger matrix,
is built on first read for the frozen perf ledger, its one reader.
"""

from __future__ import annotations

import numpy as np

from repro.chord.fastbuild import FAST_PATH_MAX_BITS, fast_finger_matrix
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.core.limiting import parent_slots
from repro.errors import TreeError

__all__ = ["ChordNodeBlock"]


class ChordNodeBlock:
    """All protocol nodes of one converged ring, array-backed.

    Construction snapshots the ring's sorted identifier vector; the block
    is immutable and shared by every consumer.
    """

    __slots__ = ("space", "ids", "_matrix")

    def __init__(self, space: IdSpace, ids: np.ndarray) -> None:
        self.space = space
        self.ids = ids
        self._matrix: np.ndarray | None = None

    @classmethod
    def from_ring(cls, ring: StaticRing) -> "ChordNodeBlock":
        """Snapshot a converged ring (``bits <= FAST_PATH_MAX_BITS``)."""
        if ring.space.bits > FAST_PATH_MAX_BITS:
            raise TreeError(
                f"protocol block supports bits <= {FAST_PATH_MAX_BITS}, "
                f"got {ring.space.bits}; use the object path"
            )
        if len(ring) == 0:
            raise TreeError("protocol block requires a non-empty ring")
        return cls(ring.space, ring.id_index().ids)

    def __len__(self) -> int:
        return int(self.ids.size)

    @property
    def matrix(self) -> np.ndarray:
        """The ``(n, bits)`` finger matrix of :attr:`ids`, built on first read.

        Only the frozen perf ledger reads it. When ROADMAP item 1(b) frees
        the ledger, this, ``_check_matrix``, ``fast_tree_arrays(matrix=)``,
        ``fast_finger_matrix`` and ``DatTreeBuilder.finger_matrix`` leave
        ``src/`` in one commit.
        """
        if self._matrix is None:  # from the snapshot: the ring may have changed
            ring = StaticRing.from_sorted_ids(self.space, self.ids)
            self._matrix = fast_finger_matrix(ring)
        return self._matrix

    def owner_index(self, key: int) -> int:
        """Position of ``successor(key)`` — the key's owner/root."""
        i = int(np.searchsorted(self.ids, np.int64(self.space.validate(key))))
        return 0 if i == len(self.ids) else i

    def key_parents(self, key: int, scheme: str = "balanced") -> np.ndarray:
        """Every node's ``parent_toward_key(key)`` in one pass.

        Returns an int64 array aligned with :attr:`ids`: element ``i`` is
        the parent identifier node ``i`` pushes to, or ``-1`` where the
        scalar rule returns ``None`` (a lone ring — in a converged
        multi-node ring every node has a parent; the key's *owner* gets its
        own successor-ward parent too, exactly like the scalar rule, and
        callers exclude it because the owner finalizes instead of pushing).

        The slot is :func:`~repro.core.limiting.parent_slots` at ``reach =
        cw(i, p*)``, ``p*`` the last member at or before ``key`` (row ``p*``
        reaches nothing and takes slot 0, its successor), with the balanced
        limit at ``x = cw(i, key)`` and the overlay's gap estimate ``space.size
        / n`` — a float, as ``DatNodeService``'s ``d0_provider`` returns it.
        Reads :attr:`ids` only.
        """
        if scheme not in ("basic", "balanced"):
            raise ValueError(f"unknown scheme {scheme!r}")
        space = self.space
        ids = self.ids
        n = ids.size
        mask = np.int64(space.max_id)
        key = space.validate(key)
        last = ids[np.searchsorted(ids, key, side="right") - 1]  # p*; -1 wraps
        reach = np.maximum((last - ids) & mask, 1)
        balanced = scheme == "balanced"
        x = (np.int64(key) - ids) & mask if balanced else None
        slot = parent_slots(reach, x, space.size / n if balanced else None)
        finger = np.left_shift(np.int64(1), slot, out=slot)
        finger += ids
        finger &= mask
        position = np.searchsorted(ids, finger)
        position[position == n] = 0  # wrap past the top of the ring
        parents = ids.take(position)
        parents[parents == ids] = -1  # a lone ring: the node is its own successor
        return parents

    def state_nbytes(self) -> int:
        """Bytes of array state held: the ids, plus the matrix once read."""
        matrix = 0 if self._matrix is None else self._matrix.nbytes
        return int(self.ids.nbytes + matrix)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ChordNodeBlock(n={len(self)}, bits={self.space.bits})"
