"""Static (converged) Chord ring model.

:class:`StaticRing` is a snapshot of a stabilized Chord overlay: a sorted set
of node identifiers plus exact successor/predecessor/finger queries answered
with binary search. The large-scale experiments (tree properties up to
~10^5–10^6 nodes, Fig. 7/8) run against this model, exactly as the paper's
analysis assumes a converged overlay. The dynamic protocol in
:mod:`repro.chord.node` converges to the same structure — an invariant the
integration tests assert.

One membership, two lazily built views of it:

* the sorted ``list[int]`` (:attr:`StaticRing.nodes`) serves every bit
  width, every scalar query and :meth:`~StaticRing.add` /
  :meth:`~StaticRing.remove`, by :mod:`bisect`;
* the ``int64`` :class:`~repro.chord.ringarray.RingArray`
  (:meth:`StaticRing.id_index`, ``bits <= 62``) is what the vectorized
  consumers read; it is built once per membership version.

The constructor starts from the list; :meth:`StaticRing.from_sorted_ids`
adopts a vector as-is and builds the list only when a scalar query or a
membership change asks for it, so a 10^6-node ring that only feeds the
array pipeline never holds per-node Python objects.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.chord.fingers import FingerTable
from repro.chord.idspace import IdSpace
from repro.chord.ringarray import ARRAY_MAX_BITS, RingArray
from repro.errors import (
    DuplicateNodeError,
    EmptyRingError,
    IdentifierError,
    UnknownNodeError,
)

__all__ = ["StaticRing"]


class StaticRing:
    """A converged Chord ring over a set of node identifiers.

    Parameters
    ----------
    space:
        The identifier space.
    nodes:
        Initial node identifiers (need not be sorted; duplicates rejected).
    """

    def __init__(self, space: IdSpace, nodes: Iterable[int] = ()) -> None:
        self.space = space
        seen: set[int] = set()
        for ident in nodes:
            space.validate(ident)
            if ident in seen:
                raise DuplicateNodeError(f"duplicate node identifier {ident}")
            seen.add(ident)
        # At least one of the two views is always present.
        self._nodes: list[int] | None = sorted(seen)
        self._index: RingArray | None = None
        self._version = 0

    @classmethod
    def from_sorted_ids(
        cls, space: IdSpace, ids: Sequence[int] | np.ndarray
    ) -> "StaticRing":
        """Build a ring from already-sorted, strictly increasing identifiers.

        Skips the per-element Python validation loop of the constructor —
        the sortedness/range checks run vectorized in :class:`RingArray` —
        which is what makes 10^5–10^6-node ring construction cheap. Raises
        on unsorted or duplicate input. Spaces too wide for an ``int64``
        vector go through the constructor.
        """
        if space.bits > ARRAY_MAX_BITS:
            ring = cls(space, ids)
            if ring._nodes != list(ids):
                raise DuplicateNodeError("ids must be sorted and strictly increasing")
            return ring
        ring = cls(space)
        ring._nodes = None
        ring._index = RingArray(space, np.ascontiguousarray(ids, dtype=np.int64))
        return ring

    # ------------------------------------------------------------------ #
    # Collection protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        if self._nodes is not None:
            return len(self._nodes)
        assert self._index is not None
        return len(self._index)

    def __iter__(self) -> Iterator[int]:
        return iter(self.nodes)

    def __contains__(self, ident: int) -> bool:
        nodes = self.nodes
        index = bisect_left(nodes, ident)
        return index < len(nodes) and nodes[index] == ident

    @property
    def nodes(self) -> list[int]:
        """Sorted node identifiers (shared view; do not mutate).

        A ring adopted by :meth:`from_sorted_ids` builds the list from its
        identifier vector on first access; large-scale callers should
        prefer :meth:`id_index`, which stays array-native.
        """
        if self._nodes is None:
            assert self._index is not None
            self._nodes = self._index.ids.tolist()
        return self._nodes

    @property
    def version(self) -> int:
        """Monotone membership-change counter.

        Incremented by every :meth:`add` / :meth:`remove`, letting derived
        caches (finger tables, the incremental maintenance engine) detect
        out-of-band ring mutation cheaply instead of comparing node lists.
        """
        return self._version

    def id_index(self) -> RingArray:
        """Array view of the membership (``bits <= 62`` only).

        Built once per membership version (an adopted vector is returned
        as-is). This is the one sorted-id vector every vectorized consumer
        (:mod:`repro.chord.fastbuild`, the protocol block, the scale
        pipeline) shares.
        """
        if self._index is None:
            if self.space.bits > ARRAY_MAX_BITS:
                raise IdentifierError(
                    f"id_index requires bits <= {ARRAY_MAX_BITS}, got {self.space.bits}"
                )
            self._index = RingArray(
                self.space, np.array(self._nodes, dtype=np.int64), trusted=True
            )
        return self._index

    # ------------------------------------------------------------------ #
    # Membership changes
    # ------------------------------------------------------------------ #

    def add(self, ident: int) -> None:
        """Insert a node (O(n) shift; rings are built once, queried often)."""
        self.space.validate(ident)
        if ident in self:
            raise DuplicateNodeError(f"duplicate node identifier {ident}")
        insort(self.nodes, ident)
        self._index = None
        self._version += 1

    def remove(self, ident: int) -> None:
        """Remove a node."""
        del self.nodes[self._index_of(ident)]
        self._index = None
        self._version += 1

    # ------------------------------------------------------------------ #
    # Consistent-hashing queries
    # ------------------------------------------------------------------ #

    # ``successor`` / ``predecessor`` make the empty-ring check and
    # ``IdSpace.validate`` inline: a query is one frame plus the bisect.

    def successor(self, key: int) -> int:
        """First node whose identifier equals or follows ``key`` clockwise."""
        nodes = self._nodes if self._nodes is not None else self.nodes
        if not nodes:
            raise EmptyRingError("operation requires a non-empty ring")
        if not (isinstance(key, int) and 0 <= key <= self.space.max_id):
            raise IdentifierError(f"identifier {key!r} outside [0, 2^{self.space.bits})")
        try:
            return nodes[bisect_left(nodes, key)]
        except IndexError:  # past the last node: wrap to the first
            return nodes[0]

    def predecessor(self, key: int) -> int:
        """Last node whose identifier strictly precedes ``key`` clockwise."""
        nodes = self._nodes if self._nodes is not None else self.nodes
        if not nodes:
            raise EmptyRingError("operation requires a non-empty ring")
        if not (isinstance(key, int) and 0 <= key <= self.space.max_id):
            raise IdentifierError(f"identifier {key!r} outside [0, 2^{self.space.bits})")
        return nodes[bisect_left(nodes, key) - 1]  # -1 wraps to the top

    def successor_of_node(self, ident: int) -> int:
        """The node immediately following node ``ident`` on the ring."""
        nodes = self.nodes
        return nodes[(self._index_of(ident) + 1) % len(nodes)]

    def predecessor_of_node(self, ident: int) -> int:
        """The node immediately preceding node ``ident`` on the ring."""
        return self.nodes[self._index_of(ident) - 1]  # -1 wraps to the top

    def _index_of(self, ident: int) -> int:
        """Position of member ``ident`` in the sorted node list."""
        nodes = self.nodes
        index = bisect_left(nodes, ident)
        if index == len(nodes) or nodes[index] != ident:
            raise UnknownNodeError(ident)
        return index

    def gaps(self) -> dict[int, int]:
        """Owned-interval length for every node (``{}`` on an empty ring)."""
        nodes = self.nodes
        if len(nodes) == 1:
            return {nodes[0]: self.space.size}
        return {
            ident: self.space.cw(before, ident)
            for before, ident in zip(nodes[-1:] + nodes[:-1], nodes)
        }

    def gap_ratio(self) -> float:
        """Ratio of the largest to the smallest inter-node gap.

        Random identifiers give a ratio of ``O(log n)``; identifier probing
        bounds it by a constant (Adler et al., referenced in Sec. 3.5).
        """
        if not len(self):
            raise EmptyRingError("operation requires a non-empty ring")
        if self.space.bits <= ARRAY_MAX_BITS:
            gaps_arr = self.id_index().gaps()
            return int(gaps_arr.max()) / int(gaps_arr.min())
        gaps = list(self.gaps().values())
        return max(gaps) / min(gaps)

    # ------------------------------------------------------------------ #
    # Finger tables
    # ------------------------------------------------------------------ #

    def finger_entries(self, ident: int) -> list[int]:
        """Finger entries of node ``ident``: slot ``j`` -> successor(ident + 2^j).

        Every slot whose start ``ident + 2^j`` does not pass the successor
        holds it (the first ``gap.bit_length()``); each other slot costs one
        bisect.
        """
        nodes = self.nodes
        count = len(nodes)
        index = bisect_left(nodes, ident)
        if index == count or nodes[index] != ident:
            raise UnknownNodeError(ident)
        space = self.space
        successor = nodes[(index + 1) % count]
        near = space.cw(ident, successor).bit_length()
        mask = space.max_id
        return [successor] * near + [
            nodes[bisect_left(nodes, (ident + (1 << j)) & mask) % count]
            for j in range(near, space.bits)
        ]

    def finger_table(self, ident: int) -> FingerTable:
        """Build the full converged finger table of node ``ident``.

        Trusted: every entry is a ring member, validated when it joined.
        """
        return FingerTable.trusted(self.space, ident, self.finger_entries(ident))

    def all_finger_tables(self) -> dict[int, FingerTable]:
        """Finger tables of every node: O(n·log² n), one bisect for each of
        the ~``log2 n`` slots that pass a node's successor."""
        return {ident: self.finger_table(ident) for ident in self.nodes}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StaticRing(bits={self.space.bits}, n={len(self)})"
