"""Slim protocol-node block: a whole ring's routing state as shared arrays.

The object path gives every node a :class:`~repro.chord.node.ChordNode` with
its own finger list — fine to ~10^4 nodes, prohibitive at 10^5+. In
bulk-simulation mode the whole converged ring is represented once, here, as

* the sorted identifier vector (shared with :class:`~repro.chord.ring.StaticRing`
  / :class:`~repro.chord.ringarray.RingArray`), and
* the fastbuild finger matrix (``(n, bits)`` int64 — row ``i`` is node
  ``i``'s finger table), built with two ``searchsorted`` passes.

Per-node state is ~``8 * bits`` bytes of one shared matrix instead of a
Python object graph, and the protocol's parent rule runs for *all* nodes at
once (:meth:`ChordNodeBlock.key_parents`).

Bit-exactness contract: :meth:`ChordNodeBlock.key_parents` reproduces
``DatNodeService.parent_toward_key`` — the *key-addressed* Algorithm 1
rule, including the balanced scheme's float-estimated ``d0`` path through
:class:`~repro.core.limiting.FingerLimiter.for_gap` — for every node,
asserted in ``tests/unit/test_block.py`` and the protocol property suite.

The closed form of the root-addressed kernel (:mod:`repro.chord.fastbuild`)
transfers to this rule on a converged block: with ``p*`` the last member at
or before ``key``, node ``i``'s slot is ``min(floor(log2 cw(i, p*)),
g(cw(i, key)))``, and row ``p*`` falls back to its successor (``-1`` on a
lone ring). ``tests/property/test_prop_key_parent_slot.py`` proves it
against the scan below, which stays as the reference. The matrix stays too:
the frozen ledger (``benchmarks/perf/micro.py``) reads ``block.matrix``, and
the 64k workloads' per-op times depend on the allocator state its
construction leaves behind (ROADMAP item 1), so going matrix-free needs a
``[benchmark]`` PR first.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.chord.fastbuild import FAST_PATH_MAX_BITS, _cw, fast_finger_matrix
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.core.limiting import balanced_limits
from repro.errors import IdentifierError, TreeError

__all__ = ["ChordNodeBlock", "balanced_limits"]


class ChordNodeBlock:
    """All protocol nodes of one converged ring, array-backed.

    Construction is two ``searchsorted`` passes over the sorted identifier
    vector (via :func:`~repro.chord.fastbuild.fast_finger_matrix`); the
    block is immutable and shared by every consumer — the slab protocol
    runner and the scale benchmarks read the same ``(n, bits)`` matrix.
    """

    __slots__ = ("space", "ids", "matrix")

    def __init__(self, space: IdSpace, ids: np.ndarray, matrix: np.ndarray) -> None:
        if matrix.shape != (len(ids), space.bits):
            raise TreeError(
                f"finger matrix shape {matrix.shape} does not match "
                f"({len(ids)} nodes, {space.bits} bits)"
            )
        self.space = space
        self.ids = ids
        self.matrix = matrix

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
        return cls(
            space=ring.space,
            ids=ring.id_index().ids,
            matrix=fast_finger_matrix(ring),
        )

    def __len__(self) -> int:
        return int(self.ids.size)

    def index_of(self, ident: int) -> int:
        """Position of ``ident`` in the sorted identifier vector."""
        i = int(np.searchsorted(self.ids, np.int64(ident)))
        if i == len(self.ids) or int(self.ids[i]) != ident:
            raise IdentifierError(f"identifier {ident} is not in the block")
        return i

    def owner_index(self, key: int) -> int:
        """Position of ``successor(key)`` — the key's owner/root."""
        i = int(np.searchsorted(self.ids, np.int64(self.space.wrap(key))))
        return 0 if i == len(self.ids) else i

    def successors(self) -> np.ndarray:
        """Every node's immediate successor (matrix slot 0)."""
        return self.matrix[:, 0]

    def key_parents(
        self,
        key: int,
        scheme: str = "balanced",
        d0: float | Fraction | None = None,
    ) -> np.ndarray:
        """Every node's ``parent_toward_key(key)`` in one pass.

        Returns an int64 array aligned with :attr:`ids`: element ``i`` is
        the parent identifier node ``i`` pushes to, or ``-1`` where the
        scalar rule returns ``None`` (a lone ring — in a converged
        multi-node ring every node has a parent; the key's *owner* gets its
        own successor-ward parent too, exactly like the scalar rule, and
        callers exclude it because the owner finalizes instead of pushing).

        ``d0`` defaults to the overlay's estimate ``space.size / n`` —
        passed through :class:`FingerLimiter.for_gap` float conversion so
        balanced limits match ``DatNodeService`` bit-for-bit.
        """
        if scheme not in ("basic", "balanced"):
            raise ValueError(f"unknown scheme {scheme!r}")
        space = self.space
        mask = space.max_id
        n = len(self)
        x = _cw(mask, self.ids, np.broadcast_to(np.int64(key), self.ids.shape))
        finger_dist = _cw(mask, self.ids[:, np.newaxis], self.matrix)
        eligible = (finger_dist > 0) & (finger_dist <= x[:, np.newaxis])
        slots = np.arange(space.bits, dtype=np.int64)[np.newaxis, :]
        if scheme == "balanced":
            gap = space.size / n if d0 is None else d0
            limits = balanced_limits(x, gap)
            eligible &= slots <= limits[:, np.newaxis]
        best = np.where(eligible, slots, np.int64(-1)).max(axis=1)
        parents = self.matrix[np.arange(n), np.maximum(best, 0)].copy()
        # No eligible finger: fall back to the successor (the owner's
        # predecessor lands here), or no parent at all on a lone ring.
        fallback = best < 0
        successor = self.matrix[:, 0]
        parents[fallback] = np.where(
            successor[fallback] != self.ids[fallback], successor[fallback], np.int64(-1)
        )
        return parents

    def state_nbytes(self) -> int:
        """Bytes of array state held by the block (ids + finger matrix)."""
        return int(self.ids.nbytes + self.matrix.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ChordNodeBlock(n={len(self)}, bits={self.space.bits})"
