"""Array view of a ring: a sorted ``int64`` identifier vector.

:class:`RingArray` is the vector view of a
:class:`~repro.chord.ring.StaticRing` (``StaticRing.id_index()``): the
entire membership as one sorted ``int64`` NumPy vector, no per-node Python
objects. It carries exactly what the vectorized consumers read — the
vector, its length, the root lookup :meth:`RingArray.successor_index` and
the gap vector — and is never mutated: a membership change goes through
the ring's list view, and the next ``id_index()`` builds a new vector.
Scalar queries (successor, predecessor, membership, intervals) live on
``StaticRing`` alone.

The module also hosts :func:`fast_probing_ids`, the bisect-based replica of
:func:`~repro.chord.probing.probe_split_identifier`'s join-by-join
procedure that :class:`~repro.chord.idgen.ProbingIdAssigner` builds every
ring with. It consumes the RNG identically and therefore produces
bit-identical rings; the ring-object procedure stays as the single-join
API and the reference the property suite compares against.

Restriction: identifiers must fit in ``int64``, i.e. ``space.bits <= 62``.
Wider spaces have the list view only.
"""

from __future__ import annotations

from bisect import bisect_left, insort

import numpy as np

from repro.chord.idspace import IdSpace
from repro.errors import DuplicateNodeError, EmptyRingError, IdentifierError
from repro.util.rng import ensure_rng

__all__ = ["ARRAY_MAX_BITS", "RingArray", "fast_probing_ids"]

#: Widest identifier space an int64 vector can hold exactly.
ARRAY_MAX_BITS = 62


class RingArray:
    """Sorted, immutable identifier vector: the array view of a ring.

    Parameters
    ----------
    space:
        The identifier space (``bits <= 62``).
    ids:
        Sorted, strictly increasing identifiers within the space. Validated
        vectorized on construction unless ``trusted=True`` (used by builders
        that construct identifiers valid-by-construction).
    """

    __slots__ = ("space", "_ids")

    def __init__(
        self, space: IdSpace, ids: np.ndarray, *, trusted: bool = False
    ) -> None:
        if space.bits > ARRAY_MAX_BITS:
            raise IdentifierError(
                f"RingArray requires bits <= {ARRAY_MAX_BITS}, got {space.bits}"
            )
        self.space = space
        arr = np.ascontiguousarray(ids, dtype=np.int64)
        if arr.ndim != 1:
            raise IdentifierError(f"ids must be one-dimensional, got {arr.ndim}D")
        if not trusted and arr.size:
            if int(arr[0]) < 0 or int(arr[-1]) > space.max_id:
                raise IdentifierError(
                    f"identifiers outside [0, 2^{space.bits}): "
                    f"range [{int(arr[0])}, {int(arr[-1])}]"
                )
            if arr.size > 1 and not bool((arr[1:] > arr[:-1]).all()):
                raise DuplicateNodeError(
                    "ids must be sorted and strictly increasing"
                )
        self._ids = arr

    @property
    def ids(self) -> np.ndarray:
        """The sorted identifier vector (shared view; do not mutate)."""
        return self._ids

    def __len__(self) -> int:
        return int(self._ids.size)

    def _require_nodes(self) -> None:
        if not self._ids.size:
            raise EmptyRingError("operation requires a non-empty ring")

    def successor_index(self, key: int) -> int:
        """Index of ``successor(key)`` (wraps past the top of the ring)."""
        self._require_nodes()
        self.space.validate(key)
        pos = int(np.searchsorted(self._ids, key, side="left"))
        return 0 if pos == self._ids.size else pos

    def gaps(self) -> np.ndarray:
        """Clockwise gap from each member's predecessor, aligned with ``ids``.

        A single-member ring owns the whole space, matching
        :meth:`StaticRing.gap_before`.
        """
        self._require_nodes()
        ids = self._ids
        if ids.size == 1:
            return np.array([self.space.size], dtype=np.int64)
        out = np.empty(ids.size, dtype=np.int64)
        out[1:] = ids[1:] - ids[:-1]
        out[0] = int(ids[0]) + self.space.size - int(ids[-1])
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RingArray(bits={self.space.bits}, n={len(self)})"


def _fast_probe_split(
    ids: list[int],
    space: IdSpace,
    generator: np.random.Generator,
    probe_multiplier: float,
) -> int:
    """One probing join against a sorted identifier list.

    Bit-identical replica of
    :func:`repro.chord.probing.probe_split_identifier` — same RNG draws in
    the same order, same candidate ordering and tie-breaking — with plain
    ``bisect`` bookkeeping instead of ring-object calls.
    """
    # Imported here: probing imports the ring module, which imports us.
    from repro.chord.probing import default_probe_count

    size = space.size
    k = len(ids)
    if k == 0:
        return int(generator.integers(0, size))

    point = int(generator.integers(0, size))
    count = min(default_probe_count(k, probe_multiplier), k)
    start = bisect_left(ids, point)
    if start == k:
        start = 0

    # max() keeps the first strictly-greatest gap, in clockwise candidate
    # order from successor(point) — the object path's tie-breaking.
    best = -1
    best_gap = -1
    for j in range(count):
        index = start + j
        if index >= k:
            index -= k
        if k == 1:
            gap = size
        elif index > 0:
            gap = ids[index] - ids[index - 1]
        else:
            gap = ids[0] + size - ids[k - 1]
        if gap > best_gap:
            best = index
            best_gap = gap

    if best_gap < 2:
        # Space is locally saturated; retry with fresh random points.
        for _ in range(64):
            candidate = int(generator.integers(0, size))
            pos = bisect_left(ids, candidate)
            if pos >= k or ids[pos] != candidate:
                return candidate
        raise RuntimeError("identifier space saturated; cannot place new node")

    predecessor = ids[best - 1] if best > 0 else ids[k - 1]
    return space.wrap(predecessor + best_gap // 2)


def fast_probing_ids(
    space: IdSpace,
    n_nodes: int,
    rng: int | np.random.Generator | None = None,
    probe_multiplier: float = 2.0,
) -> list[int]:
    """``n_nodes`` probing-assigned identifiers, sorted ascending.

    Produces exactly the membership
    :meth:`repro.chord.idgen.ProbingIdAssigner.build_ring` would, an order
    of magnitude faster — the property suite
    (``tests/property/test_prop_scale.py``) asserts the identity over
    random sizes and spaces.
    """
    if n_nodes < 0:
        raise ValueError(f"n_nodes must be non-negative, got {n_nodes}")
    if n_nodes > space.size:
        raise ValueError(
            f"cannot place {n_nodes} distinct nodes in a space of {space.size}"
        )
    generator = ensure_rng(rng)
    ids: list[int] = []
    for _ in range(n_nodes):
        insort(ids, _fast_probe_split(ids, space, generator, probe_multiplier))
    return ids
