"""Array view of a ring: a sorted ``int64`` identifier vector.

:class:`RingArray` is the vector view of a
:class:`~repro.chord.ring.StaticRing` (``StaticRing.id_index()``): the
entire membership as one sorted ``int64`` NumPy vector, no per-node Python
objects. It carries exactly what the vectorized consumers read — the
vector, its length, the successor lookups (:meth:`RingArray.successor_index`
for a root, :meth:`RingArray.successor_indices` for every finger at once)
and the gap vector — and is never mutated: a membership change goes through
the ring's list view, and the next ``id_index()`` builds a new vector.
Scalar queries (successor, predecessor, membership, intervals) live on
``StaticRing`` alone.

The module also hosts :func:`fast_probing_ids`, which
:class:`~repro.chord.idgen.ProbingIdAssigner` builds every ring with: the
join-by-join probing procedure (Sec. 3.5), large rings in rounds of joins
whose probe windows are disjoint. It consumes the RNG identically to the
ring-object procedure ``probe_split_identifier`` in ``tests/oracles.py``
and therefore produces bit-identical rings; the property suite compares
the two.

Restriction: identifiers must fit in ``int64``, i.e. ``space.bits <= 62``.
Wider spaces have the list view only.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.chord.idspace import IdSpace
from repro.chord.probing import default_probe_count
from repro.errors import DuplicateNodeError, EmptyRingError, IdentifierError
from repro.util.bits import ceil_log2, next_power_of_two
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

    __slots__ = ("space", "_ids", "_grid")

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
        self._grid: tuple[int, int, np.ndarray] | None = None

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

    def _successor_grid(self) -> tuple[int, int, np.ndarray]:
        """``(shift, rounds, starts)``, built on first use: the vector never changes.

        ``2^k`` equal cells, ``2n <= 2^k < 4n`` (at most one per identifier);
        the members of cell ``c`` sit at ``[starts[c], starts[c + 1])`` and
        ``rounds`` halving steps search the fullest cell.
        """
        if self._grid is None:
            n, bits = int(self._ids.size), self.space.bits
            shift = max(bits - ceil_log2(2 * n), 0)
            occupancy = np.bincount(self._ids >> shift, minlength=1 << (bits - shift))
            rounds = int(occupancy.max()).bit_length()
            starts = np.zeros(occupancy.size + 1, dtype=np.min_scalar_type(n))
            starts[1:] = np.cumsum(occupancy, out=occupancy)
            self._grid = (shift, rounds, starts)
        return self._grid

    def successor_indices(self, targets: np.ndarray) -> np.ndarray:
        """Index of ``successor(t)`` per target: ``searchsorted``, wrapped to 0.

        The grid bounds each target to the members of its cell; a lower-bound
        search inside the cell, all targets in step, does the rest. A probe
        past the cell meets a later cell's member (above the target) or,
        clipped, the last member: past ``n`` only if all are below, so the
        cell's end needs no check and ``>= n`` wraps to 0.
        """
        self._require_nodes()
        if targets.size and not 0 <= targets.min() <= targets.max() <= self.space.max_id:
            raise IdentifierError(f"targets outside [0, 2^{self.space.bits})")
        shift, rounds, starts = self._successor_grid()
        cell = np.right_shift(targets, shift, dtype=np.intp)
        if rounds == 1:  # at most one member per cell, as on probing rings
            start = starts.take(cell)
            below = self._ids.take(start, mode="clip", out=cell) < targets
            pos = np.add(start, below, out=cell, dtype=np.intp)
        else:
            pos = starts.take(cell).astype(np.intp)
            for step in (1 << r for r in reversed(range(rounds))):
                # The next ``step`` members are below the target if the last of them is.
                probe = np.add(pos, step - 1, out=cell)
                below = self._ids.take(probe, mode="clip") < targets
                np.add(pos, step, out=pos, where=below)
        pos[pos >= self._ids.size] = 0  # wrap past the top of the ring
        return pos

    def gaps(self) -> np.ndarray:
        """Clockwise gap from each member's predecessor, aligned with ``ids``.

        A single-member ring owns the whole space, matching
        :meth:`StaticRing.gaps`.
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


#: Fewest new joins a round of :func:`fast_probing_ids` takes: below it
#: (about 2.3k members at the default multiplier) joins go one at a time.
_ROUND_MIN = 32
#: Random points drawn per generator call.
_DRAW_CHUNK = 4096


def fast_probing_ids(
    space: IdSpace,
    n_nodes: int,
    rng: int | np.random.Generator | None = None,
    probe_multiplier: float = 2.0,
) -> list[int]:
    """``n_nodes`` probing-assigned identifiers, sorted ascending.

    Produces exactly the membership that joining node by node with
    ``probe_split_identifier`` (``tests/oracles.py``) would, and leaves
    ``rng`` in exactly the state that loop leaves it in (callers keep
    drawing from it) — ``tests/property/test_prop_scale.py`` asserts both.
    Only on the saturation ``RuntimeError``, which is terminal, may the
    generator have advanced further than the reference's.

    Points are int64 draws, so the space is at most 63 bits wide
    (:class:`~repro.chord.idgen.ProbingIdAssigner` rejects wider ones).
    Small rings, and 63-bit spaces (wider than ``ARRAY_MAX_BITS``), join
    one node at a time on sorted ``ids``/``gaps`` lists. From
    ``_ROUND_MIN`` joins per round on, each round probes the pending joins
    at once and applies every join whose probe window ``[s, s + probes)``
    is disjoint from the windows of all earlier pending joins; the rest
    wait for the next round.
    Such a join reads and writes only its window, and a window only
    shrinks as members arrive, so it gets the answer it gets in sequence.
    A window whose largest gap is below 2 would redraw points and shift
    every later join's: the rounds then give up and the ring is replayed
    join by join from the generator's state on entry.
    """
    if n_nodes < 0:
        raise ValueError(f"n_nodes must be non-negative, got {n_nodes}")
    if n_nodes > space.size:
        raise ValueError(
            f"cannot place {n_nodes} distinct nodes in a space of {space.size}"
        )
    if n_nodes == 0:
        return []
    generator = ensure_rng(rng)
    entry_state = generator.bit_generator.state
    size, mask = space.size, space.max_id
    chunk: list[int] = []  # drawn points, the first ``used`` consumed
    used = 0

    def draw(k: int, most: int = 1) -> list[int]:
        """Up to ``most`` next points for join ``k`` on, from one chunk."""
        # Every remaining join consumes at least one point, in order, so a
        # chunk never draws past where the join-by-join reference stops.
        nonlocal chunk, used
        if used == len(chunk):
            chunk = generator.integers(0, size, size=min(n_nodes - k, _DRAW_CHUNK)).tolist()
            used = 0
        got = chunk[used : used + most]
        used += len(got)
        return got

    rounds = space.bits <= ARRAY_MAX_BITS
    while True:  # at most twice: saturated rounds replay join by join
        ids, gaps = draw(0), [size]  # the first node owns the space
        k = count = count_valid_to = 0
        for k in range(1, n_nodes):
            if k > count_valid_to:  # ceil(log2 k) only moves past a power of two
                count = default_probe_count(k, probe_multiplier)
                count_valid_to = next_power_of_two(k)
            if rounds and k // (3 * count) >= _ROUND_MIN:
                break
            probes = count if count < k else k
            s = bisect_left(ids, draw(k)[0]) % k  # successor(point)
            window = gaps[s : s + probes]
            if len(window) < probes:  # past the top of the ring
                window += gaps[: probes - len(window)]
            # max() and index() keep the first strictly-greatest gap, clockwise
            # from successor(point) — the reference's tie-breaking.
            gap = max(window)
            if gap >= 2:
                o = (s + window.index(gap)) % k
                owner = ids[o]
                new_gap = gap // 2
                new_id = (owner - gap + new_gap) & mask
            else:
                # Space is locally saturated; retry with fresh random points.
                for _ in range(64):
                    new_id = draw(k)[0]
                    o = bisect_left(ids, new_id) % k
                    owner = ids[o]
                    if owner != new_id:
                        break
                else:
                    raise RuntimeError(
                        "identifier space saturated; cannot place new node"
                    )
                gap = gaps[o]
                new_gap = gap - ((owner - new_id) & mask)
            gaps[o] = gap - new_gap
            # new_id > owner: the wrap gap before ids[0] split short of 0.
            o = k if new_id > owner else o
            ids.insert(o, new_id)
            gaps.insert(o, new_gap)
        else:
            return ids
        # Rows: ids, gaps. A round merges ``now`` and its joins into ``spare``.
        now, spare = np.empty((2, 2, n_nodes), dtype=np.int64)
        now[:, :k] = ids, gaps
        keep = np.empty(n_nodes, dtype=bool)
        points = np.empty(0, np.int64)  # pending joins' points, in join order
        m = k  # members
        while m < n_nodes:
            if k > count_valid_to and not points.size:  # one probe count a round
                count = default_probe_count(k, probe_multiplier)
                count_valid_to = next_power_of_two(k)
            if k < n_nodes and k <= count_valid_to:
                fresh = draw(k, min(max(m // (3 * count), 1), count_valid_to + 1 - k))
                k += len(fresh)
                points = np.concatenate((points, fresh))
            ring, ring_gaps = now[0, :m], now[1, :m]
            order = points.argsort()
            starts = ring.searchsorted(points[order])  # successor(point); m wraps to 0
            windows = ring_gaps.take(np.add.outer(starts, np.arange(count)), mode="wrap")
            first = windows.argmax(axis=1)  # the first largest gap, clockwise
            best = windows[np.arange(first.size), first]
            if best.min() < 2:
                break
            # Equal-width windows overlap when their starts lie within
            # ``count`` of each other, cyclically: a join goes ahead when it is
            # the earliest of the joins whose starts lie that close to its own
            # (even reduceat outputs are the minima over those [lo, hi) runs).
            around = np.concatenate((starts - m, starts, starts + m))
            bounds = around.searchsorted(np.add.outer(starts, (1 - count, count)).ravel())
            earliest = np.minimum.reduceat(np.concatenate((order, order, order)), bounds)
            go = earliest[::2] == order
            wait = np.ones(order.size, dtype=bool)
            wait[order[go]] = False
            owners = (starts[go] + first[go]) % m
            split, owner_ids = best[go], ring[owners]
            halves = split // 2
            joined = (owner_ids - split + halves) & mask
            ring_gaps[owners] = split - halves
            # A joined id above its owner's: the wrap gap split short of 0.
            at = np.where(joined > owner_ids, m, owners)
            rank = at.argsort()
            slots = at[rank] + np.arange(rank.size)
            m += rank.size
            keep[:m] = True
            keep[slots] = False
            for row in (0, 1):
                spare[row, :m][keep[:m]] = now[row, : m - rank.size]
            spare[:, slots] = joined[rank], halves[rank]
            now, spare = spare, now
            points = points[wait]
        else:
            return now[0].tolist()
        generator.bit_generator.state = entry_state
        chunk, used, rounds = [], 0, False
