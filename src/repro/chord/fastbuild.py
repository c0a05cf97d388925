"""Vectorized finger-table and DAT-parent construction: the one DAT builder.

:func:`fast_tree_arrays` is what :func:`repro.core.builder.build_dat`,
``DatTreeBuilder`` and the figure experiments run. It is proved against the
per-node finger-table scans in ``tests/oracles.py``, test-for-test in
``tests/unit/test_fastbuild.py``, and against the ``n x bits`` eligibility
scan in ``tests/property/test_prop_parent_slot.py``.

The tree kernel is O(n) and matrix-free. The DAT is the union of the finger
routes toward ``r = successor(key)``, and ``r`` is a *member*, so every
node's parent finger is the closed-form slot
:func:`repro.core.limiting.parent_slots` at ``reach = x = cw(i, r)`` (that
module's docstring has the proof and the list of callers that keep a scan):
a build is one ``parent_slots`` (one ``frexp``) and one
``successor_indices`` (one gather per grid round).

Restriction: identifier width ``bits <= 48`` so that the exact integer
``log2`` read off ``frexp`` stays within float64's 2^53 exact-integer
range. A wider space or an empty ring raises :class:`TreeError`; there is
no fallback. The live protocol and the wire codec keep Python-int ids of
any width.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.chord.ring import StaticRing
from repro.core.builder import DatScheme
from repro.core.limiting import parent_slots
from repro.core.tree import TreeStats
from repro.errors import TreeError

__all__ = [
    "FAST_PATH_MAX_BITS",
    "DatTreeArrays",
    "fast_finger_matrix",
    "fast_tree_arrays",
]

#: Widest identifier space the vectorized path supports exactly.
FAST_PATH_MAX_BITS = 48


def _require_supported(ring: StaticRing) -> None:
    if ring.space.bits > FAST_PATH_MAX_BITS:
        raise TreeError(
            f"the array kernels support identifier spaces of at most "
            f"{FAST_PATH_MAX_BITS} bits, got {ring.space.bits}"
        )
    if len(ring) == 0:
        raise TreeError("the array kernels require a non-empty ring")


# The one positional ``matrix`` caller left is benchmarks/perf/micro.py (frozen).
def _check_matrix(ring: StaticRing, matrix: np.ndarray | None) -> None:
    """Shape-check a caller-supplied finger matrix; the kernel never reads it.

    ``matrix=`` survives in the public signatures only for that positional
    caller, which predates the closed form; a wrong-shaped one still means
    the caller is confused about which ring it is building on.
    """
    if matrix is not None and matrix.shape != (len(ring), ring.space.bits):
        raise TreeError(
            f"finger matrix shape {matrix.shape} does not match the ring "
            f"({len(ring)} nodes, {ring.space.bits} bits)"
        )


_ROWS = 4096  #: finger-matrix rows per block: 1 MiB of int64 at 32 bits


def fast_finger_matrix(ring: StaticRing) -> np.ndarray:
    """All finger tables as an ``(n, bits)`` int64 matrix.

    Row ``i``, column ``j`` is ``successor(nodes[i] + 2^j)`` — identical to
    :meth:`StaticRing.finger_entries` for every node. A ``(bits, _ROWS)``
    block takes one finger column per row from the ring's successor grid
    (:meth:`RingArray.successor_indices`, which wraps past the top of the
    ring) and is copied in transposed: the result is the only ``(n, bits)``
    allocation, and no store strides down its columns.
    """
    _require_supported(ring)
    space = ring.space
    index = ring.id_index()
    nodes = index.ids
    matrix = np.empty((nodes.size, space.bits), dtype=np.int64)
    block = np.empty((space.bits, min(nodes.size, _ROWS)), dtype=np.int64)
    for lo in range(0, nodes.size, _ROWS):
        ids = nodes[lo : lo + _ROWS]
        columns = block[:, : ids.size]
        for j, column in enumerate(columns):
            np.add(ids, np.int64(1) << j, out=column)
            column &= np.int64(space.max_id)
            nodes.take(index.successor_indices(column), out=column)
        matrix[lo : lo + ids.size] = columns.T
    return matrix


class DatTreeArrays:
    """Index-based DAT snapshot: every metric as an array, no per-node objects.

    The tree lives entirely in three pieces of state — the sorted node
    vector, a parent-*index* array (``parent_index[i]`` is the position of
    node ``i``'s parent in ``nodes``; the root points at itself), and the
    root's position. All Sec. 5.2 / Fig. 7-8 measurements derive from them
    with whole-array operations:

    * branching factors — one ``bincount`` of the parent indices;
    * depths/height — pointer doubling, ``ceil(log2 height)`` rounds of two
      gathers each;
    * per-round message loads — ``children + 1`` (root: ``children``);
    * subtree sizes — bottom-up accumulation, one scatter-add per depth
      level.

    Results are element-for-element identical to the :class:`DatTree`
    equivalents over the same membership (asserted in
    ``tests/property/test_prop_scale.py``); ``stats()`` mirrors
    :meth:`DatTree.stats` down to float operation order so the summary is
    bit-identical too. Arrays are aligned with ``nodes`` (ascending
    identifier order) and cached after first computation; treat them as
    read-only views.
    """

    __slots__ = ("nodes", "parent_index", "root_index", "key", "scheme",
                 "_counts", "_depths")

    def __init__(
        self,
        nodes: np.ndarray,
        parent_index: np.ndarray,
        root_index: int,
        key: int,
        scheme: DatScheme,
    ) -> None:
        self.nodes = nodes
        self.parent_index = parent_index
        self.root_index = root_index
        self.key = key
        self.scheme = scheme
        self._counts: np.ndarray | None = None
        self._depths: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.nodes.size)

    @property
    def root(self) -> int:
        """Identifier of the root node."""
        return int(self.nodes[self.root_index])

    def parent_map(self) -> dict[int, int]:
        """``{node: parent}`` for every non-root node — :attr:`DatTree.parent`."""
        parents = dict(
            zip(self.nodes.tolist(), self.nodes[self.parent_index].tolist())
        )
        del parents[self.root]
        return parents

    def _branching_counts(self) -> np.ndarray:
        """Children count per node, aligned with ``nodes`` (cached)."""
        if self._counts is None:
            counts = np.bincount(
                self.parent_index, minlength=self.nodes.size
            ).astype(np.int64, copy=False)
            counts[self.root_index] -= 1  # the root's absorbing self-loop
            self._counts = counts
        return self._counts

    def depth_array(self) -> np.ndarray:
        """Edge distance to the root per node, aligned with ``nodes`` (cached).

        Pointer doubling: ``depth[i]`` counts the edges from ``i`` to
        ``hop[i]`` and a round makes every hop the hop's hop, ``ceil(log2
        height)`` rounds in all. Raises :class:`TreeError` if the hops are
        not all on the root after ``log2 n`` — a cycle in the parent map.
        """
        if self._depths is None:
            n = int(self.nodes.size)
            depth = np.ones(n, dtype=np.int64)
            depth[self.root_index] = 0
            hop = self.parent_index
            for _ in range(n.bit_length() + 1):
                if int(hop.min()) == self.root_index == int(hop.max()):
                    self._depths = depth
                    return depth
                depth += depth.take(hop)
                hop = hop.take(hop)
            raise TreeError(
                f"parent hops did not reach the root in {n.bit_length()} "
                f"doublings (cycle in the parent-index array)"
            )
        return self._depths

    def height(self) -> int:
        """Longest root-to-leaf edge distance."""
        return int(self.depth_array().max())

    def message_load_array(self) -> np.ndarray:
        """Per-round messages (sends + receives) per node, aligned with ``nodes``.

        Same accounting as :meth:`DatTree.message_loads`: one send to the
        parent (root excepted) plus one receive per child.
        """
        counts = self._branching_counts()
        loads = counts + 1
        loads[self.root_index] = counts[self.root_index]
        return loads

    def subtree_size_array(self) -> np.ndarray:
        """Descendant count (including self) per node, aligned with ``nodes``.

        Bottom-up accumulation by depth level: children at level ``d`` all
        have parents at level ``d-1``, so one unbuffered scatter-add per
        level folds the whole level at once.
        """
        depth = self.depth_array()
        par = self.parent_index
        sizes = np.ones(self.nodes.size, dtype=np.int64)
        for level in range(int(depth.max()), 0, -1):
            sel = np.nonzero(depth == level)[0]
            np.add.at(sizes, par[sel], sizes[sel])
        return sizes

    def stats(self) -> TreeStats:
        """Sec. 5.2 summary, bit-identical to :meth:`DatTree.stats`.

        The only float is ``avg_branching``: the children of any tree sum to
        ``n - 1``, and that exact integer over an exact integer count is the
        same single IEEE division the object path performs.
        """
        counts = self._branching_counts()
        n = int(self.nodes.size)
        n_internal = int(np.count_nonzero(counts))
        return TreeStats(
            n_nodes=n,
            height=self.height(),
            max_branching=int(counts.max()),
            avg_branching=(n - 1) / n_internal if n_internal else 0.0,
            n_leaves=n - n_internal,
            n_internal=n_internal,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DatTreeArrays(scheme={self.scheme.value}, root={self.root}, "
            f"n={len(self)})"
        )


def fast_tree_arrays(
    ring: StaticRing,
    key: int,
    scheme: DatScheme | str = DatScheme.BALANCED,
    matrix: np.ndarray | None = None,
    d0: float | Fraction | None = None,
) -> DatTreeArrays:
    """Build a :class:`DatTreeArrays` snapshot — the one root-addressed kernel.

    Every node's parent toward ``r = successor(key)`` in O(n) int64 storage
    and temporaries: the slot is :func:`~repro.core.limiting.parent_slots`
    and the parent is that one finger, resolved for every
    node at once by :meth:`RingArray.successor_indices` (what ``searchsorted``
    returns, read off the ring's cached grid). The parent map never leaves
    index space: no Python dict, no per-node boxing, no finger matrix.

    ``d0`` is the balanced limiter's mean gap, ``2^b / n`` by default; the
    basic scheme ignores it.
    """
    scheme = DatScheme(scheme)
    _require_supported(ring)
    _check_matrix(ring, matrix)
    space = ring.space
    mask = space.max_id
    index = ring.id_index()
    ids = index.ids
    n = int(ids.size)
    root_index = index.successor_index(key)
    x = ids[root_index] - ids
    x &= np.int64(mask)  # cw(i, r)
    balanced = scheme is DatScheme.BALANCED
    if d0 is None:
        d0 = Fraction(space.size, n)
    slot = parent_slots(x, x, d0 if balanced else None)
    slot[root_index] = 0  # any valid shift: the root's row is overwritten below
    fingers = np.left_shift(np.int64(1), slot, out=slot)
    fingers += ids
    fingers &= np.int64(mask)
    parent_index = index.successor_indices(fingers)
    parent_index[root_index] = root_index
    # The proof's conclusion as an O(n) check: every parent lies in (i, r],
    # i.e. cw(i, parent) - 1 mod 2^bits (a self-parent wraps to the top) < x.
    dist = ids.take(parent_index, out=fingers, mode="clip")
    dist -= ids
    dist -= 1
    dist &= np.int64(mask)
    bad = dist >= x
    bad[root_index] = False
    if bool(bad.any()):
        raise TreeError(
            f"node {int(ids[bad][0])} has no eligible finger toward "
            f"{int(ids[root_index])}"
        )
    return DatTreeArrays(
        nodes=ids,
        parent_index=parent_index,
        root_index=root_index,
        key=int(key),
        scheme=scheme,
    )
