"""Vectorized finger-table and DAT-parent construction (NumPy fast path).

The scalar builders in :mod:`repro.chord.ring` / :mod:`repro.core.builder`
are the reference implementation; this module recomputes the same results
with array operations for large rings (8192-node builds drop from ~0.5 s
to tens of milliseconds). Equivalence against the scalar path is asserted
test-for-test in ``tests/unit/test_fastbuild.py`` — if the two ever
disagree, the scalar path wins.

Restrictions: identifier width ``bits <= 48`` so that the exact integer
``ceil(log2(.))`` trick below stays within float64's 2^53 exact-integer
range. Wider spaces silently fall back to the scalar builders via
:func:`build_dat_fast`.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.chord.ring import StaticRing
from repro.core.builder import build_dat
from repro.core.builder import DatScheme
from repro.core.tree import DatTree, TreeStats
from repro.errors import TreeError
from repro.util.bits import ceil_div

__all__ = [
    "FAST_PATH_MAX_BITS",
    "DatTreeArrays",
    "fast_finger_matrix",
    "fast_basic_parents",
    "fast_balanced_parents",
    "fast_tree_arrays",
    "fast_tree_stats",
    "fast_tree_height",
    "fast_centralized_load_array",
    "build_dat_fast",
]

#: Widest identifier space the vectorized path supports exactly.
FAST_PATH_MAX_BITS = 48


def _require_fast_capable(ring: StaticRing) -> None:
    if ring.space.bits > FAST_PATH_MAX_BITS:
        raise TreeError(
            f"fast path supports bits <= {FAST_PATH_MAX_BITS}, "
            f"got {ring.space.bits}; use the scalar builders"
        )
    if len(ring) == 0:
        raise TreeError("fast path requires a non-empty ring")


def _resolve_matrix(ring: StaticRing, matrix: np.ndarray | None) -> np.ndarray:
    """Use a caller-supplied finger matrix after a cheap shape check.

    Callers that build many trees on one ring (``DatTreeBuilder``,
    ``DatForest``, the incremental engine) pass the cached matrix so the
    two searchsorted passes run once per *ring*, not once per *tree*.
    """
    if matrix is None:
        return fast_finger_matrix(ring)
    if matrix.shape != (len(ring), ring.space.bits):
        raise TreeError(
            f"finger matrix shape {matrix.shape} does not match the ring "
            f"({len(ring)} nodes, {ring.space.bits} bits)"
        )
    return matrix


def fast_finger_matrix(ring: StaticRing) -> np.ndarray:
    """All finger tables as an ``(n, bits)`` int64 matrix.

    Row ``i``, column ``j`` is ``successor(nodes[i] + 2^j)`` — identical to
    :meth:`StaticRing.finger_entries` for every node, computed with two
    searchsorted passes instead of ``n * bits`` bisects.
    """
    _require_fast_capable(ring)
    space = ring.space
    nodes = ring.id_index().ids
    offsets = (np.int64(1) << np.arange(space.bits, dtype=np.int64))[np.newaxis, :]
    targets = (nodes[:, np.newaxis] + offsets) & np.int64(space.max_id)
    indices = np.searchsorted(nodes, targets, side="left")
    indices[indices == len(nodes)] = 0  # wrap past the top of the ring
    return nodes[indices]


def _cw(space_mask: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized clockwise distance ``(b - a) mod 2^bits``."""
    return (b - a) & np.int64(space_mask)


def _vectorized_ceil_log2(values: np.ndarray) -> np.ndarray:
    """Exact ``ceil(log2(v))`` for positive int64 values < 2^53.

    ``frexp`` decomposes ``v = m * 2^e`` with ``m`` in [0.5, 1); the
    decomposition is exact for integers below 2^53, so
    ``ceil(log2(v)) = e - 1`` when ``v`` is a power of two (m == 0.5) and
    ``e`` otherwise — no floating-point rounding anywhere.
    """
    mantissa, exponent = np.frexp(values.astype(np.float64))
    result = exponent.astype(np.int64)
    # frexp mantissae are exact binary fractions, so 0.5 is representable
    # and the power-of-two test is safe as an exact comparison.
    result[mantissa == 0.5] -= 1  # datlint: disable=DAT003
    return np.maximum(result, 0)


def _parents_from_best(
    nodes: np.ndarray, fingers: np.ndarray, best: np.ndarray, root: int
) -> dict[int, int]:
    """Assemble the parent dict from per-node best slots, branch-free.

    The root row is masked out with array ops and the (node, parent) pairs
    are materialized through two ``tolist()`` calls — no per-node Python
    conditional in the hot loop.
    """
    mask = nodes != np.int64(root)
    best_masked = best[mask]
    if best_masked.size and int(best_masked.min()) < 0:
        bad = nodes[mask][best_masked < 0]
        raise TreeError(f"node {int(bad[0])} has no eligible finger toward {root}")
    chosen = fingers[np.nonzero(mask)[0], best_masked]
    return dict(zip(nodes[mask].tolist(), chosen.tolist()))


def _best_parent_slots(
    ring: StaticRing,
    key: int,
    scheme: DatScheme,
    matrix: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Per-node best finger slot under ``scheme`` — the shared kernel.

    Returns ``(nodes, fingers, best, root)`` where ``best[i]`` is the
    highest eligible slot of node ``i`` (-1 when none is, which is legal
    only for the root row). The highest eligible slot is the farthest
    non-overshooting finger — exactly the scalar parent rule — because
    finger distance is monotone in the slot index.
    """
    _require_fast_capable(ring)
    space = ring.space
    mask = space.max_id
    nodes = ring.id_index().ids
    root = np.int64(ring.successor(key))
    fingers = _resolve_matrix(ring, matrix)

    finger_dist = _cw(mask, nodes[:, np.newaxis], fingers)
    x = _cw(mask, nodes, np.broadcast_to(root, nodes.shape))

    eligible = (finger_dist <= x[:, np.newaxis]) & (finger_dist > 0)
    slots = np.arange(space.bits, dtype=np.int64)[np.newaxis, :]
    if scheme is DatScheme.BALANCED:
        q = np.maximum(_exact_ceil_q(x, len(ring), space.size), 1)
        limits = _vectorized_ceil_log2(q)
        eligible &= slots <= limits[:, np.newaxis]
    slot_index = np.where(eligible, slots, -1)
    best = slot_index.max(axis=1)
    return nodes, fingers, best, int(root)


def fast_basic_parents(
    ring: StaticRing, key: int, matrix: np.ndarray | None = None
) -> dict[int, int]:
    """Basic-DAT parent map, vectorized; equals the scalar builder's.

    ``matrix`` optionally supplies a precomputed :func:`fast_finger_matrix`
    shared across rendezvous keys.
    """
    nodes, fingers, best, root = _best_parent_slots(
        ring, key, DatScheme.BASIC, matrix
    )
    return _parents_from_best(nodes, fingers, best, root)


def _exact_ceil_q(x: np.ndarray, n: int, size: int) -> np.ndarray:
    """Exact ``q = ceil((x*n + 2*size) / (3*n))`` as an int64 array.

    Vectorized when ``max(x)*n + 2*size`` provably fits in int64; otherwise
    (possible only for spaces near the 48-bit fast-path limit combined with
    very large rings) each element is computed with arbitrary-precision
    Python integers, trading speed for exactness.
    """
    x_max = int(x.max()) if x.size else 0
    if x_max * n + 2 * size < 2**63:
        numerator = x * np.int64(n) + np.int64(2 * size)
        return -((-numerator) // np.int64(3 * n))
    return np.array(
        [ceil_div(int(xi) * n + 2 * size, 3 * n) for xi in x], dtype=np.int64
    )


def fast_balanced_parents(
    ring: StaticRing, key: int, matrix: np.ndarray | None = None
) -> dict[int, int]:
    """Balanced-DAT parent map (Algorithm 1), vectorized.

    Uses the exact mean gap ``d0 = 2^bits / n`` like the scalar default.
    The limit ``g(x) = ceil(log2((x + 2*d0)/3))`` is evaluated with pure
    integer arithmetic: ``q = ceil((x*n + 2*2^bits) / (3n))`` then an exact
    ``ceil(log2(q))`` — the identity
    :class:`repro.core.limiting.FingerLimiter` evaluates on Python ints
    (``d0 = p/q`` with ``p = 2^bits``, ``q = n``), so the two agree
    bit-for-bit. ``matrix``
    optionally supplies a precomputed :func:`fast_finger_matrix` shared
    across rendezvous keys.
    """
    nodes, fingers, best, root = _best_parent_slots(
        ring, key, DatScheme.BALANCED, matrix
    )
    return _parents_from_best(nodes, fingers, best, root)


class DatTreeArrays:
    """Index-based DAT snapshot: every metric as an array, no per-node objects.

    The tree lives entirely in three pieces of state — the sorted node
    vector, a parent-*index* array (``parent_index[i]`` is the position of
    node ``i``'s parent in ``nodes``; the root points at itself), and the
    root's position. All Sec. 5.2 / Fig. 7-8 measurements derive from them
    with whole-array operations:

    * branching factors — one ``bincount`` of the parent indices;
    * depths/height — absorbing parent-pointer chase, ``height`` passes of
      one fancy-index each;
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

    def branching_counts(self) -> np.ndarray:
        """Children count per node, aligned with ``nodes`` (cached)."""
        if self._counts is None:
            counts = np.bincount(
                self.parent_index, minlength=self.nodes.size
            ).astype(np.int64)
            counts[self.root_index] -= 1  # the root's absorbing self-loop
            self._counts = counts
        return self._counts

    def depth_array(self) -> np.ndarray:
        """Edge distance to the root per node, aligned with ``nodes`` (cached).

        Absorbing pointer chase: each pass advances every chase one edge
        and counts the ones not yet at the root, so the loop runs ``height``
        times (logarithmic for DATs). Raises :class:`TreeError` if a chase
        cannot converge — a cycle in the parent map.
        """
        if self._depths is None:
            par = self.parent_index
            n = int(self.nodes.size)
            depth = (np.arange(n) != self.root_index).astype(np.int64)
            cur = par
            for _ in range(n + 1):
                alive = cur != self.root_index
                if not bool(alive.any()):
                    self._depths = depth
                    return depth
                depth += alive
                cur = par[cur]
            raise TreeError(
                f"parent chase did not converge in {n} steps "
                f"(cycle in the parent-index array)"
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
        counts = self.branching_counts()
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

        The only float is ``avg_branching``; it is computed as one exact
        integer sum divided by an exact integer count — the same single
        IEEE division the object path performs.
        """
        counts = self.branching_counts()
        internal = counts[counts > 0]
        n_internal = int(internal.size)
        return TreeStats(
            n_nodes=int(self.nodes.size),
            height=self.height(),
            max_branching=int(counts.max()),
            avg_branching=(
                int(internal.sum()) / n_internal if n_internal else 0.0
            ),
            n_leaves=int(self.nodes.size) - n_internal,
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
) -> DatTreeArrays:
    """Build a :class:`DatTreeArrays` snapshot — the array-native `build_dat`.

    Same construction rule as :func:`fast_basic_parents` /
    :func:`fast_balanced_parents` but the parent map never leaves index
    space: no Python dict, no per-node boxing, O(n) int64 storage.
    ``matrix`` optionally supplies a precomputed
    :func:`fast_finger_matrix` shared across rendezvous keys.
    """
    scheme = DatScheme(scheme)
    nodes, fingers, best, root = _best_parent_slots(ring, key, scheme, matrix)
    n = int(nodes.size)
    root_index = int(np.searchsorted(nodes, np.int64(root)))
    bad = (best < 0) & (np.arange(n) != root_index)
    if bool(bad.any()):
        raise TreeError(
            f"node {int(nodes[bad][0])} has no eligible finger toward {root}"
        )
    chosen = fingers[np.arange(n), np.maximum(best, 0)]
    parent_index = np.searchsorted(nodes, chosen).astype(np.int64, copy=False)
    parent_index[root_index] = root_index
    return DatTreeArrays(
        nodes=nodes,
        parent_index=parent_index,
        root_index=root_index,
        key=int(key),
        scheme=scheme,
    )


def fast_tree_stats(
    ring: StaticRing,
    key: int,
    scheme: DatScheme | str = DatScheme.BALANCED,
    matrix: np.ndarray | None = None,
) -> TreeStats:
    """Sec. 5.2 statistics for one key without materializing a tree object.

    Falls back to the scalar ``build_dat(...).stats()`` for spaces wider
    than ``FAST_PATH_MAX_BITS`` bits or single-node rings, mirroring
    :func:`build_dat_fast`.
    """
    scheme = DatScheme(scheme)
    if ring.space.bits > FAST_PATH_MAX_BITS or len(ring) <= 1:
        return build_dat(ring, key, scheme=scheme).stats()
    return fast_tree_arrays(ring, key, scheme=scheme, matrix=matrix).stats()


def fast_centralized_load_array(
    ring: StaticRing, key: int, matrix: np.ndarray | None = None
) -> np.ndarray:
    """Per-node loads of the centralized *routed* baseline, aligned with
    ``ring.id_index().ids``.

    Equals :func:`repro.baselines.centralized.centralized_routed_loads`
    without tracing a single route: the greedy hop toward the root *is*
    the basic-DAT parent rule (``FingerTable.closest_preceding`` picks the
    highest non-overshooting slot, which always exists because slot 0 is
    the immediate successor), so every route climbs the basic tree's
    parent chain. A node ``v != root`` therefore forwards one message per
    member of its basic-DAT subtree and receives one per member but
    itself — ``load(v) = 2 * subtree(v) - 1`` — while the root receives
    ``n - 1``. Emits the same ``baseline_messages_total`` counter as the
    routed oracle (total sent = sum of depths).
    """
    tree = fast_tree_arrays(ring, key, scheme=DatScheme.BASIC, matrix=matrix)
    sizes = tree.subtree_size_array()
    loads = 2 * sizes - 1
    loads[tree.root_index] = tree.nodes.size - 1
    telemetry.count(
        "baseline_messages_total",
        float(int(tree.depth_array().sum())),
        variant="routed",
    )
    return loads


def fast_tree_height(parents: dict[int, int], root: int) -> int | None:
    """Tree height by vectorized parent-pointer chasing.

    The root's parent pointer is tied to itself (absorbing), so the height
    is the first step count after which every chase has landed on the
    root. Each step is one O(n) fancy-index; the loop runs ``height``
    times (logarithmic for DAT trees). Returns ``None`` when the chase
    cannot converge — a dangling parent or a cycle — so callers fall back
    to :meth:`DatTree.height`'s validating BFS.
    """
    n_edges = len(parents)
    if n_edges == 0:
        return 0
    children = np.fromiter(parents.keys(), dtype=np.int64, count=n_edges)
    par = np.fromiter(parents.values(), dtype=np.int64, count=n_edges)
    ids = np.sort(np.append(children, np.int64(root)))
    guess = np.minimum(np.searchsorted(ids, par), ids.size - 1)
    if not bool(np.array_equal(ids[guess], par)):
        return None  # dangling parent id
    par_ids = np.full(ids.shape, np.int64(root))
    par_ids[np.searchsorted(ids, children)] = par
    par_idx = np.searchsorted(ids, par_ids)
    root_idx = int(np.searchsorted(ids, np.int64(root)))
    cur = par_idx
    for height in range(1, ids.size + 1):
        if bool((cur == root_idx).all()):
            return height
        cur = par_idx[cur]
    return None  # cycle


def build_dat_fast(
    ring: StaticRing,
    key: int,
    scheme: DatScheme | str = DatScheme.BALANCED,
    matrix: np.ndarray | None = None,
) -> DatTree:
    """Drop-in vectorized replacement for :func:`repro.core.builder.build_dat`.

    Falls back to the scalar builders for spaces wider than
    ``FAST_PATH_MAX_BITS`` bits or single-node rings. ``matrix`` optionally
    supplies a precomputed :func:`fast_finger_matrix` shared across keys.
    """
    scheme = DatScheme(scheme)
    if ring.space.bits > FAST_PATH_MAX_BITS or len(ring) <= 1:
        return build_dat(ring, key, scheme=scheme)
    root = ring.successor(key)
    if scheme is DatScheme.BASIC:
        parents = fast_basic_parents(ring, key, matrix=matrix)
    else:
        parents = fast_balanced_parents(ring, key, matrix=matrix)
    tree = DatTree(root=root, parent=parents, key=key)
    # Seed the height cache from the vectorized chase so telemetry's
    # per-build span attribute never triggers the Python BFS — the main
    # enabled-mode cost on this hot path.
    tree._height = fast_tree_height(parents, root)
    return tree
