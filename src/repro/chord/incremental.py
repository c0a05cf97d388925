"""Incremental DAT maintenance: O(log n) expected work per churn event.

The paper's operational claim (Secs. 3.2 / 5) is that DATs impose "very low
overhead during node arrival and departure" because the tree is implicit in
Chord finger state. The analytical experiments previously paid ``O(n*bits)``
to rebuild every finger table and parent map after *each* membership event;
this module repairs the converged-ring model locally instead:

* :class:`ReverseFingerIndex` — for every node, the set of ``(owner, slot)``
  finger entries that currently *resolve to* it. A membership change at
  identifier ``p`` only re-resolves the slots whose target falls inside the
  interval ``(predecessor(p), p]`` — in expectation ``bits = O(log N)``
  entries — plus the joining node's own ``bits`` fingers.

* :class:`RingMaintainer` — applies a join/leave to a :class:`StaticRing`
  and patches the scalar :class:`FingerTable` dict and the NumPy
  ``fast_finger_matrix`` in place, keeping both bit-identical to a
  from-scratch rebuild.

* :class:`DatUpdateEngine` — tracks any number of DAT trees (one per
  rendezvous key) over the maintained ring and recomputes parents only for
  the affected node set: finger-patch owners, the joining node, and — for
  the balanced scheme — the nodes whose finger-limit ``g(x)`` shifted when
  the mean gap ``d0 = 2^bits/n`` changed. Root handovers (the event lands
  on ``successor(key)``) fall back to a full rebuild of that one tree.

The full rebuild remains the reference oracle, following the equivalence
discipline established by :mod:`repro.chord.fastbuild`: if the incremental
state and a rebuild ever disagree (``verify=True`` cross-checks every
event), the rebuild wins and the divergence is traced.

Parent selection is the root-addressed closed form proved in
:mod:`repro.chord.fastbuild`: the tracked root is a member, so a node at
clockwise distance ``x`` reads exactly one finger entry, slot
``min(floor(log2 x), g(x))``. The key-addressed rules are a different matter
(see that module's docstring).

Why the balanced scheme needs the limit-shift set: ``g(x) <= j`` iff
``x <= 3*2^j - c(n)`` where ``c(n) = ceil(2*2^bits / n)`` — every limiting
threshold shifts by the *same* offset when ``n`` changes. The nodes whose
``g(x)`` flipped after an event therefore lie in at most ``bits - 1`` thin
identifier intervals, enumerated with two bisects each.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.chord.fastbuild import (
    FAST_PATH_MAX_BITS,
    build_dat_fast,
    fast_finger_matrix,
)
from repro import telemetry
from repro.chord.fingers import FingerTable
from repro.chord.ring import StaticRing
from repro.core.builder import DatScheme, build_dat
from repro.core.tree import DatTree
from repro.errors import DuplicateNodeError, TreeError, UnknownNodeError
from repro.sim.tracing import get_logger
from repro.util.bits import ceil_div, ceil_log2

__all__ = [
    "FingerPatch",
    "RingDelta",
    "ReverseFingerIndex",
    "RingMaintainer",
    "DatUpdateReport",
    "DatUpdateEngine",
]

#: Event-kind spellings accepted by :meth:`RingMaintainer.apply` /
#: :meth:`DatUpdateEngine.apply`. A crash is structurally identical to a
#: graceful leave in the converged-ring model (the departed state vanishes
#: either way); the distinction only matters to the live protocol.
JOIN_KINDS = frozenset({"join"})
LEAVE_KINDS = frozenset({"leave", "crash"})


@dataclass(frozen=True)
class FingerPatch:
    """One finger-table entry rewritten by a membership event."""

    owner: int
    slot: int
    old: int
    new: int


@dataclass(frozen=True)
class RingDelta:
    """Everything a single membership event changed in the ring state."""

    kind: str  # "join" or "leave"
    ident: int
    patches: tuple[FingerPatch, ...]
    n_before: int
    n_after: int

    @property
    def is_join(self) -> bool:
        return self.kind in JOIN_KINDS

    def touched_owners(self) -> set[int]:
        """Owners of finger entries rewritten by this event."""
        return {patch.owner for patch in self.patches}


class ReverseFingerIndex:
    """Inverted finger map: node -> the ``(owner, slot)`` pairs resolving to it.

    Slot ``(v, j)`` resolves to ``successor(v + 2^j)``; the index groups all
    ``n * bits`` slots by their current resolution so a membership event can
    enumerate exactly the entries it invalidates. Expected bucket size is
    ``bits`` (each of the ``n`` nodes owns ``bits`` slots spread over ``n``
    buckets), which is what makes per-event maintenance ``O(log n)``.
    """

    def __init__(self) -> None:
        self._into: dict[int, set[tuple[int, int]]] = {}

    @classmethod
    def from_tables(cls, tables: Mapping[int, FingerTable]) -> "ReverseFingerIndex":
        """Build the index from finger tables (O(n*bits), done once)."""
        index = cls()
        into = index._into
        for owner, table in tables.items():
            for slot, value in enumerate(table.entries):
                into.setdefault(value, set()).add((owner, slot))
        return index

    def slots_into(self, node: int) -> list[tuple[int, int]]:
        """Snapshot of the slots currently resolving to ``node``."""
        return list(self._into.get(node, ()))

    def add(self, owner: int, slot: int, value: int) -> None:
        self._into.setdefault(value, set()).add((owner, slot))

    def discard(self, owner: int, slot: int, value: int) -> None:
        bucket = self._into.get(value)
        if bucket is not None:
            bucket.discard((owner, slot))
            if not bucket:
                del self._into[value]

    def move(self, owner: int, slot: int, old: int, new: int) -> None:
        """Re-home one slot from resolution ``old`` to ``new``."""
        self.discard(owner, slot, old)
        self.add(owner, slot, new)

    def n_slots(self) -> int:
        """Total tracked slots (``n * bits`` on a consistent index)."""
        return sum(len(bucket) for bucket in self._into.values())

    def as_dict(self) -> dict[int, set[tuple[int, int]]]:
        """Copy of the underlying buckets (for tests/diagnostics)."""
        return {node: set(bucket) for node, bucket in self._into.items()}


class RingMaintainer:
    """Keeps finger state in sync with a ring across membership events.

    Owns (or adopts) three mutually consistent views of the converged
    overlay and patches all of them per event instead of rebuilding:

    * the :class:`StaticRing` membership itself,
    * the scalar ``{node: FingerTable}`` dict (shared with the builders),
    * an ``(n, bits)`` NumPy finger matrix (``None`` for spaces wider than
      :data:`FAST_PATH_MAX_BITS`), and
    * the :class:`ReverseFingerIndex` over the tables.

    The matrix is held in an *unsorted* backing store with a node->row map:
    a join appends one row, a leave swap-deletes one, and finger patches
    rewrite single cells — all ``O(bits)``, never an ``O(n)`` row shift.
    The :attr:`matrix` property gathers the rows into ``ring.nodes`` order
    on demand (only full rebuilds need the sorted view).

    If the ring is mutated behind the maintainer's back (detected via
    :attr:`StaticRing.version`), the maintainer discards its state and
    rebuilds from scratch — the rebuild-wins discipline.
    """

    def __init__(
        self,
        ring: StaticRing,
        tables: dict[int, FingerTable] | None = None,
        matrix: np.ndarray | None = None,
    ) -> None:
        self.ring = ring
        self.space = ring.space
        self.tables: dict[int, FingerTable] = {}
        self._buf: np.ndarray | None = None  # (capacity, bits) backing store
        self._row_of: dict[int, int] = {}  # node -> row in _buf
        self._node_at: list[int] = []  # row -> node
        self._nrows = 0
        self._index = ReverseFingerIndex()
        self._version = -1
        if tables is not None and len(tables) == len(ring):
            self._adopt(tables, matrix)
        else:
            self.rebuild()

    # ------------------------------------------------------------------ #
    # (Re)construction
    # ------------------------------------------------------------------ #

    @property
    def matrix(self) -> np.ndarray | None:
        """The finger matrix with rows in ``ring.nodes`` order.

        Materialized from the unsorted backing store on access (O(n)
        gather); per-event maintenance itself never pays this. ``None``
        for spaces wider than :data:`FAST_PATH_MAX_BITS`.
        """
        if self._buf is None:
            return None
        if self._nrows == 0:
            return self._buf[:0]
        perm = [self._row_of[node] for node in self.ring.nodes]
        return self._buf[perm]

    def _narrow(self) -> bool:
        return self.space.bits <= FAST_PATH_MAX_BITS

    def _set_backing(self, sorted_matrix: np.ndarray | None) -> None:
        """Reset the backing store from a matrix in ``ring.nodes`` order."""
        if sorted_matrix is None:
            self._buf = None
            self._row_of = {}
            self._node_at = []
            self._nrows = 0
            return
        self._buf = sorted_matrix
        self._node_at = list(self.ring.nodes)
        self._row_of = {node: row for row, node in enumerate(self._node_at)}
        self._nrows = len(self._node_at)

    def _empty_backing(self) -> np.ndarray | None:
        if not self._narrow():
            return None
        return np.empty((0, self.space.bits), dtype=np.int64)

    def _adopt(
        self, tables: dict[int, FingerTable], matrix: np.ndarray | None
    ) -> None:
        """Take ownership of pre-built state instead of rebuilding it."""
        self.tables = tables
        if matrix is not None and matrix.shape == (len(self.ring), self.space.bits):
            # Copy: the caller may keep using its array for full builds.
            self._set_backing(np.array(matrix, dtype=np.int64))
        elif self._narrow():
            self._set_backing(self._matrix_from_tables())
        else:
            self._set_backing(None)
        self._index = ReverseFingerIndex.from_tables(tables)
        self._version = self.ring.version

    def _matrix_from_tables(self) -> np.ndarray | None:
        if not self._narrow():
            return None
        if not self.tables:
            return self._empty_backing()
        return np.array(
            [self.tables[node].entries for node in self.ring.nodes], dtype=np.int64
        )

    def rebuild(self) -> None:
        """Full rebuild of tables, matrix, and index from the ring (oracle)."""
        if len(self.ring) and self._narrow():
            sorted_matrix = fast_finger_matrix(self.ring)
            space = self.space
            self.tables = {
                node: FingerTable(space=space, owner=node, entries=row)
                for node, row in zip(self.ring.nodes, sorted_matrix.tolist())
            }
            self._set_backing(sorted_matrix)
        else:
            self._set_backing(self._empty_backing())
            self.tables = self.ring.all_finger_tables()
        self._index = ReverseFingerIndex.from_tables(self.tables)
        self._version = self.ring.version

    def _patch_cells(self, patches: list[FingerPatch]) -> None:
        """Rewrite the patched cells in the backing store (batched)."""
        if self._buf is None or not patches:
            return
        self._buf[
            [self._row_of[patch.owner] for patch in patches],
            [patch.slot for patch in patches],
        ] = [patch.new for patch in patches]

    def _check_version(self) -> None:
        if self._version != self.ring.version:
            get_logger("chord.incremental").warning(
                "ring mutated outside the maintainer (version %d != tracked "
                "%d); rebuilding finger state from scratch",
                self.ring.version,
                self._version,
            )
            self.rebuild()

    # ------------------------------------------------------------------ #
    # Events
    # ------------------------------------------------------------------ #

    def apply(self, kind: str, ident: int) -> RingDelta:
        """Apply one membership event by kind ("join", "leave", or "crash")."""
        if kind in JOIN_KINDS:
            return self.join(ident)
        if kind in LEAVE_KINDS:
            return self.leave(ident, kind=kind)
        raise ValueError(f"unknown membership event kind {kind!r}")

    def join(self, ident: int) -> RingDelta:
        """Insert ``ident``, patching only the affected finger entries."""
        self._check_version()
        space = self.space
        space.validate(ident)
        if ident in self.ring:
            raise DuplicateNodeError(f"duplicate node identifier {ident}")
        n_before = len(self.ring)
        if n_before == 0:
            self.ring.add(ident)
            entries = [ident] * space.bits
            self.tables[ident] = FingerTable(
                space=space, owner=ident, entries=list(entries)
            )
            for slot in range(space.bits):
                self._index.add(ident, slot, ident)
            if self._narrow():
                self._set_backing(np.full((1, space.bits), ident, dtype=np.int64))
            self._version = self.ring.version
            return RingDelta("join", ident, (), 0, 1)

        predecessor = self.ring.predecessor(ident)
        old_successor = self.ring.successor(ident)
        self.ring.add(ident)
        mask = space.max_id

        # 1. Existing slots whose target now lands in (predecessor, ident]
        #    re-resolve from the old successor to the new node. Inlined
        #    interval test (cw distances against the interval width) — this
        #    loop and the ones below are the per-event hot path.
        width = (ident - predecessor) & mask
        patches: list[FingerPatch] = []
        for owner, slot in self._index.slots_into(old_successor):
            target = (owner + (1 << slot)) & mask
            if 0 < (target - predecessor) & mask <= width:
                self.tables[owner].entries[slot] = ident
                self._index.move(owner, slot, old_successor, ident)
                patches.append(FingerPatch(owner, slot, old_successor, ident))

        # 2. The new node's own finger table (bits successor bisects).
        nodes = self.ring.nodes
        n_after = len(nodes)
        entries = []
        for slot in range(space.bits):
            position = bisect_left(nodes, (ident + (1 << slot)) & mask)
            entries.append(nodes[0] if position == n_after else nodes[position])
        self.tables[ident] = FingerTable(space=space, owner=ident, entries=entries)
        for slot, value in enumerate(entries):
            self._index.add(ident, slot, value)

        # 3. Mirror both changes into the backing store: append one row
        #    (amortized O(bits) with capacity doubling) plus the patched
        #    cells. Row order is maintained lazily by the matrix property.
        if self._buf is not None:
            if self._nrows == len(self._buf):
                capacity = max(2 * self._nrows, 8)
                grown = np.empty((capacity, space.bits), dtype=np.int64)
                grown[: self._nrows] = self._buf[: self._nrows]
                self._buf = grown
            row = self._nrows
            self._buf[row] = entries
            self._row_of[ident] = row
            self._node_at.append(ident)
            self._nrows += 1
            self._patch_cells(patches)

        self._version = self.ring.version
        return RingDelta("join", ident, tuple(patches), n_before, n_before + 1)

    def leave(self, ident: int, kind: str = "leave") -> RingDelta:
        """Remove ``ident``, patching only the affected finger entries.

        ``kind`` records the departure flavor ("leave" or "crash") in the
        returned delta; both are structurally identical here.
        """
        if kind not in LEAVE_KINDS:
            raise ValueError(f"not a departure kind: {kind!r}")
        self._check_version()
        if ident not in self.ring:
            raise UnknownNodeError(ident)
        n_before = len(self.ring)
        if n_before == 1:
            self.ring.remove(ident)
            self.tables.clear()
            self._index = ReverseFingerIndex()
            self._set_backing(self._empty_backing())
            self._version = self.ring.version
            return RingDelta(kind, ident, (), 1, 0)

        successor = self.ring.successor_of_node(ident)

        # 1. Drop the departing node's own slots from the index.
        own = self.tables.pop(ident)
        for slot, value in enumerate(own.entries):
            self._index.discard(ident, slot, value)

        self.ring.remove(ident)

        # 2. Every remaining slot that resolved to the departed node now
        #    resolves to its successor (nothing lives in between).
        patches: list[FingerPatch] = []
        for owner, slot in self._index.slots_into(ident):
            self.tables[owner].entries[slot] = successor
            self._index.move(owner, slot, ident, successor)
            patches.append(FingerPatch(owner, slot, ident, successor))

        # 3. Mirror into the backing store: swap the last row into the
        #    departed node's slot (O(bits)) and rewrite the patched cells.
        if self._buf is not None:
            row = self._row_of.pop(ident)
            last = self._nrows - 1
            if row != last:
                self._buf[row] = self._buf[last]
                moved = self._node_at[last]
                self._node_at[row] = moved
                self._row_of[moved] = row
            self._node_at.pop()
            self._nrows = last
            self._patch_cells(patches)

        self._version = self.ring.version
        return RingDelta(kind, ident, tuple(patches), n_before, n_before - 1)


def _limit_shift_members(
    ring: StaticRing, root: int, n_before: int, n_after: int
) -> list[int]:
    """Current members whose finger limit ``g(x)`` changed with ``n``.

    ``g(x) <= j  iff  x <= 3*2^j - c(n)`` with ``c(n) = ceil(2*2^bits/n)``,
    so a change of ``n`` shifts every threshold by ``c_old - c_new`` and the
    flipped nodes lie in the clockwise identifier intervals
    ``(3*2^j - c_hi, 3*2^j - c_lo]`` measured as distance-to-root. Only
    thresholds with ``j <= bits - 2`` can alter a parent choice (the
    eligible-slot cap is ``min(g(x), bits - 1)``).
    """
    if n_before == n_after or n_before == 0 or n_after == 0:
        return []
    space = ring.space
    size = space.size
    c_old = ceil_div(2 * size, n_before)
    c_new = ceil_div(2 * size, n_after)
    if c_old == c_new:
        return []
    c_lo, c_hi = min(c_old, c_new), max(c_old, c_new)
    mask = size - 1
    nodes = ring.nodes
    members: list[int] = []
    # Inlined nodes_in_interval (two bisects per threshold, no per-call
    # validation) — this runs once per event on the hot path.
    for j in range(space.bits - 1):
        boundary = 3 << j
        x_lo = max(boundary - c_hi, 0)  # exclusive
        x_hi = min(boundary - c_lo, size - 1)  # inclusive
        if x_hi <= x_lo:
            continue
        lo_id = (root - x_hi) & mask
        hi_id = (root - (x_lo + 1)) & mask
        if lo_id <= hi_id:
            members.extend(
                nodes[bisect_left(nodes, lo_id) : bisect_right(nodes, hi_id)]
            )
        else:
            members.extend(nodes[bisect_left(nodes, lo_id) :])
            members.extend(nodes[: bisect_right(nodes, hi_id)])
    return members


@dataclass(frozen=True)
class DatUpdateReport:
    """What one membership event cost across all tracked trees."""

    delta: RingDelta
    #: key -> number of parent entries recomputed for that tree.
    reparented: dict[int, int]
    #: keys whose tree was fully rebuilt (root handover).
    rebuilt_keys: tuple[int, ...]
    #: keys where verify-mode found a divergence (rebuild adopted).
    verified_mismatches: tuple[int, ...] = ()

    @property
    def finger_updates(self) -> int:
        """Finger entries rewritten by the event (joiner's own excluded)."""
        return len(self.delta.patches)

    @property
    def parent_updates(self) -> int:
        """Parent entries recomputed across all tracked trees."""
        return sum(self.reparented.values())


class DatUpdateEngine:
    """Incrementally maintained DAT trees over a churning ring.

    Tracks one tree per rendezvous key; :meth:`apply` routes a membership
    event through the :class:`RingMaintainer` and patches every tracked
    tree's parent map, recomputing parents only for the affected node set.

    Parameters
    ----------
    ring:
        The ring to maintain (mutated in place by events).
    scheme:
        Tree-construction scheme for every tracked tree.
    tables, matrix:
        Optional pre-built finger state to adopt (must match the ring).
    verify:
        Cross-check every event against a full rebuild and adopt the
        rebuild on divergence. The oracle mode used by the equivalence
        tests; costs a full rebuild per event, so keep it off in
        production sweeps.
    """

    def __init__(
        self,
        ring: StaticRing,
        scheme: DatScheme | str = DatScheme.BALANCED,
        tables: dict[int, FingerTable] | None = None,
        matrix: np.ndarray | None = None,
        verify: bool = False,
    ) -> None:
        self.scheme = DatScheme(scheme)
        self.verify = verify
        self.maintainer = RingMaintainer(ring, tables=tables, matrix=matrix)
        self._trees: dict[int, DatTree] = {}
        #: tracked keys whose tree awaits a non-empty ring (drained away).
        self._pending: set[int] = set()

    @property
    def ring(self) -> StaticRing:
        return self.maintainer.ring

    @property
    def trees(self) -> dict[int, DatTree]:
        """key -> its current tree (live views; see :meth:`tree`)."""
        return self._trees

    def tree(self, key: int) -> DatTree:
        """The tracked tree for one rendezvous key.

        Tracked trees are *live*: :meth:`apply` patches their parent maps
        in place (copying per event would reintroduce the O(n) cost this
        engine removes). Take ``dict(tree.parent)`` — or an untracked
        :meth:`full_build` — if a frozen snapshot is needed.
        """
        try:
            return self._trees[key]
        except KeyError:
            raise KeyError(f"key {key} is not tracked by this engine") from None

    # ------------------------------------------------------------------ #
    # Tracking
    # ------------------------------------------------------------------ #

    def full_build(self, key: int) -> DatTree:
        """Reference build of one tree from the maintained ring."""
        ring = self.ring
        if ring.space.bits <= FAST_PATH_MAX_BITS and len(ring) > 1:
            return build_dat_fast(ring, key, scheme=self.scheme)
        return build_dat(
            ring, key, scheme=self.scheme, tables=self.maintainer.tables
        )

    def track(self, key: int, tree: DatTree | None = None) -> DatTree:
        """Start maintaining the tree for ``key`` (building it if needed)."""
        self.ring.space.validate(key)
        if tree is None:
            tree = self._trees.get(key) or self.full_build(key)
        self._trees[key] = tree
        return tree

    def untrack(self, key: int) -> None:
        """Stop maintaining the tree for ``key``."""
        self._trees.pop(key, None)
        self._pending.discard(key)

    # ------------------------------------------------------------------ #
    # Event application
    # ------------------------------------------------------------------ #

    def apply(self, kind: str, ident: int) -> DatUpdateReport:
        """Apply one membership event and patch every tracked tree."""
        with telemetry.span(
            "churn.apply", kind=kind, node=ident, n_trees=len(self._trees)
        ) as sp:
            report = self._apply(kind, ident)
            if sp is not telemetry.NULL_SPAN:
                sp.set(
                    finger_updates=report.finger_updates,
                    parent_updates=report.parent_updates,
                    rebuilt=len(report.rebuilt_keys),
                )
                telemetry.count("churn_events_total", kind=kind)
                telemetry.count(
                    "churn_finger_updates_total", report.finger_updates
                )
                telemetry.count(
                    "churn_parent_updates_total", report.parent_updates
                )
            return report

    def _apply(self, kind: str, ident: int) -> DatUpdateReport:
        delta = self.maintainer.apply(kind, ident)
        reparented: dict[int, int] = {}
        rebuilt: list[int] = []
        if len(self.ring) == 0:
            # Ring drained: trees cannot exist until members return, but
            # the keys stay tracked and rematerialize on the next join.
            self._pending.update(self._trees)
            self._trees.clear()
        elif self._pending:
            for key in sorted(self._pending):
                self._trees[key] = self.full_build(key)
                rebuilt.append(key)
                reparented[key] = 0
            self._pending.clear()
        for key, old_tree in list(self._trees.items()):
            if key in reparented:
                continue  # just rematerialized from pending, already current
            patched = self._patch_tree(key, old_tree, delta)
            if patched is None:
                self._trees[key] = self.full_build(key)
                rebuilt.append(key)
                reparented[key] = 0
            else:
                self._trees[key], reparented[key] = patched
        mismatches = self._verify_all() if self.verify else ()
        return DatUpdateReport(
            delta=delta,
            reparented=reparented,
            rebuilt_keys=tuple(rebuilt),
            verified_mismatches=mismatches,
        )

    def _patch_tree(
        self, key: int, old_tree: DatTree, delta: RingDelta
    ) -> tuple[DatTree, int] | None:
        """Patch one tree for a delta; ``None`` requests a full rebuild."""
        ring = self.ring
        if len(ring) == 0:
            return None
        new_root = ring.successor(key)
        if new_root != old_tree.root:
            return None  # root handover: rare, amortized O(1/n) per event

        affected = delta.touched_owners()
        if delta.is_join:
            affected.add(delta.ident)
        if self.scheme is DatScheme.BALANCED:
            affected.update(
                _limit_shift_members(ring, new_root, delta.n_before, delta.n_after)
            )

        # Patch the parent map in place: tracked trees are live views owned
        # by the engine (copy-per-event would reintroduce O(n) work).
        parent = old_tree.parent
        if not delta.is_join:
            parent.pop(delta.ident, None)

        # Inlined parent selection, bit-identical to select_parent_basic /
        # select_parent_balanced: the root is a member, so the farthest
        # non-overshooting finger is slot min(floor(log2 x), g(x)) (the
        # closed form proved in chord/fastbuild.py) and only that one entry
        # is read and checked. The balanced limit uses the pure-integer
        # form g(x) = ceil_log2(max(ceil((x + c)/3), 1)), c = ceil(2*2^b/n):
        # ceil((x + 2S/n)/3) = ceil(ceil((x*n + 2S)/n)/3) = ceil((x + c)/3)
        # by the nested-ceiling identity, so no Fraction arithmetic is
        # needed on the per-event hot path.
        space = ring.space
        mask = space.max_id
        balanced = self.scheme is DatScheme.BALANCED
        c = ceil_div(2 * space.size, delta.n_after) if balanced else 0
        tables = self.maintainer.tables
        count = 0
        for node in affected:
            if node == new_root:
                continue
            x = (new_root - node) & mask
            slot = x.bit_length() - 1
            if balanced:
                slot = min(slot, ceil_log2(max((x + c + 2) // 3, 1)))
            finger = tables[node].entries[slot]
            if finger == node or (finger - node) & mask > x:
                raise TreeError(
                    f"node {node} has no eligible finger toward root "
                    f"{new_root}; finger table is inconsistent"
                )
            parent[node] = finger
            count += 1
        return DatTree(root=new_root, parent=parent, key=key), count

    def _verify_all(self) -> tuple[int, ...]:
        """Oracle cross-check: rebuild each tree; the rebuild wins on mismatch."""
        mismatches: list[int] = []
        for key, tree in list(self._trees.items()):
            rebuilt = self.full_build(key)
            if rebuilt.root != tree.root or rebuilt.parent != tree.parent:
                get_logger("chord.incremental").warning(
                    "incremental tree for key %d diverged from the full "
                    "rebuild; adopting the rebuild",
                    key,
                )
                self._trees[key] = rebuilt
                mismatches.append(key)
        return tuple(mismatches)

    def replay(self, events: Iterable[tuple[str, int]]) -> list[DatUpdateReport]:
        """Apply a sequence of ``(kind, ident)`` events, collecting reports."""
        return [self.apply(kind, ident) for kind, ident in events]
