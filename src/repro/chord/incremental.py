"""Incremental DAT maintenance: O(log n) expected work per churn event.

The paper's operational claim (Secs. 3.2 / 5) is that DATs impose "very low
overhead during node arrival and departure" because the tree is implicit in
Chord finger state. This module takes the claim at its word: the converged
ring *is* the finger table, so :class:`DatUpdateEngine` stores no finger
state at all — only the :class:`StaticRing` and one parent map per tracked
rendezvous key — and repairs both locally per membership event.

Which fingers an event rewrites (the interval identity):

1. Finger ``(v, j)`` is ``successor(v + 2^j)``. A join at ``p`` with
   predecessor ``q`` changes ``successor(t)`` exactly for targets
   ``t`` in ``(q, p]`` (from the old successor to ``p``); a departure of
   ``p`` changes the same targets back.
2. ``v + 2^j`` lies in ``(q, p]`` iff ``v`` lies in ``(q - 2^j, p - 2^j]``.
3. So the rewritten slots are, for each ``j``, the members of one clockwise
   arc of the sorted ring: in expectation ``bits = O(log N)`` owners in
   total, with nothing stored or indexed.

Which parents an event rewrites: the owners above, the joining node, and —
for the balanced scheme — the nodes whose finger-limit ``g(x)`` shifted when
the mean gap ``d0 = 2^bits/n`` changed. ``g(x) <= j`` iff
``x <= 3*2^j - c(n)`` where ``c(n) = ceil(2*2^bits / n)``, so every limiting
threshold shifts by the *same* offset when ``n`` changes and the flipped
nodes lie in at most ``bits - 1`` arcs. Root handovers (the event lands on
``successor(key)``) fall back to a full rebuild of that one tree.

Both scans search *thin* arcs, no wider than the mean gap ``2^bits/n``: a
finger arc is one gap wide, a limit-shift arc ``|c_old - c_new|``, about
``2*2^bits/n^2`` identifiers (512 against a gap of 2^20 at n = 4096, bits =
32: 1 arc in 400 holds a member). One ``bisect_left`` for the low end decides
such an arc: it is empty unless the member found there is also ``<=`` the
high end, and only then are the second bisect and the slice paid for.

Parent selection is the closed-form slot of
:func:`repro.core.limiting.parent_slots` on Python ints, inlined, with the
root as the bound (``reach = x``), resolved with a single bisect on the
ring; that module's docstring says why it is inlined here.

The full rebuild (:func:`repro.core.builder.build_dat`) remains the
reference oracle: ``verify=True`` cross-checks every event against it, and
if the two ever disagree the rebuild wins and the divergence is logged.

Out of scope: ``benchmarks/perf/`` imports this module, ``fast_tree_arrays``
/ ``fast_finger_matrix`` and ``DatTreeBuilder.finger_matrix`` by path (and
passes ``fast_tree_arrays`` a positional ``matrix``), so this module and
:mod:`repro.chord.fastbuild` stay under ``chord/`` although they build
``core`` trees; ``tests/unit/test_import_graph.py`` lists the back-edges
that leaves.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, overload

from repro import telemetry
from repro.chord.ring import StaticRing
from repro.core.builder import DatScheme, build_dat
from repro.errors import DuplicateNodeError, TreeError, UnknownNodeError
from repro.sim.tracing import get_logger
from repro.util.bits import ceil_div

if TYPE_CHECKING:
    from repro.chord.idspace import IdSpace
    from repro.core.tree import DatTree

__all__ = ["FingerPatch", "RingDelta", "DatUpdateReport", "DatUpdateEngine"]

#: Event-kind spellings accepted by :meth:`DatUpdateEngine.apply`. A crash
#: is structurally identical to a graceful leave in the converged-ring model
#: (the departed state vanishes either way); the distinction only matters to
#: the live protocol.
JOIN_KINDS = frozenset({"join"})
LEAVE_KINDS = frozenset({"leave", "crash"})


@dataclass(frozen=True)
class FingerPatch:
    """One finger-table entry rewritten by a membership event."""

    owner: int
    slot: int
    old: int
    new: int


@dataclass(eq=False)
class _PatchRuns(Sequence[FingerPatch]):
    """The value of :attr:`RingDelta.patches`: ``owners[i]`` rewrote slot
    ``slots[i]`` from ``old`` to ``new`` (slots ascend, owners ascend along
    each arc). A report needs only ``len``; a :class:`FingerPatch` is built
    when somebody iterates, and ``==`` compares with a tuple."""

    slots: list[int]
    owners: list[list[int]]
    old: int
    new: int

    def __len__(self) -> int:
        return sum(map(len, self.owners))

    def __iter__(self) -> Iterator[FingerPatch]:
        for slot, owners in zip(self.slots, self.owners):
            for owner in owners:
                yield FingerPatch(owner, slot, self.old, self.new)

    @overload
    def __getitem__(self, index: int) -> FingerPatch: ...
    @overload
    def __getitem__(self, index: slice) -> Sequence[FingerPatch]: ...
    def __getitem__(self, index: int | slice) -> FingerPatch | Sequence[FingerPatch]:
        return tuple(self)[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _PatchRuns)):
            return NotImplemented
        return tuple(self) == tuple(other)


@dataclass(frozen=True)
class RingDelta:
    """Everything a single membership event changed in the ring state."""

    kind: str  # "join", "leave" or "crash"
    ident: int
    patches: _PatchRuns
    n_before: int
    n_after: int


def _arc_runs(
    nodes: list[int], arcs: list[tuple[int, int]]
) -> tuple[list[int], list[list[int]]]:
    """Indices of the clockwise closed arcs ``(lo, hi)`` of a sorted ring
    that hold a member, and each one's members: the module docstring's
    thin-arc test. ``lo == hi`` is the single-identifier arc; ``lo > hi``
    wraps past 0 and keeps the general two-slice form. No validation."""
    n = len(nodes)
    hits: list[int] = []
    members: list[list[int]] = []
    for i, (lo, hi) in enumerate(arcs):
        first = bisect_left(nodes, lo)
        if lo > hi:
            found = nodes[first:] + nodes[: bisect_right(nodes, hi)]
        elif first < n and nodes[first] <= hi:
            found = nodes[first : bisect_right(nodes, hi, first)]
        else:
            continue
        if found:
            hits.append(i)
            members.append(found)
    return hits, members


def _rewritten_fingers(ring: StaticRing, ident: int, join: bool) -> _PatchRuns:
    """Finger entries a join or departure of ``ident`` rewrites.

    ``ring`` holds every member *but* ``ident`` (before the join, after the
    departure). With ``q = predecessor(ident)``, slot ``j`` of owner ``v``
    flips between ``successor(ident)`` and ``ident`` iff ``v + 2^j`` lies in
    ``(q, ident]``, i.e. ``v`` in ``(q - 2^j, ident - 2^j]`` (module
    docstring); the arc is ``cw(q, ident) < 2^bits`` wide, so never empty
    as an interval and never the whole ring.
    """
    nodes = ring.nodes
    if not nodes:
        return _PatchRuns([], [], ident, ident)
    mask = ring.space.max_id
    position = bisect_left(nodes, ident)  # ident is not a member
    successor = nodes[position] if position < len(nodes) else nodes[0]
    after_predecessor = nodes[position - 1] + 1  # -1 wraps to the top
    arcs = [
        ((after_predecessor - (1 << slot)) & mask, (ident - (1 << slot)) & mask)
        for slot in range(ring.space.bits)
    ]
    old, new = (successor, ident) if join else (ident, successor)
    return _PatchRuns(*_arc_runs(nodes, arcs), old, new)


def _limit_shift_spans(
    space: IdSpace, n_before: int, n_after: int
) -> list[tuple[int, int]]:
    """Closed intervals ``(near, far)`` of distance-to-root on which the
    finger limit ``g(x)`` changed with ``n`` (module docstring): the
    distances in ``(3*2^j - c_hi, 3*2^j - c_lo]`` per threshold that can
    alter a parent choice. That is ``j <= bits - 2`` (the eligible-slot cap
    is ``min(g(x), bits - 1)``; hence ``3*2^j < 2^bits`` and nothing needs
    clamping to the ring), from the first ``j`` with ``3*2^j > c_lo`` (below
    it the interval holds no positive distance)."""
    if n_before == 0 or n_after == 0:
        return []
    c_old = ceil_div(2 * space.size, n_before)
    c_new = ceil_div(2 * space.size, n_after)
    if c_old == c_new:
        return []
    c_lo, c_hi = min(c_old, c_new), max(c_old, c_new)
    return [
        (max((3 << j) - c_hi, 0) + 1, (3 << j) - c_lo)
        for j in range((c_lo // 3).bit_length(), space.bits - 1)
    ]


@dataclass(frozen=True)
class DatUpdateReport:
    """What one membership event cost across all tracked trees."""

    delta: RingDelta
    #: key -> number of parent entries recomputed for that tree.
    reparented: dict[int, int]
    #: keys whose tree was fully rebuilt (root handover, regrowth from an
    #: empty ring, out-of-band ring mutation).
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

    Tracks one tree per rendezvous key; :meth:`apply` performs a membership
    event on the ring and patches every tracked tree's parent map,
    recomputing parents only for the affected node set. The engine holds no
    finger state: every finger it needs is one bisect on the sorted ring.

    If the ring is mutated behind the engine's back (detected via
    :attr:`StaticRing.version`), the next event rebuilds every tracked tree
    from scratch instead of patching it — the rebuild-wins discipline.

    Parameters
    ----------
    ring:
        The ring to maintain (mutated in place by events).
    scheme:
        Tree-construction scheme for every tracked tree.
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
        verify: bool = False,
    ) -> None:
        self.ring = ring
        self.scheme = DatScheme(scheme)
        self.verify = verify
        self._trees: dict[int, DatTree] = {}
        #: tracked keys whose tree awaits a rebuild: the ring drained away,
        #: or was mutated out of band since the last event.
        self._pending: set[int] = set()
        self._version = ring.version

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
        return build_dat(self.ring, key, scheme=self.scheme)

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
        """Apply one membership event ("join", "leave" or "crash") and patch
        every tracked tree."""
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
        delta = self._membership_event(kind, ident)
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
        for key, count in self._patch_trees(delta, skip=reparented).items():
            if count is None:
                self._trees[key] = self.full_build(key)
                rebuilt.append(key)
                count = 0
            reparented[key] = count
        mismatches = self._verify_all() if self.verify else ()
        return DatUpdateReport(
            delta=delta,
            reparented=reparented,
            rebuilt_keys=tuple(rebuilt),
            verified_mismatches=mismatches,
        )

    def _membership_event(self, kind: str, ident: int) -> RingDelta:
        """Validate one event, perform it on the ring, and report its delta."""
        ring = self.ring
        join = kind in JOIN_KINDS
        if join:
            ring.space.validate(ident)
            if ident in ring:
                raise DuplicateNodeError(f"duplicate node identifier {ident}")
        elif kind not in LEAVE_KINDS:
            raise ValueError(f"unknown membership event kind {kind!r}")
        elif ident not in ring:
            raise UnknownNodeError(ident)
        if self._version != ring.version:
            get_logger("chord.incremental").warning(
                "ring mutated outside the engine (version %d != tracked %d); "
                "rebuilding every tracked tree from scratch",
                ring.version,
                self._version,
            )
            self._pending.update(self._trees)
            self._trees.clear()
        n_before = len(ring)
        if not join:
            ring.remove(ident)
        patches = _rewritten_fingers(ring, ident, join)
        if join:
            ring.add(ident)
        self._version = ring.version
        return RingDelta(kind, ident, patches, n_before, len(ring))

    def _patch_trees(
        self, delta: RingDelta, skip: dict[int, int]
    ) -> dict[int, int | None]:
        """Patch every tracked tree outside ``skip`` in place: key -> parents
        recomputed, ``None`` where the tree needs a full rebuild. What does
        not depend on the tree is worked out once, ahead of the loop."""
        if not self._trees:
            return {}  # nothing tracked, or the ring drained away
        nodes = self.ring.nodes
        n = len(nodes)
        space = self.ring.space
        mask = space.max_id
        leave = delta.kind in LEAVE_KINDS
        # The owners of rewritten fingers and the joiner; the balanced scheme
        # adds, per tree, the members whose finger limit shifted with n.
        owners: set[int] = set() if leave else {delta.ident}
        owners.update(*delta.patches.owners)
        balanced = self.scheme is DatScheme.BALANCED
        spans = _limit_shift_spans(space, delta.n_before, delta.n_after) if balanced else []
        c_plus_2 = ceil_div(2 * space.size, delta.n_after) + 2

        # Inlined parent selection, bit-identical to select_parent_basic /
        # select_parent_balanced: the root is a member, so the farthest
        # non-overshooting finger is slot min(floor(log2 x), g(x))
        # (core.limiting.parent_slots) and only that one finger is resolved
        # (successor(node + 2^slot), one bisect) and checked.
        # The balanced limit is core.limiting's one integer expression
        # g(x) = ((x + c + 2)//3 - 1).bit_length(), c = ceil(2*2^b/n):
        # c_plus_2 is FingerLimiter.for_ring(b, n)'s own constant, so no
        # Fraction arithmetic is needed on the per-event hot path.
        counts: dict[int, int | None] = {}
        for key, tree in self._trees.items():
            if key in skip:
                continue  # just rematerialized from pending, already current
            position = bisect_left(nodes, key)  # key was validated by track()
            root = nodes[position] if position < n else nodes[0]
            if root != tree.root:
                counts[key] = None  # root handover: rare, O(1/n) per event
                continue
            affected = owners
            if spans:  # ~11 thin arcs, one bisect each
                arcs = [((root - far) & mask, (root - near) & mask) for near, far in spans]
                shifted = _arc_runs(nodes, arcs)[1]
                if shifted:
                    affected = owners.union(*shifted)
            # Patch the parent map in place: tracked trees are live views
            # owned by the engine (copy-per-event would reintroduce O(n)).
            parent = tree.parent
            if leave:
                parent.pop(delta.ident, None)
            count = 0
            for node in affected:
                if node == root:
                    continue
                x = (root - node) & mask
                slot = x.bit_length() - 1
                if balanced:
                    limit = ((x + c_plus_2) // 3 - 1).bit_length()
                    if limit < slot:
                        slot = limit
                position = bisect_left(nodes, (node + (1 << slot)) & mask)
                finger = nodes[position] if position < n else nodes[0]
                if finger == node or (finger - node) & mask > x:
                    raise TreeError(
                        f"node {node} has no eligible finger toward root "
                        f"{root}; the ring is inconsistent"
                    )
                parent[node] = finger
                count += 1
            tree.invalidate_caches()
            counts[key] = count
        return counts

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
