"""Chord finger tables (paper Sec. 3.1 and 4).

A node ``v`` keeps ``b`` fingers; the 0-indexed finger ``j`` is the first
node that succeeds ``v + 2^j`` on the circle (the paper indexes from 1 with
offset ``2^{j-1}`` — same table, shifted index). The prototype additionally
caches *fingers of fingers* (FoF, Sec. 4) which the protocol layer uses to
shortcut child discovery; :class:`FingerTable` supports attaching that layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chord.idspace import IdSpace
from repro.errors import IdentifierError

__all__ = ["FingerTable"]


@dataclass
class FingerTable:
    """The finger table of one node.

    Fingers are stored deduplicated-per-slot: slot ``j`` holds the node
    identifier succeeding ``owner + 2^j``. Several slots commonly point at
    the same node on sparse rings; iteration helpers expose both the raw
    slots and the distinct finger set.
    """

    space: IdSpace
    owner: int
    entries: list[int] = field(default_factory=list)
    fingers_of_fingers: dict[int, list[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.space.validate(self.owner)
        if self.entries and len(self.entries) != self.space.bits:
            raise IdentifierError(
                f"finger table needs {self.space.bits} slots, got {len(self.entries)}"
            )
        for entry in self.entries:
            self.space.validate(entry)

    @classmethod
    def trusted(
        cls,
        space: IdSpace,
        owner: int,
        entries: list[int],
        fingers_of_fingers: dict[int, list[int]] | None = None,
    ) -> "FingerTable":
        """Construct without per-entry validation (hot-path builder).

        ``ChordNode.finger_table`` assembles a table on every parent
        selection from entries that are already space-validated; re-checking
        ``bits`` entries per call made table construction O(bits) of pure
        overhead. Callers own the invariant that every entry (and the
        owner) is a valid identifier of ``space``.
        """
        table = cls.__new__(cls)
        table.space = space
        table.owner = owner
        table.entries = entries
        table.fingers_of_fingers = (
            fingers_of_fingers if fingers_of_fingers is not None else {}
        )
        return table

    # ------------------------------------------------------------------ #

    def finger(self, j: int) -> int:
        """Node in slot ``j`` (the first node succeeding ``owner + 2^j``)."""
        if not 0 <= j < self.space.bits:
            raise IdentifierError(f"finger index {j} outside [0, {self.space.bits})")
        return self.entries[j]

    def start(self, j: int) -> int:
        """Start of the j-th finger interval, ``owner + 2^j``."""
        return self.space.finger_start(self.owner, j)

    @property
    def successor(self) -> int:
        """Slot 0 — the owner's immediate successor."""
        return self.entries[0]

    def slots(self) -> list[tuple[int, int]]:
        """All ``(j, node)`` pairs."""
        return list(enumerate(self.entries))

    def distinct_fingers(self) -> list[int]:
        """Distinct finger nodes in slot order (deduplicated, owner excluded)."""
        seen: set[int] = set()
        out: list[int] = []
        for node in self.entries:
            if node != self.owner and node not in seen:
                seen.add(node)
                out.append(node)
        return out

    # ------------------------------------------------------------------ #
    # Queries used by routing / DAT parent selection
    # ------------------------------------------------------------------ #

    def closest_preceding(self, key: int, max_slot: int | None = None) -> int | None:
        """Finger that most closely precedes-or-reaches ``key`` from ``owner``.

        Scans slots from the largest eligible index downward and returns the
        first finger ``f`` with ``cw(owner, f) <= cw(owner, key)`` — i.e. a
        finger that does not overshoot the key. Returns ``None`` when every
        finger overshoots (then the owner itself is the last hop before the
        key's successor).

        ``max_slot`` restricts the scan to slots ``0..max_slot`` — this is
        exactly the hook the balanced routing scheme (paper Sec. 3.4) uses
        to limit fingers to those at most ``2^{g(x)}`` away.
        """
        space = self.space
        target_distance = space.cw(self.owner, key)
        if target_distance == 0:
            return None
        top = self.space.bits - 1 if max_slot is None else min(max_slot, space.bits - 1)
        for j in range(top, -1, -1):
            node = self.entries[j]
            if node == self.owner:
                continue
            if space.cw(self.owner, node) <= target_distance:
                return node
        return None

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FingerTable(owner={self.owner}, entries={self.entries})"
