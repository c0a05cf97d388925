"""Balanced parent selection over a finger table (paper Sec. 3.4).

The balanced DAT parent of node ``i`` toward the tree root
``r = successor(k)`` is the finger that most closely precedes or equals
``r`` clockwise, restricted to finger slots ``j <= g(x)`` where
``x = cw(i, r)`` and ``g`` is the finger limiting function. This is
Algorithm 1, with the two printed ambiguities resolved as recorded in
DESIGN.md Sec. 5 (largest qualifying finger wins; ``x`` is the distance to
the root per the Sec. 3.4 prose).

It reads a :class:`~repro.chord.fingers.FingerTable`, converged snapshot or
live, for a caller that holds one (a custom limiter, a live node); trees
over a converged ring come from :func:`repro.core.builder.build_dat`.
"""

from __future__ import annotations

from repro.chord.fingers import FingerTable
from repro.core.limiting import FingerLimiter
from repro.errors import TreeError

__all__ = ["select_parent_balanced"]


def select_parent_balanced(
    table: FingerTable, root: int, limiter: FingerLimiter
) -> int | None:
    """Parent of ``table.owner`` in the balanced DAT rooted at ``root``.

    Returns ``None`` for the root itself. Slot 0 (the immediate successor,
    which never overshoots the root) always qualifies for non-root nodes on
    a converged ring, so an empty scan means a corrupted table and raises.
    """
    owner = table.owner
    if owner == root:
        return None
    x = table.space.cw(owner, root)
    max_slot = limiter(x)
    parent = table.closest_preceding(root, max_slot=max_slot)
    if parent is None:
        raise TreeError(
            f"node {owner} has no eligible finger within slot {max_slot} "
            f"preceding root {root}; finger table is inconsistent"
        )
    return parent
