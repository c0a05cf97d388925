"""Parent selection rules for DAT construction (paper Sec. 3.2 / 3.4).

Both schemes pick the parent of node ``i`` from ``i``'s finger table, aiming
at the tree root ``r = successor(k)``:

* **Basic** — the finger that most closely *precedes or equals* ``r``
  clockwise (the next hop of greedy Chord finger routing, where reaching the
  key's successor terminates the route). This is how N8/N12/N14/N15 all
  pick N0 directly in the paper's Fig. 2.

* **Balanced** — the same rule restricted to finger slots
  ``j <= g(x)`` where ``x = cw(i, r)`` and ``g`` is the finger limiting
  function. This is Algorithm 1, with the two printed ambiguities resolved
  as recorded in DESIGN.md Sec. 5 (largest qualifying finger wins; ``x`` is
  the distance to the root per the Sec. 3.4 prose).

Both functions read a :class:`~repro.chord.fingers.FingerTable`, converged
snapshot or live, so the same code serves the static analytical model and
the protocol nodes.
"""

from __future__ import annotations

from repro.chord.fingers import FingerTable
from repro.core.limiting import FingerLimiter
from repro.errors import TreeError

__all__ = ["select_parent_basic", "select_parent_balanced"]


def select_parent_basic(table: FingerTable, root: int) -> int | None:
    """Parent of ``table.owner`` in the basic DAT rooted at ``root``.

    Returns ``None`` for the root itself. For every other node the finger
    table of a converged ring always contains a qualifying finger (slot 0 is
    the immediate successor, which never overshoots the root), so a ``None``
    from the scan indicates a corrupted table and raises.
    """
    owner = table.owner
    if owner == root:
        return None
    parent = table.closest_preceding(root)
    if parent is None:
        raise TreeError(
            f"node {owner} has no finger preceding root {root}; "
            "finger table is inconsistent with a converged ring"
        )
    return parent


def select_parent_balanced(
    table: FingerTable, root: int, limiter: FingerLimiter
) -> int | None:
    """Parent of ``table.owner`` in the balanced DAT rooted at ``root``.

    Restricts the basic rule to slots ``0..g(x)``. Slot 0 always qualifies
    for non-root nodes on a converged ring, so the restricted scan cannot
    come up empty either.
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
