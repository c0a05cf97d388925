"""Plain-text visualization of rings and DAT trees.

Debugging aids used by the examples: an indented tree renderer (the shape
of Figs. 2(b)/5(b)), a ring occupancy bar, and a load histogram matching
the Fig. 8 rank plots. Everything is pure text — no plotting dependency.
"""

from __future__ import annotations

from typing import Mapping, Union

from repro.chord.ring import StaticRing
from repro.core.tree import DatTree
from repro.telemetry.hotspot import HotspotAccountant

#: Histogram input: precomputed per-node totals, or the accountant itself.
Loads = Union[Mapping[int, int], HotspotAccountant]

__all__ = ["render_tree", "render_ring", "render_load_histogram"]


def render_tree(tree: DatTree, max_nodes: int = 200, label: str = "N") -> str:
    """Indented top-down rendering of a DAT tree.

    >>> from repro.chord.idspace import IdSpace
    >>> from repro.chord.ring import StaticRing
    >>> from repro.core.builder import build_dat
    >>> ring = StaticRing(IdSpace(4), range(16))
    >>> print(render_tree(build_dat(ring, 0)))  # doctest: +ELLIPSIS
    N0
    ├── N14
    ...
    """
    children = tree.children_map()
    lines: list[str] = [f"{label}{tree.root}"]
    count = [1]

    def walk(node: int, prefix: str) -> None:
        kids = children.get(node, [])
        for index, child in enumerate(kids):
            if count[0] >= max_nodes:
                lines.append(f"{prefix}└── ... (truncated)")
                return
            last = index == len(kids) - 1
            connector = "└── " if last else "├── "
            lines.append(f"{prefix}{connector}{label}{child}")
            count[0] += 1
            walk(child, prefix + ("    " if last else "│   "))

    walk(tree.root, "")
    return "\n".join(lines)


def render_ring(ring: StaticRing, width: int = 64, mark: int | None = None) -> str:
    """One-line occupancy bar of the identifier circle.

    Each character covers ``2^bits / width`` identifiers: ``.`` empty,
    ``o`` one node, ``#`` several, ``@`` the ``mark`` node's bucket.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    buckets = [0] * width
    mark_bucket = None
    for node in ring:
        bucket = min(node * width // ring.space.size, width - 1)
        buckets[bucket] += 1
        if mark is not None and node == mark:
            mark_bucket = bucket
    chars = []
    for index, count in enumerate(buckets):
        if index == mark_bucket:
            chars.append("@")
        elif count == 0:
            chars.append(".")
        elif count == 1:
            chars.append("o")
        else:
            chars.append("#")
    return "[" + "".join(chars) + "]"


def render_load_histogram(
    loads: Loads, width: int = 50, max_rows: int = 20
) -> str:
    """Horizontal bar chart of per-node loads, sorted descending (Fig. 8a).

    ``loads`` is either a precomputed ``{node: total}`` mapping or a
    :class:`~repro.telemetry.hotspot.HotspotAccountant` (any transport's
    ``.stats``), read via its ``loads()`` snapshot. Rows beyond
    ``max_rows`` are folded into a final summary line.
    """
    if isinstance(loads, HotspotAccountant):
        loads = loads.loads()
    ranked = sorted(loads.items(), key=lambda item: (-item[1], item[0]))
    if not ranked:
        return "(no loads)"
    peak = max(load for _node, load in ranked) or 1
    lines = []
    for rank, (node, load) in enumerate(ranked[:max_rows]):
        bar = "#" * max(int(load / peak * width), 1 if load else 0)
        lines.append(f"rank {rank:>4}  node {node:>12}  {load:>6}  {bar}")
    if len(ranked) > max_rows:
        rest = ranked[max_rows:]
        total = sum(load for _node, load in rest)
        lines.append(
            f"... {len(rest)} more nodes, {total} messages total "
            f"(min {rest[-1][1]}, max {rest[0][1]})"
        )
    return "\n".join(lines)
