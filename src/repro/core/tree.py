"""The DAT tree data structure and its measured properties.

A :class:`DatTree` is an explicit snapshot of the implicit tree: a parent
pointer per non-root node. The evaluation metrics of paper Sec. 5.2 —
maximum/average branching factor, height — and the structural invariants the
proofs rely on (single parent, acyclic, connected) are all computed here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import TreeError

if TYPE_CHECKING:
    from repro.core.aggregates import Aggregate

__all__ = ["DatTree", "TreeStats"]


@dataclass(frozen=True)
class TreeStats:
    """Summary statistics of one DAT tree (paper Sec. 5.2 metrics)."""

    n_nodes: int
    height: int
    max_branching: int
    #: Mean children count over internal (non-leaf) nodes — the paper's
    #: "average branching factor" (a per-node mean over all nodes would be
    #: trivially (n-1)/n ~= 1 and could not equal the reported 2-3.2).
    avg_branching: float
    n_leaves: int
    n_internal: int


@dataclass
class DatTree:
    """A rooted aggregation tree over node identifiers.

    Parameters
    ----------
    root:
        Identifier of the root node (``successor(rendezvous key)``).
    parent:
        Map from every non-root node to its parent. The root must not
        appear as a key.
    key:
        The rendezvous key the tree aggregates toward (informational).
    """

    root: int
    parent: dict[int, int]
    key: int | None = None
    _children: dict[int, list[int]] | None = field(default=None, repr=False)
    _depths: dict[int, int] | None = field(default=None, repr=False)
    _height: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.root in self.parent:
            raise TreeError(f"root {self.root} must not have a parent")

    def invalidate_caches(self) -> None:
        """Forget the derived children/depth/height caches; for owners that
        edit :attr:`parent` in place (the incremental engine's live trees)."""
        self._children = self._depths = self._height = None

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def n_nodes(self) -> int:
        """Total node count including the root."""
        return len(self.parent) + 1

    def nodes(self) -> list[int]:
        """All node identifiers (root first, then parent-map order)."""
        return [self.root, *self.parent.keys()]

    def children(self, node: int) -> list[int]:
        """Direct children of ``node`` (empty for leaves)."""
        return self.children_map().get(node, [])

    def children_map(self) -> dict[int, list[int]]:
        """Children lists for every internal node (computed once, cached)."""
        if self._children is None:
            children: dict[int, list[int]] = {}
            for child, par in self.parent.items():
                children.setdefault(par, []).append(child)
            for lst in children.values():
                lst.sort()
            self._children = children
        return self._children

    def branching_factor(self, node: int) -> int:
        """Number of children of ``node`` — its aggregation load (Sec. 3.3)."""
        return len(self.children(node))

    def depth(self, node: int) -> int:
        """Edge distance from ``node`` up to the root."""
        return self.depths()[node]

    def depths(self) -> dict[int, int]:
        """Depth of every node, computed by BFS from the root.

        Raises :class:`TreeError` if some node cannot reach the root (the
        parent map contains a cycle or a dangling parent).
        """
        if self._depths is None:
            children = self.children_map()
            depths = {self.root: 0}
            queue: deque[int] = deque([self.root])
            while queue:
                node = queue.popleft()
                for child in children.get(node, ()):
                    depths[child] = depths[node] + 1
                    queue.append(child)
            if len(depths) != self.n_nodes:
                unreachable = set(self.parent) - set(depths)
                raise TreeError(
                    f"{len(unreachable)} nodes unreachable from root "
                    f"{self.root} (cycle or dangling parent); "
                    f"example: {sorted(unreachable)[:5]}"
                )
            self._depths = depths
        return self._depths

    def path_to_root(self, node: int) -> list[int]:
        """The aggregation path ``<node, parent, ..., root>``."""
        path = [node]
        current = node
        for _ in range(self.n_nodes):
            if current == self.root:
                return path
            try:
                current = self.parent[current]
            except KeyError:
                raise TreeError(f"node {current} has no parent and is not the root")
            path.append(current)
        raise TreeError(f"cycle detected on the path from {node} to the root")

    def validate(self) -> None:
        """Check the structural invariants of paper Sec. 3.2.

        Every node has a unique parent (by construction of the dict), the
        parent graph is acyclic, and all nodes reach the root.
        """
        self.depths()  # raises on cycles / dangling parents
        for child, par in self.parent.items():
            if par == child:
                raise TreeError(f"node {child} is its own parent")

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #

    @property
    def height(self) -> int:
        """Longest root-to-leaf edge distance (paper: 'tree height').

        Cached: the first access scans the (also cached) depth map once;
        telemetry's per-build span attributes then read it for free.
        """
        if self._height is None:
            self._height = max(self.depths().values(), default=0)
        return self._height

    def branching_factors(self) -> dict[int, int]:
        """Children count of every node (0 for leaves)."""
        children = self.children_map()
        return {node: len(children.get(node, ())) for node in self.nodes()}

    def leaves(self) -> list[int]:
        """Nodes with no children."""
        children = self.children_map()
        return [node for node in self.nodes() if not children.get(node)]

    def internal_nodes(self) -> list[int]:
        """Nodes with at least one child (they carry aggregation load)."""
        return sorted(self.children_map().keys())

    def stats(self) -> TreeStats:
        """Aggregate the Sec. 5.2 metrics for this tree."""
        factors = self.branching_factors()
        internal = [f for f in factors.values() if f > 0]
        return TreeStats(
            n_nodes=self.n_nodes,
            height=self.height,
            max_branching=max(factors.values(), default=0),
            avg_branching=(sum(internal) / len(internal)) if internal else 0.0,
            n_leaves=sum(1 for f in factors.values() if f == 0),
            n_internal=len(internal),
        )

    def subtree_sizes(self) -> dict[int, int]:
        """Number of descendants (including self) below every node.

        Useful for accuracy analysis: the value aggregated at a node covers
        exactly its subtree.
        """
        sizes = {node: 1 for node in self.nodes()}
        # Accumulate bottom-up: process nodes in decreasing depth order.
        depths = self.depths()
        for node in sorted(self.parent, key=lambda v: depths[v], reverse=True):
            sizes[self.parent[node]] += sizes[node]
        return sizes

    def fold(self, agg: Aggregate, reading: Callable[[int], Any]) -> Any:
        """One synchronous aggregation round over this tree.

        Lifts ``reading(node)`` at every node, merges each state into its
        parent's in decreasing-depth order, and finalizes the root's state:
        the dataflow of the protocol service, evaluated in one pass.
        """
        states = {node: agg.lift(reading(node)) for node in self.nodes()}
        depths = self.depths()
        for node in sorted(self.parent, key=lambda v: depths[v], reverse=True):
            parent = self.parent[node]
            states[parent] = agg.merge(states[parent], states[node])
        return agg.finalize(states[self.root])

    def message_loads(self) -> dict[int, int]:
        """Per-node aggregation messages for one round: sends + receives.

        Each non-root node sends exactly one message to its parent; each
        node receives one message per child. This is the load accounting
        that reproduces the paper's Fig. 8 numbers (DESIGN.md Sec. 5).
        """
        factors = self.branching_factors()
        return {
            node: factors[node] + (0 if node == self.root else 1)
            for node in self.nodes()
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DatTree(root={self.root}, n={self.n_nodes})"
