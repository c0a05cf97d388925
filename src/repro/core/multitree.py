"""Multiple simultaneous DAT trees (paper Secs. 2.3 / 3.2 / 4).

A monitoring deployment runs one DAT per aggregated attribute; the paper
argues consistent hashing "is capable of building multiple DAT trees in a
load-balanced fashion" (root selection spreads over nodes) and the
prototype's aggregation table multiplexes them. This module provides the
multi-tree view: build a forest keyed by attribute names, and analyze the
*combined* per-node load — the quantity that actually matters when many
attributes are monitored at once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.chord.hashing import sha1_id
from repro.chord.ring import StaticRing
from repro.core.analysis import imbalance_factor
from repro.core.builder import DatScheme, DatTreeBuilder
from repro.core.tree import DatTree

__all__ = ["DatForest", "ForestLoadReport"]


@dataclass(frozen=True)
class ForestLoadReport:
    """Combined load statistics across a forest of DAT trees."""

    n_trees: int
    n_nodes: int
    #: per-node messages summed over all trees (one round each).
    combined_loads: dict[int, int]
    #: per-node count of root roles held.
    root_roles: dict[int, int]

    @property
    def combined_imbalance(self) -> float:
        """Max/avg of the summed per-node load."""
        return imbalance_factor(self.combined_loads)

    @property
    def max_root_roles(self) -> int:
        """Most root roles concentrated on any single node."""
        return max(self.root_roles.values(), default=0)

    def as_row(self) -> dict[str, float]:
        return {
            "n_trees": self.n_trees,
            "n_nodes": self.n_nodes,
            "combined_imbalance": self.combined_imbalance,
            "max_root_roles": self.max_root_roles,
            "max_combined_load": max(self.combined_loads.values(), default=0),
        }


class DatForest:
    """A set of DAT trees over one overlay, keyed by attribute name.

    Parameters
    ----------
    ring:
        The shared overlay.
    attributes:
        Monitored attribute names; each maps to a rendezvous key via SHA-1
        (Sec. 2.3) and hence to its own tree.
    scheme:
        Tree-construction scheme for every tree.
    """

    def __init__(
        self,
        ring: StaticRing,
        attributes: list[str],
        scheme: DatScheme | str = DatScheme.BALANCED,
    ) -> None:
        if not attributes:
            raise ValueError("a forest needs at least one attribute")
        if len(set(attributes)) != len(attributes):
            raise ValueError(f"duplicate attributes: {attributes}")
        self.ring = ring
        self.attributes = list(attributes)
        self._keys = {a: sha1_id(a, ring.space) for a in self.attributes}
        self._builder = DatTreeBuilder(ring, scheme=scheme)
        self._trees: dict[str, DatTree] | None = None

    @property
    def trees(self) -> dict[str, DatTree]:
        """attribute -> its DAT tree (built lazily, shared finger tables)."""
        if self._trees is None:
            self._trees = {
                attribute: self._builder.build(key)
                for attribute, key in self._keys.items()
            }
        return self._trees

    def tree(self, attribute: str) -> DatTree:
        """The tree aggregating one attribute."""
        try:
            return self.trees[attribute]
        except KeyError:
            raise KeyError(
                f"attribute {attribute!r} not in forest {self.attributes}"
            ) from None

    def roots(self) -> dict[str, int]:
        """attribute -> root node."""
        return {attribute: tree.root for attribute, tree in self.trees.items()}

    # ------------------------------------------------------------------ #
    # Combined-load analysis (the Sec. 3.2 multi-tree claim)
    # ------------------------------------------------------------------ #

    def load_report(self) -> ForestLoadReport:
        """Per-node load summed over one aggregation round of every tree."""
        combined: Counter[int] = Counter({node: 0 for node in self.ring})
        root_roles: Counter[int] = Counter()
        for tree in self.trees.values():
            for node, load in tree.message_loads().items():
                combined[node] += load
            root_roles[tree.root] += 1
        return ForestLoadReport(
            n_trees=len(self.trees),
            n_nodes=len(self.ring),
            combined_loads=dict(combined),
            root_roles=dict(root_roles),
        )
