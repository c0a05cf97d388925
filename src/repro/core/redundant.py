"""Redundant aggregation over independent DAT trees (fault tolerance).

The paper's related work (Li et al. [12]) builds multiple
interior-node-disjoint trees "to tolerate single points of failure"; the
DAT paper itself leaves fault tolerance to implicit tree repair. This
module composes the two ideas with machinery we already have: aggregate
over ``k`` *independent* DATs (rendezvous keys salted per replica, so
roots and interiors differ with high probability) and combine the replica
results robustly. A crashed root or a lost subtree corrupts at most the
replicas that routed through it; the combiner (median for numeric
aggregates, first-available otherwise) masks up to ``(k-1)/2`` corrupted
replicas.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any

from repro.chord.hashing import sha1_id
from repro.chord.ring import StaticRing
from repro.core.aggregates import Aggregate, get_aggregate
from repro.core.builder import DatScheme, DatTreeBuilder
from repro.core.tree import DatTree
from repro.errors import AggregationError

__all__ = ["ReplicaOutcome", "RedundantAggregator"]


@dataclass(frozen=True)
class ReplicaOutcome:
    """Result of one replica tree's aggregation round."""

    replica: int
    key: int
    root: int
    value: Any | None
    #: None when the round completed; otherwise why it failed.
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class RedundantResult:
    """Combined outcome over all replicas."""

    value: Any
    outcomes: list[ReplicaOutcome] = field(default_factory=list)

    @property
    def replicas_used(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)


class RedundantAggregator:
    """k-replica aggregation over one overlay.

    Parameters
    ----------
    ring:
        The overlay.
    attribute:
        Monitored attribute; replica ``r`` uses the rendezvous key
        ``sha1("{attribute}#r")``, giving independent roots/trees.
    k:
        Replica count (odd values give clean majority masking).
    scheme:
        Tree-construction scheme.
    """

    def __init__(
        self,
        ring: StaticRing,
        attribute: str,
        k: int = 3,
        scheme: DatScheme | str = DatScheme.BALANCED,
    ) -> None:
        if k <= 0:
            raise AggregationError(f"replica count must be positive, got {k}")
        self.ring = ring
        self.attribute = attribute
        self.k = int(k)
        self._builder = DatTreeBuilder(ring, scheme=scheme)

    def _replica_keys(self) -> list[int]:
        """The k salted rendezvous keys."""
        return [
            sha1_id(f"{self.attribute}#{replica}", self.ring.space)
            for replica in range(self.k)
        ]

    def trees(self) -> list[DatTree]:
        """One DAT per replica (roots spread by consistent hashing)."""
        return [self._builder.build(key) for key in self._replica_keys()]

    def distinct_roots(self) -> int:
        """How many distinct root nodes the replicas landed on."""
        return len({tree.root for tree in self.trees()})

    # ------------------------------------------------------------------ #
    # Aggregation with failure injection
    # ------------------------------------------------------------------ #

    def aggregate(
        self,
        values: dict[int, float],
        aggregate: Aggregate | str,
        failed_nodes: set[int] | None = None,
    ) -> RedundantResult:
        """Run every replica round and combine.

        ``failed_nodes`` models crash failures *during* the rounds: a
        replica whose root failed produces no result; a replica with failed
        interior nodes silently loses those subtrees (exactly what happens
        to an in-flight round on the wire).
        """
        agg = get_aggregate(aggregate) if isinstance(aggregate, str) else aggregate
        failed = failed_nodes or set()
        outcomes: list[ReplicaOutcome] = []
        for replica, (key, tree) in enumerate(zip(self._replica_keys(), self.trees())):
            outcomes.append(self._run_replica(replica, key, tree, values, agg, failed))
        good = [outcome.value for outcome in outcomes if outcome.ok]
        if not good:
            raise AggregationError(
                f"all {self.k} replicas failed for {self.attribute!r}"
            )
        combined = self._combine(good)
        return RedundantResult(value=combined, outcomes=outcomes)

    def _run_replica(
        self,
        replica: int,
        key: int,
        tree: DatTree,
        values: dict[int, float],
        agg: Aggregate,
        failed: set[int],
    ) -> ReplicaOutcome:
        if tree.root in failed:
            return ReplicaOutcome(
                replica=replica, key=key, root=tree.root, value=None,
                failure="root failed",
            )
        # Bottom-up merge, dropping subtrees under failed interiors.
        depths = tree.depths()
        states: dict[int, Any] = {}
        for node in tree.nodes():
            if node not in failed:
                states[node] = agg.lift(values[node])
        for node in sorted(tree.parent, key=lambda v: depths[v], reverse=True):
            if node in failed or node not in states:
                continue
            parent = tree.parent[node]
            if parent in failed:
                continue  # this subtree's contribution is lost
            if parent in states:
                states[parent] = agg.merge(states[parent], states[node])
            else:
                states[parent] = states[node]
        if tree.root not in states:
            return ReplicaOutcome(
                replica=replica, key=key, root=tree.root, value=None,
                failure="no data reached root",
            )
        return ReplicaOutcome(
            replica=replica,
            key=key,
            root=tree.root,
            value=agg.finalize(states[tree.root]),
        )

    @staticmethod
    def _combine(values: list[Any]) -> Any:
        """Median for numbers (masks corrupted minorities), else first."""
        if all(isinstance(v, (int, float)) for v in values):
            return statistics.median(values)
        return values[0]
