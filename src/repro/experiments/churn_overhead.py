"""Churn overhead of the DAT scheme (paper Sec. 1/3.2 claims).

"Without maintaining explicit parent-child membership, it has very low
overhead during node arrival and departure." Concretely: the DAT tree is a
pure function of Chord finger state, so membership changes generate *only*
Chord's own maintenance traffic — zero tree-repair messages — and the tree
becomes consistent again as soon as stabilization has fixed the fingers.

This experiment runs a live protocol overlay on the simulator, applies a
churn schedule, and reports:

* maintenance messages per node per virtual second, by message kind
  (there are no DAT-maintenance kinds at all);
* rounds of stabilization until the implicit tree is valid again after
  each membership change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.chord.idspace import IdSpace
from repro.chord.incremental import DatUpdateEngine
from repro.chord.network import ChordNetwork
from repro.chord.node import ChordConfig
from repro.chord.ring import StaticRing
from repro.core.builder import build_balanced_dat
from repro.core.tree import DatTree
from repro.errors import TreeError
from repro.sim.simnet import SimTransport
from repro.util.rng import ensure_rng
from repro.workloads.churn import ChurnKind, ChurnWorkload

__all__ = ["ChurnOverheadResult", "run_churn_overhead", "live_tree"]


def live_tree(network: ChordNetwork, key: int) -> DatTree:
    """The balanced DAT implied by the overlay's *live* finger tables.

    Unlike the static builders this uses whatever (possibly stale) fingers
    the protocol nodes currently hold — the actual tree the aggregation
    layer would use mid-churn.
    """
    ring = network.ideal_ring()
    root = ring.successor(key)
    parent: dict[int, int] = {}
    from repro.core.limiting import FingerLimiter
    from repro.core.parent import select_parent_balanced

    limiter = FingerLimiter.for_ring(network.space.bits, len(network.nodes))
    for ident, node in network.nodes.items():
        if ident == root:
            continue
        chosen = select_parent_balanced(node.finger_table(), root, limiter)
        if chosen is not None:
            parent[ident] = chosen
    return DatTree(root=root, parent=parent, key=key)


def _tree_is_valid(network: ChordNetwork, key: int) -> bool:
    """Does the live tree connect every current member to the root?"""
    try:
        tree = live_tree(network, key)
        tree.validate()
    except TreeError:
        return False
    return tree.n_nodes == len(network.nodes)


@dataclass
class ChurnOverheadResult:
    """Measured maintenance economics under churn."""

    n_nodes_initial: int
    n_events: int
    duration: float
    #: total protocol messages during the churn phase.
    total_messages: int = 0
    #: messages per node per virtual second.
    messages_per_node_second: float = 0.0
    #: message-kind breakdown (note: no DAT tree-repair kinds exist).
    by_kind: dict[str, int] = field(default_factory=dict)
    #: per-event stabilization rounds until the live tree was valid again.
    repair_rounds: list[int] = field(default_factory=list)
    #: per-event finger entries rewritten by the incremental model mirror.
    incremental_finger_updates: list[int] = field(default_factory=list)
    #: per-event parent entries rewritten by the incremental model mirror.
    incremental_parent_updates: list[int] = field(default_factory=list)
    #: events whose mirrored tree needed a full rebuild (root handover).
    incremental_rebuilds: int = 0

    def mean_repair_rounds(self) -> float:
        """Average rounds to a valid tree after a membership change."""
        return float(np.mean(self.repair_rounds)) if self.repair_rounds else 0.0

    def mean_incremental_updates(self) -> float:
        """Average finger+parent entries touched per event by the model.

        The analytical counterpart of the message counts: the converged-ring
        mirror (:class:`~repro.chord.incremental.DatUpdateEngine`) repairs
        the tree with this many entry updates — O(log n) expected — where
        the old path rebuilt all ``n*bits`` of them.
        """
        touched = [
            fingers + parents
            for fingers, parents in zip(
                self.incremental_finger_updates, self.incremental_parent_updates
            )
        ]
        return float(np.mean(touched)) if touched else 0.0

    def dat_maintenance_messages(self) -> int:
        """Messages whose kind belongs to DAT tree maintenance: always 0.

        The protocol has no such kinds — the claim the paper makes. Any
        ``agg_*`` traffic is data-plane aggregation, not membership repair.
        """
        return sum(
            count
            for kind, count in self.by_kind.items()
            if kind.startswith("dat_maint")
        )


def run_churn_overhead(
    n_nodes: int = 32,
    bits: int = 16,
    n_churn_events: int = 10,
    key: int = 0x1234,
    seed: int = 2007,
    max_repair_rounds: int = 200,
) -> ChurnOverheadResult:
    """Run the churn experiment on a live simulated overlay."""
    with telemetry.span(
        "experiment.churn", n=n_nodes, events=n_churn_events, seed=seed
    ):
        return _run_churn_overhead(
            n_nodes, bits, n_churn_events, key, seed, max_repair_rounds
        )


def _run_churn_overhead(
    n_nodes: int,
    bits: int,
    n_churn_events: int,
    key: int,
    seed: int,
    max_repair_rounds: int,
) -> ChurnOverheadResult:
    rng = ensure_rng(seed)
    space = IdSpace(bits)
    key = space.wrap(key)
    transport = SimTransport(rng=rng, hotspot_name="churn.transport")
    config = ChordConfig(stabilize_interval=0.5, fix_fingers_interval=0.1)
    network = ChordNetwork(space, transport, config)

    # Bootstrap and converge the initial overlay.
    initial_ids = sorted(
        int(i) for i in rng.choice(space.size, size=n_nodes, replace=False)
    )
    for ident in initial_ids:
        network.add_node(ident)
        network.settle(2.0)
    network.settle_until_converged()
    # Let fingers fully populate before measuring.
    for node in network.nodes.values():
        node.fix_all_fingers()
    network.settle(5.0)

    transport.stats.reset()
    start_time = transport.now()

    # Converged-ring mirror maintained incrementally alongside the live
    # overlay: quantifies the analytical repair cost (finger + parent
    # entries touched) for the same event sequence.
    mirror = DatUpdateEngine(StaticRing(space, sorted(network.nodes)))
    mirror.track(key)

    workload = ChurnWorkload(
        duration=float(n_churn_events),
        join_rate=0.5,
        leave_rate=0.5,
        seed=rng,
    )
    events = workload.generate()[:n_churn_events]
    repair_rounds: list[int] = []
    finger_updates: list[int] = []
    parent_updates: list[int] = []
    rebuilds = 0

    for event in events:
        if event.kind is ChurnKind.JOIN:
            candidate = int(rng.integers(0, space.size))
            while candidate in network.nodes:
                candidate = int(rng.integers(0, space.size))
            network.add_node(candidate)
            report = mirror.apply(event.kind.value, candidate)
        else:
            victims = list(network.nodes)
            if len(victims) <= 2:
                continue
            victim = victims[int(rng.integers(0, len(victims)))]
            network.remove_node(victim, graceful=event.kind is ChurnKind.LEAVE)
            report = mirror.apply(event.kind.value, victim)
        finger_updates.append(report.finger_updates)
        parent_updates.append(report.parent_updates)
        rebuilds += len(report.rebuilt_keys)

        # Count stabilization rounds until the live tree is valid again.
        rounds = 0
        while not _tree_is_valid(network, key) and rounds < max_repair_rounds:
            network.settle(config.stabilize_interval)
            rounds += 1
        repair_rounds.append(rounds)
        # Unit buckets via the default histogram override — repair completes
        # in a handful of stabilization rounds, so 1-wide bins resolve it.
        telemetry.observe("churn_repair_rounds", float(rounds))

    elapsed = transport.now() - start_time
    total = transport.stats.total_messages()
    per_node_second = (
        total / (len(network.nodes) * elapsed) if elapsed > 0 else 0.0
    )
    by_kind = transport.stats.by_kind()
    if telemetry.is_enabled():
        telemetry.gauge_set("churn_total_messages", float(total))
        telemetry.gauge_set("churn_messages_per_node_second", per_node_second)
        telemetry.gauge_set(
            "churn_mean_repair_rounds",
            float(np.mean(repair_rounds)) if repair_rounds else 0.0,
        )
        telemetry.gauge_set("churn_incremental_rebuilds", float(rebuilds))
        for kind, count in sorted(by_kind.items()):
            telemetry.count("churn_messages_total", float(count), kind=kind)
    return ChurnOverheadResult(
        n_nodes_initial=n_nodes,
        n_events=len(events),
        duration=elapsed,
        total_messages=total,
        messages_per_node_second=per_node_second,
        by_kind=by_kind,
        repair_rounds=repair_rounds,
        incremental_finger_updates=finger_updates,
        incremental_parent_updates=parent_updates,
        incremental_rebuilds=rebuilds,
    )
