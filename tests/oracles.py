"""Object-path references the array-native paths are proved against.

Nothing under ``src/`` runs these: they are the slow, obviously-correct
implementations that the property tests and ``benchmarks/bench_scale.py``
compare the array kernels, the slab protocol runner and the array-native
scale statistics with, bit for bit.

* :func:`finger_entries_by_slot` — one successor query per finger slot,
  the reference of :meth:`repro.chord.ring.StaticRing.finger_entries`;
* :func:`build_basic_dat` / :func:`build_balanced_dat` — one finger-table
  scan per node (:func:`select_parent_basic` /
  ``repro.core.parent.select_parent_balanced``), the reference of
  :func:`repro.chord.fastbuild.fast_tree_arrays` and so of
  :func:`repro.core.builder.build_dat`;
* :func:`centralized_routed_loads` — every route traced hop by hop, the
  reference of :func:`repro.baselines.centralized.fast_centralized_load_array`;
* :func:`load_distribution` — the ``(node, load)`` rank order of Fig. 8(a),
  the reference of :func:`repro.core.analysis.load_rank_array`;
* :func:`probe_split_identifier` — one probing join against a ring object,
  the reference of :func:`repro.chord.ringarray.fast_probing_ids`;
* :func:`run_protocol_oracle` — one real ``DatNodeService`` per node, the
  reference of :func:`repro.core.slab.run_protocol_slab`;
* :func:`scale_point_oracle` — :func:`repro.experiments.scale.measure_scale_point`
  through the object builders and the routed centralized baseline;
* :func:`protocol_point_oracle` —
  :func:`repro.experiments.scale.measure_protocol_point` through
  :func:`run_protocol_oracle`.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Mapping

import numpy as np

from repro.chord.fingers import FingerTable
from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.chord.probing import default_probe_count
from repro.chord.ring import StaticRing
from repro.chord.routing import finger_route
from repro.core.aggregates import Aggregate, get_aggregate
from repro.core.analysis import imbalance_factor
from repro.core.limiting import FingerLimiter
from repro.core.parent import select_parent_balanced
from repro.core.service import DatNodeService, StandaloneDatHost
from repro.core.slab import ProtocolRunResult
from repro.core.tree import DatTree
from repro.errors import TreeError, UnknownNodeError
from repro.experiments.scale import PROTOCOL_ROUNDS, ProtocolScalePoint, ScalePoint
from repro.sim.messages import reset_msg_ids
from repro.sim.simnet import SimTransport
from repro.util.rng import ensure_rng


def finger_entries_by_slot(ring: StaticRing, ident: int) -> list[int]:
    """Finger entries of member ``ident`` by the definition: slot ``j`` is
    ``successor(ident + 2^j)``, one query per slot."""
    if ident not in ring:
        raise UnknownNodeError(ident)
    return [ring.successor(ring.space.finger_start(ident, j)) for j in range(ring.space.bits)]


def select_parent_basic(table: FingerTable, root: int) -> int | None:
    """Parent of ``table.owner`` in the basic DAT rooted at ``root``: the
    finger that most closely precedes or equals ``root`` (greedy routing's
    next hop). ``None`` for the root; an empty scan raises."""
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


def build_basic_dat(
    ring: StaticRing,
    key: int,
    tables: dict[int, FingerTable] | None = None,
) -> DatTree:
    """Basic DAT by one finger-table scan per node; ``tables`` may be shared
    across several builds on one ring."""
    tables = ring.all_finger_tables() if tables is None else tables
    root = ring.successor(key)
    parent: dict[int, int] = {}
    for node in ring:
        chosen = select_parent_basic(tables[node], root)
        if chosen is not None:
            parent[node] = chosen
    return DatTree(root=root, parent=parent, key=key)


def build_balanced_dat(
    ring: StaticRing,
    key: int,
    tables: dict[int, FingerTable] | None = None,
    d0: float | Fraction | None = None,
) -> DatTree:
    """Balanced DAT (Algorithm 1) by one limited finger-table scan per node;
    ``d0`` defaults to the exact ``2^b / n``."""
    tables = ring.all_finger_tables() if tables is None else tables
    root = ring.successor(key)
    if d0 is None:
        limiter = FingerLimiter.for_ring(ring.space.bits, len(ring))
    else:
        limiter = FingerLimiter.for_gap(d0)
    parent: dict[int, int] = {}
    for node in ring:
        chosen = select_parent_balanced(tables[node], root, limiter)
        if chosen is not None:
            parent[node] = chosen
    return DatTree(root=root, parent=parent, key=key)


def centralized_routed_loads(
    ring: StaticRing,
    key: int,
    tables: dict[int, FingerTable] | None = None,
) -> dict[int, int]:
    """Per-node sends + receives when every value is finger-routed to the root
    node (its identifier, not the raw key) with no aggregation en route."""
    if tables is None:
        tables = ring.all_finger_tables()
    root = ring.successor(key)
    sent: dict[int, int] = defaultdict(int)
    received: dict[int, int] = defaultdict(int)
    for node in ring:
        if node == root:
            continue
        hops = finger_route(ring, node, root, tables=tables).path
        for src, dst in zip(hops, hops[1:]):
            sent[src] += 1
            received[dst] += 1
    return {node: sent[node] + received[node] for node in ring}


def load_distribution(loads: Mapping[int, float]) -> list[tuple[int, float]]:
    """``(node, load)`` pairs by descending load, ties by node: index = rank."""
    return sorted(loads.items(), key=lambda item: (-item[1], item[0]))


def probe_neighbors(ring: StaticRing, start: int, count: int) -> list[int]:
    """``count`` consecutive nodes clockwise starting at ``successor(start)``."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    count = min(count, len(ring))
    neighbors = [ring.successor(start)]
    while len(neighbors) < count:
        neighbors.append(ring.successor_of_node(neighbors[-1]))
    return neighbors


def probe_split_identifier(
    ring: StaticRing,
    rng: int | np.random.Generator | None = None,
    probe_multiplier: float = 2.0,
) -> int:
    """One probing join (Sec. 3.5 / Sec. 4): draw a point, probe
    ``default_probe_count(n)`` nodes from its successor on, and return the
    midpoint of the largest interval they own. A gap below 2 falls back to
    fresh random draws (only in nearly-full tiny spaces)."""
    generator = ensure_rng(rng)
    space = ring.space
    if len(ring) == 0:
        return int(generator.integers(0, space.size))

    point = int(generator.integers(0, space.size))
    count = default_probe_count(len(ring), probe_multiplier)
    candidates = probe_neighbors(ring, point, count)

    # A lone member's predecessor is itself: it owns the whole space.
    gaps = {
        node: space.cw(ring.predecessor_of_node(node), node) or space.size
        for node in candidates
    }
    best_node = max(candidates, key=gaps.__getitem__)
    gap = gaps[best_node]
    if gap < 2:
        for _ in range(64):
            candidate = int(generator.integers(0, space.size))
            if candidate not in ring:
                return candidate
        raise RuntimeError("identifier space saturated; cannot place new node")

    predecessor = ring.predecessor_of_node(best_node)
    return space.wrap(predecessor + gap // 2)


def run_protocol_oracle(
    ring: StaticRing,
    key: int,
    rounds: int,
    aggregate: Aggregate | str = "sum",
    scheme: str = "balanced",
    values: np.ndarray | None = None,
    interval: float = 1.0,
    stale_after: float = 4.0,
    transport: SimTransport | None = None,
) -> ProtocolRunResult:
    """The slab scenario through real per-node ``DatNodeService`` objects.

    Services start in ascending-ident order at t=0 (first push after one
    interval), finger tables are the converged ring's, ``d0`` is the
    overlay convention ``space.size / n``. O(n) object state — intended for
    n <= a few thousand.
    """
    transport = transport if transport is not None else SimTransport()
    agg = get_aggregate(aggregate) if isinstance(aggregate, str) else aggregate
    space = ring.space
    ids = ring.id_index().ids
    n = len(ids)
    if values is None:
        values = np.ones(n, dtype=np.float64)
    root = ring.successor(key)
    d0 = space.size / n

    services: list[DatNodeService] = []
    hosts: list[StandaloneDatHost] = []
    for i, ident in enumerate(ids.tolist()):
        host = StandaloneDatHost(ident, space, transport)
        table = ring.finger_table(ident)
        service = DatNodeService(
            host,
            finger_provider=lambda table=table: table,
            value_provider=lambda v=float(values[i]): v,
            scheme=scheme,
            d0_provider=(lambda: d0) if scheme == "balanced" else None,
        )
        hosts.append(host)
        services.append(service)
    for service in services:
        service.start_continuous(
            key, root, agg, interval, stale_after=stale_after
        )
    transport.run(until=rounds * interval)

    root_pos = int(np.searchsorted(ids, np.int64(root)))
    estimate = services[root_pos].root_estimate(key)
    pushes = np.array([s._continuous[key].pushes_sent for s in services])
    for service in services:
        service.close()
    for host in hosts:
        host.shutdown()
    sent, received, bytes_sent, bytes_received = transport.stats.load_arrays(ids)
    return ProtocolRunResult(
        n_nodes=n,
        scheme=scheme,
        aggregate=agg,
        key=int(key),
        root=int(root),
        rounds=rounds,
        estimate=estimate,
        pushes_sent=pushes,
        ids=ids,
        sent=sent,
        received=received,
        bytes_sent=bytes_sent,
        bytes_received=bytes_received,
        state_bytes=0,
    )


def _ring(n_nodes: int, bits: int, seed: int, id_strategy: str) -> StaticRing:
    return make_assigner(id_strategy).build_ring(IdSpace(bits), n_nodes, rng=seed)


def scale_point_oracle(
    n_nodes: int,
    bits: int = 32,
    seed: int = 2007,
    id_strategy: str = "probing",
    key: int = 0xA5A5A5,
) -> ScalePoint:
    """``measure_scale_point`` through the object-based reference path."""
    ring = _ring(n_nodes, bits, seed, id_strategy)
    rendezvous = ring.space.wrap(key)
    tables = ring.all_finger_tables()
    basic = build_basic_dat(ring, rendezvous, tables=tables)
    balanced = build_balanced_dat(ring, rendezvous, tables=tables)
    basic_loads = basic.message_loads()
    balanced_loads = balanced.message_loads()
    central_loads = centralized_routed_loads(ring, rendezvous, tables=tables)
    return ScalePoint(
        n_nodes=n_nodes,
        id_strategy=id_strategy,
        seed=seed,
        basic=basic.stats(),
        balanced=balanced.stats(),
        basic_max_load=max(basic_loads.values()),
        balanced_max_load=max(balanced_loads.values()),
        centralized_max_load=max(central_loads.values()),
        basic_imbalance=imbalance_factor(basic_loads),
        balanced_imbalance=imbalance_factor(balanced_loads),
        centralized_imbalance=imbalance_factor(central_loads),
    )


def protocol_point_oracle(
    n_nodes: int,
    bits: int = 32,
    seed: int = 2007,
    id_strategy: str = "probing",
    key: int = 0xA5A5A5,
    scheme: str = "balanced",
    aggregate: str = "sum",
    rounds: int = PROTOCOL_ROUNDS,
    interval: float = 1.0,
) -> ProtocolScalePoint:
    """``measure_protocol_point`` through one ``DatNodeService`` per node."""
    ring = _ring(n_nodes, bits, seed, id_strategy)
    reset_msg_ids()
    result = run_protocol_oracle(
        ring,
        ring.space.wrap(key),
        rounds,
        aggregate=aggregate,
        scheme=scheme,
        interval=interval,
    )
    return ProtocolScalePoint.from_run(result, id_strategy, seed)
