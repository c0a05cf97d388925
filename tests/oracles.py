"""Object-path references the array-native paths are proved against.

Nothing under ``src/`` runs these: they are the slow, obviously-correct
implementations that the property tests and ``benchmarks/bench_scale.py``
compare the slab protocol runner and the array-native scale statistics
with, bit for bit.

* :func:`run_protocol_oracle` — one real ``DatNodeService`` per node, the
  reference of :func:`repro.core.slab.run_protocol_slab`;
* :func:`scale_point_oracle` — :func:`repro.experiments.scale.measure_scale_point`
  through the object builders and the routed centralized baseline;
* :func:`protocol_point_oracle` —
  :func:`repro.experiments.scale.measure_protocol_point` through
  :func:`run_protocol_oracle`.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.centralized import centralized_routed_loads
from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.core.analysis import imbalance_factor
from repro.core.builder import build_balanced_dat, build_basic_dat
from repro.core.service import DatNodeService, StandaloneDatHost
from repro.core.slab import ProtocolRunResult
from repro.experiments.scale import PROTOCOL_ROUNDS, ProtocolScalePoint, ScalePoint
from repro.sim.messages import reset_msg_ids
from repro.sim.simnet import SimTransport


def run_protocol_oracle(
    ring: StaticRing,
    key: int,
    rounds: int,
    aggregate: str = "sum",
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
            key, root, aggregate, interval, stale_after=stale_after
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
        aggregate=aggregate,
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
