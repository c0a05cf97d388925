"""Fig. 7/8-grade statistics at 10^5-10^6 nodes (the ROADMAP scale push).

The paper's scalability claims (Sec. 3, Figs. 7-8) are asymptotic; the
figure sweeps top out at 8192 nodes. This module measures the same
statistics — max/average branching, height, per-scheme load imbalance —
one to two orders of magnitude further, entirely on the array-native
pipeline: array-backed rings (:class:`~repro.chord.ringarray.RingArray`),
the matrix-free O(n) tree kernel, and
:class:`~repro.chord.fastbuild.DatTreeArrays` statistics that never
materialize per-node Python objects. Fig. 8
(:mod:`repro.experiments.fig8_load_balance`) reads its loads from the same
pipeline.

The object-based references in ``tests/oracles.py`` measure the same points
through per-node finger-table scans, route-by-route centralized loads and
one ``DatNodeService`` per node. They return *equal* :class:`ScalePoint` values
(floats bit-identical) and equal :meth:`ProtocolScalePoint.exactness_key`s,
which is the exactness gate ``benchmarks/bench_scale.py`` enforces at every
size where they are affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.baselines.centralized import fast_centralized_load_array
from repro.chord.fastbuild import fast_tree_arrays
from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.core.analysis import imbalance_factor
from repro.core.builder import DatScheme
from repro.core.slab import ProtocolRunResult, run_protocol_slab
from repro.core.tree import TreeStats
from repro.sim.messages import reset_msg_ids

__all__ = [
    "SCALE_SIZES",
    "PROTOCOL_SIZES",
    "PROTOCOL_ROUNDS",
    "ScalePoint",
    "ProtocolScalePoint",
    "measure_scale_point",
    "measure_protocol_point",
]

#: The scale sweep's x-axis: 2x steps from 16k to 262k nodes.
SCALE_SIZES = [16384, 65536, 131072, 262144]

#: The protocol sweep's x-axis (live message exchange, not just statistics).
PROTOCOL_SIZES = [16384, 65536, 131072]

#: Default push intervals per protocol point — comfortably past the
#: balanced tree height at these sizes, so the root estimate converges.
PROTOCOL_ROUNDS = 30


@dataclass(frozen=True)
class ScalePoint:
    """Fig. 7 + Fig. 8 statistics for one (size, strategy, seed) ring.

    Instances compare equal across the array path and the object reference
    — including the float fields, which both compute with the same IEEE
    operation sequence (one integer-exact division per mean, one ratio).
    """

    n_nodes: int
    id_strategy: str
    seed: int
    #: Sec. 5.2 tree metrics per scheme (Fig. 7).
    basic: TreeStats
    balanced: TreeStats
    #: Max per-node load and max/mean imbalance per scheme (Fig. 8).
    basic_max_load: int
    balanced_max_load: int
    centralized_max_load: int
    basic_imbalance: float
    balanced_imbalance: float
    centralized_imbalance: float

    def as_row(self) -> dict[str, float | int | str]:
        """Flat dict for tables and the benchmark's JSON output."""
        return {
            "n": self.n_nodes,
            "ids": self.id_strategy,
            "basic_max_branching": self.basic.max_branching,
            "basic_avg_branching": self.basic.avg_branching,
            "basic_height": self.basic.height,
            "balanced_max_branching": self.balanced.max_branching,
            "balanced_avg_branching": self.balanced.avg_branching,
            "balanced_height": self.balanced.height,
            "centralized_max_load": self.centralized_max_load,
            "basic_imbalance": self.basic_imbalance,
            "balanced_imbalance": self.balanced_imbalance,
            "centralized_imbalance": self.centralized_imbalance,
        }


def measure_scale_point(
    n_nodes: int,
    bits: int = 32,
    seed: int = 2007,
    id_strategy: str = "probing",
    key: int = 0xA5A5A5,
) -> ScalePoint:
    """Measure one ring's Fig. 7/8 statistics on the array-native pipeline."""
    space = IdSpace(bits)
    ring = make_assigner(id_strategy).build_ring(space, n_nodes, rng=seed)
    rendezvous = space.wrap(key)
    basic = fast_tree_arrays(ring, rendezvous, scheme=DatScheme.BASIC)
    balanced = fast_tree_arrays(ring, rendezvous, scheme=DatScheme.BALANCED)
    basic_loads = basic.message_load_array()
    balanced_loads = balanced.message_load_array()
    central_loads = fast_centralized_load_array(ring, rendezvous)
    return ScalePoint(
        n_nodes=n_nodes,
        id_strategy=id_strategy,
        seed=seed,
        basic=basic.stats(),
        balanced=balanced.stats(),
        basic_max_load=int(basic_loads.max()),
        balanced_max_load=int(balanced_loads.max()),
        centralized_max_load=int(central_loads.max()),
        basic_imbalance=imbalance_factor(basic_loads),
        balanced_imbalance=imbalance_factor(balanced_loads),
        centralized_imbalance=imbalance_factor(central_loads),
    )


@dataclass(frozen=True)
class ProtocolScalePoint:
    """One *live-protocol* run at scale: real pushes through the transport.

    Unlike :class:`ScalePoint` (converged analytical statistics), every
    number here comes from simulated message exchange — ``rounds``
    continuous-push intervals with per-message wire accounting. The slab
    and the per-node service reference agree exactly on every field except
    ``state_bytes_per_node`` (the slab's array footprint; the reference's
    object webs are not meaningfully comparable and report 0.0).
    """

    n_nodes: int
    id_strategy: str
    seed: int
    scheme: str
    aggregate: str
    rounds: int
    estimate: Any
    expected: Any
    converged: bool
    messages_total: int
    bytes_total: int
    pushes_total: int
    max_load: int
    imbalance: float
    state_bytes_per_node: float

    def as_row(self) -> dict[str, float | int | str]:
        """Flat dict for tables and the benchmark's JSON output."""
        return {
            "n": self.n_nodes,
            "ids": self.id_strategy,
            "scheme": self.scheme,
            "aggregate": self.aggregate,
            "rounds": self.rounds,
            "estimate": self.estimate,
            "converged": self.converged,
            "messages_total": self.messages_total,
            "bytes_total": self.bytes_total,
            "pushes_total": self.pushes_total,
            "max_load": self.max_load,
            "imbalance": self.imbalance,
            "state_bytes_per_node": self.state_bytes_per_node,
        }

    @classmethod
    def from_run(
        cls, result: ProtocolRunResult, id_strategy: str, seed: int
    ) -> "ProtocolScalePoint":
        """The point one run measured, checked against its aggregate of n ones."""
        n_nodes = result.n_nodes
        loads = result.sent + result.received
        agg, lifted = result.aggregate, result.aggregate.lift_columns(np.ones(n_nodes))
        cols = [u.reduce(c, keepdims=True) for (_, u), c in zip(agg.columns, lifted)]
        expected = agg.finalize(agg.row(cols, 0))
        return cls(
            n_nodes=n_nodes,
            id_strategy=id_strategy,
            seed=seed,
            scheme=result.scheme,
            aggregate=agg.name,
            rounds=result.rounds,
            estimate=result.estimate,
            expected=expected,
            converged=result.estimate == expected,
            messages_total=result.messages_total,
            bytes_total=result.bytes_total,
            pushes_total=result.pushes_total,
            max_load=int(loads.max()),
            imbalance=imbalance_factor(loads),
            state_bytes_per_node=(
                result.state_bytes / n_nodes if result.state_bytes else 0.0
            ),
        )

    def exactness_key(self) -> tuple[Any, ...]:
        """The fields both modes must agree on bit-for-bit."""
        return (
            self.estimate,
            self.messages_total,
            self.bytes_total,
            self.pushes_total,
            self.max_load,
            self.imbalance,
        )


def measure_protocol_point(
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
    """Run one live continuous-push protocol point on the slab path.

    Local values are all 1.0, so the converged SUM equals the membership
    size — a self-evident correctness check at any scale. The message-id
    sequence is reset at the start of each point, so a reference run of the
    same point produces byte-identical wire traffic.
    """
    space = IdSpace(bits)
    ring = make_assigner(id_strategy).build_ring(space, n_nodes, rng=seed)
    reset_msg_ids()
    result = run_protocol_slab(
        ring,
        space.wrap(key),
        rounds,
        aggregate=aggregate,
        scheme=scheme,
        interval=interval,
    )
    return ProtocolScalePoint.from_run(result, id_strategy, seed)

