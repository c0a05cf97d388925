"""The GridMonitor facade — a full P-GMA deployment in one object.

Wires together an overlay (identifier assignment + converged ring), the
MAAN index, per-node producers, and DAT aggregation. A consumer (paper
Sec. 2.1) searches through :attr:`GridMonitor.index` and watches global
status through :meth:`GridMonitor.aggregate`, whose synchronous round,
:meth:`~repro.core.tree.DatTree.fold`, the accuracy experiment (Fig. 9)
shares.

This facade evaluates against the **static converged model** — no messages
are exchanged, so the :mod:`repro.net` session layer is not involved. Its
live counterpart :class:`~repro.gma.live.LiveGridMonitor` runs the same
stack over real RPCs and exposes the net layer's knobs (``retry_policy``,
``push_batch_window``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro import telemetry
from repro.chord.hashing import sha1_id
from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.core.aggregates import get_aggregate
from repro.core.builder import DatScheme, DatTreeBuilder
from repro.core.tree import DatTree
from repro.errors import MonitoringError
from repro.gma.producer import Producer
from repro.maan.attrs import AttributeSchema, Resource
from repro.maan.network import MaanNetwork

__all__ = ["MonitorConfig", "AggregateOutcome", "GridMonitor", "require_producers"]


def require_producers(nodes: Iterable[int], producers: Mapping[int, Producer]) -> None:
    """Raise :class:`MonitoringError` unless every node has a producer: a
    node without one has no reading, and a round over it would be wrong."""
    missing = [node for node in nodes if node not in producers]
    if missing:
        raise MonitoringError(
            f"{len(missing)} overlay nodes lack producers, e.g. {missing[:5]}"
        )


@dataclass(frozen=True)
class MonitorConfig:
    """Deployment parameters for a GridMonitor.

    Parameters
    ----------
    n_nodes:
        Overlay size.
    bits:
        Identifier width.
    id_strategy:
        ``"random"`` / ``"uniform"`` / ``"probing"`` (Sec. 3.5).
    dat_scheme:
        ``"basic"`` or ``"balanced"`` tree construction.
    seed:
        Reproducibility seed for identifier assignment.
    """

    n_nodes: int = 64
    bits: int = 32
    id_strategy: str = "probing"
    dat_scheme: str = "balanced"
    seed: int | None = None


@dataclass
class AggregateOutcome:
    """Result of one global aggregation round."""

    attribute: str
    value: Any
    tree: DatTree
    #: sends + receives per node for this round.
    message_loads: dict[int, int] = field(default_factory=dict)

    @property
    def root(self) -> int:
        """The root node that produced the global value."""
        return self.tree.root

    @property
    def total_messages(self) -> int:
        """Tree-edge messages for the round (``n - 1``)."""
        return self.tree.n_nodes - 1


class GridMonitor:
    """A complete P-GMA stack over one simulated overlay.

    Parameters
    ----------
    config:
        Deployment parameters.
    schemas:
        Declared resource attributes for the MAAN index.
    """

    def __init__(
        self, config: MonitorConfig, schemas: Mapping[str, AttributeSchema]
    ) -> None:
        self.config = config
        self.space = IdSpace(config.bits)
        assigner = make_assigner(config.id_strategy)
        self.ring: StaticRing = assigner.build_ring(
            self.space, config.n_nodes, rng=config.seed
        )
        self.index = MaanNetwork(self.ring, schemas)
        self.dat_builder = DatTreeBuilder(self.ring, scheme=DatScheme(config.dat_scheme))
        self.producers: dict[int, Producer] = {}
        self._registered: dict[int, Resource] = {}

    # ------------------------------------------------------------------ #
    # Producers
    # ------------------------------------------------------------------ #

    def attach_producer(self, producer: Producer) -> None:
        """Bind a producer to its overlay node."""
        if producer.node not in self.ring:
            raise MonitoringError(f"node {producer.node} is not in the overlay")
        self.producers[producer.node] = producer

    def register_all(self, t: float = 0.0) -> int:
        """(Re-)register every producer's record at time ``t`` in MAAN;
        returns total hops.

        MAAN stores one record per attribute value, and a dynamic value
        moves around the ring as it changes: a node's previously registered
        placements are dropped before its new record is routed.
        """
        hops = 0
        for node, producer in self.producers.items():
            previous = self._registered.get(node)
            if previous is not None:
                self.index.deregister(previous)
            record = producer.snapshot(t)
            hops += self.index.register(record, origin=node)
            self._registered[node] = record
        return hops

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #

    def rendezvous_key(self, attribute: str) -> int:
        """The DAT rendezvous key for an attribute: SHA-1 of its name
        (paper Sec. 2.3)."""
        return sha1_id(attribute, self.space)

    def aggregate(
        self, attribute: str, aggregate: str = "avg", t: float = 0.0, **agg_kwargs: Any
    ) -> AggregateOutcome:
        """One synchronous aggregation round over the attribute's DAT.

        Every producer's reading at time ``t`` is lifted, merged bottom-up
        along the tree, and finalized at the root — the exact dataflow of
        the protocol service, evaluated synchronously so experiments get
        deterministic per-round numbers.
        """
        require_producers(self.ring, self.producers)
        agg = get_aggregate(aggregate, **agg_kwargs)
        with telemetry.span(
            "gma.aggregate", attribute=attribute, aggregate=agg.name, t=t
        ) as sp:
            tree = self.dat_builder.build(self.rendezvous_key(attribute))
            value = tree.fold(agg, lambda node: self.producers[node].read(attribute, t))
            outcome = AggregateOutcome(
                attribute=attribute,
                value=value,
                tree=tree,
                message_loads=tree.message_loads(),
            )
            if sp is not telemetry.NULL_SPAN:
                sp.set(
                    key=tree.key,
                    root=tree.root,
                    n_nodes=tree.n_nodes,
                    height=tree.height,
                )
                telemetry.count("gma_aggregations_total", attribute=attribute)
            return outcome

    def actual_aggregate(
        self, attribute: str, aggregate: str = "avg", t: float = 0.0, **agg_kwargs: Any
    ) -> Any:
        """Ground truth: the aggregate computed directly over all readings."""
        require_producers(self.ring, self.producers)
        agg = get_aggregate(aggregate, **agg_kwargs)
        return agg.aggregate(
            self.producers[node].read(attribute, t) for node in self.ring
        )
