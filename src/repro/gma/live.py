"""LiveGridMonitor — the full P-GMA stack on the live protocol.

:class:`~repro.gma.monitor.GridMonitor` evaluates against the static
converged model (deterministic, fast — right for the figure experiments).
This facade runs the identical stack **end-to-end over real messages** on
the discrete-event simulator: protocol Chord nodes, routed MAAN
registration and queries, broadcast-gather on-demand aggregation, and
continuous monitoring — the configuration the paper's prototype calls the
"simulator-based setup" (Sec. 5.1).

The Chord nodes and their DAT services are a
:class:`~repro.core.overlay.DatOverlay`: it boots the ring, answers the
continuous-monitoring calls and, on :meth:`LiveGridMonitor.close`, removes
every node after the MAAN, broadcast and gather layers have detached.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from repro import telemetry
from repro.chord.broadcast import BroadcastService
from repro.chord.hashing import sha1_id
from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.chord.node import ChordConfig
from repro.core.gathercast import GatherCollector
from repro.core.overlay import DatOverlay
from repro.errors import MonitoringError
from repro.gma.monitor import MonitorConfig
from repro.gma.producer import Producer
from repro.maan.attrs import AttributeSchema, Resource
from repro.maan.query import QueryResult, RangeQuery
from repro.maan.service import MaanNodeService
from repro.sim.latency import ConstantLatency
from repro.sim.simnet import SimTransport

__all__ = ["LiveGridMonitor"]


class LiveGridMonitor:
    """A protocol-backed P-GMA deployment on the DES.

    Parameters
    ----------
    config:
        Same knobs as the static :class:`GridMonitor`.
    schemas:
        Declared MAAN attributes.
    latency:
        One-way message delay (default 2 ms LAN-ish).
    """

    def __init__(
        self,
        config: MonitorConfig,
        schemas: Mapping[str, AttributeSchema],
        latency: float = 0.002,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self.config = config
        self.schemas = dict(schemas)
        self.space = IdSpace(config.bits)
        self.transport = SimTransport(latency=ConstantLatency(latency))
        self.chord_config = ChordConfig(
            stabilize_interval=0.25, fix_fingers_interval=0.05
        )
        self.overlay = DatOverlay(
            self.space,
            self.transport,
            self.chord_config,
            scheme=config.dat_scheme,
            value_provider=self._read_local,
        )
        self.network = self.overlay.network
        self.dat = self.overlay.services

        seed = rng if rng is not None else config.seed
        idents = make_assigner(config.id_strategy).build_ring(
            self.space, config.n_nodes, rng=seed
        )
        self.overlay.boot(idents, spacing=0.5)

        self.producers: dict[int, Producer] = {}
        self.maan: dict[int, MaanNodeService] = {}
        self.broadcasts: dict[int, BroadcastService] = {}
        self.collectors: dict[int, GatherCollector] = {}
        for ident, node in self.network.nodes.items():
            self.maan[ident] = MaanNodeService(node, self.schemas)
            broadcast = BroadcastService(node, finger_provider=node.finger_table)
            self.broadcasts[ident] = broadcast
            self.collectors[ident] = GatherCollector(self.dat[ident], broadcast)

        self._clock = 0.0  # monitoring time fed to sensors

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    def run(self, duration: float) -> None:
        """Advance virtual time."""
        self.overlay.run(duration)

    def close(self) -> None:
        """Tear down every layer and node (idempotent).

        Detaches every collector / broadcast / MAAN service from its host,
        then closes the overlay, which removes each DAT service and Chord
        node — no upcall, timer or pending RPC outlives the monitor.
        """
        for collector in self.collectors.values():
            collector.close()
        self.collectors.clear()
        # Broadcast services were missing from this chain: their `bcast`
        # upcall registrations outlived the monitor.
        for broadcast in self.broadcasts.values():
            broadcast.close()
        self.broadcasts.clear()
        for maan in self.maan.values():
            maan.close()
        self.maan.clear()
        self.overlay.close()

    def __enter__(self) -> "LiveGridMonitor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def set_monitor_time(self, t: float) -> None:
        """Set the timestamp producers read their sensors at."""
        self._clock = t

    def _read_local(self, ident: int) -> float:
        producer = self.producers.get(ident)
        if producer is None:
            return 0.0
        return producer.read(self._default_attribute(), self._clock)

    def _default_attribute(self) -> str:
        return self._monitored_attribute

    _monitored_attribute: str = "cpu-usage"

    # ------------------------------------------------------------------ #
    # Producers / registration
    # ------------------------------------------------------------------ #

    def attach_producer(self, producer: Producer) -> None:
        """Bind a producer to its live node."""
        if producer.node not in self.network.nodes:
            raise MonitoringError(f"node {producer.node} is not in the overlay")
        self.producers[producer.node] = producer

    def register_all(self, t: float = 0.0, settle: float = 10.0) -> int:
        """Route every producer's registration; returns stored record count."""
        stored = {"count": 0}
        for ident, producer in self.producers.items():
            resource = producer.snapshot(t)
            self.maan[ident].register(
                resource, on_done=lambda n: stored.__setitem__("count", stored["count"] + n)
            )
        self.run(settle)
        return stored["count"]

    # ------------------------------------------------------------------ #
    # Discovery (routed queries)
    # ------------------------------------------------------------------ #

    def search(
        self,
        attribute: str,
        low: float,
        high: float,
        origin: int | None = None,
        settle: float = 10.0,
    ) -> QueryResult:
        """Routed range query; blocks virtual time until resolved."""
        source = origin if origin is not None else next(iter(self.maan))
        results: list[QueryResult] = []
        with telemetry.span(
            "gma.live.search", node=source, attribute=attribute
        ) as sp:
            self.maan[source].range_query(
                RangeQuery(attribute=attribute, low=low, high=high), results.append
            )
            self.run(settle)
            if not results:
                raise MonitoringError("query did not resolve in time")
            if sp is not telemetry.NULL_SPAN:
                sp.set(
                    hops=results[0].lookup_hops,
                    n_resources=len(results[0].resources),
                )
            return results[0]

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #

    def rendezvous_key(self, attribute: str) -> int:
        """SHA-1 rendezvous key of an attribute (Sec. 2.3)."""
        return sha1_id(attribute, self.space)

    def aggregate(
        self,
        attribute: str,
        aggregate: str = "avg",
        t: float = 0.0,
        waves: int | None = None,
        wave_interval: float = 0.1,
    ) -> Any:
        """One membership-free on-demand round over the live overlay."""
        self._monitored_attribute = attribute
        self.set_monitor_time(t)
        key = self.rendezvous_key(attribute)
        root = self.overlay.current_root(key)
        from repro.util.bits import ceil_log2

        n_waves = (
            waves
            if waves is not None
            else ceil_log2(max(len(self.network.nodes), 2)) + 4
        )
        results: list[Any] = []
        with telemetry.span(
            "gma.live.aggregate",
            attribute=attribute,
            key=key,
            root=root,
            waves=n_waves,
        ):
            self.collectors[root].collect(
                key,
                aggregate,
                results.append,
                waves=n_waves,
                wave_interval=wave_interval,
            )
            self.run((n_waves + 4) * wave_interval)
        if not results:
            raise MonitoringError("aggregation round did not complete in time")
        return results[0]

    def start_monitoring(
        self, attribute: str, aggregate: str = "sum", interval: float = 0.5
    ) -> int:
        """Start continuous aggregation of ``attribute`` on every node."""
        self._monitored_attribute = attribute
        return self.overlay.start_continuous_everywhere(
            self.rendezvous_key(attribute), aggregate, interval
        )

    def read_monitoring(self, attribute: str) -> Any:
        """Latest continuous estimate at the attribute's current root."""
        return self.overlay.root_estimate(self.rendezvous_key(attribute))

    def actual_aggregate(self, attribute: str, aggregate: str, t: float) -> Any:
        """Ground truth straight from the producers."""
        from repro.core.aggregates import get_aggregate

        agg = get_aggregate(aggregate)
        return agg.aggregate(
            producer.read(attribute, t) for producer in self.producers.values()
        )
