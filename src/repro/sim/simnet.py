"""Discrete-event simulated network transport (paper Sec. 4).

Messages are delivered through the :class:`~repro.sim.engine.SimulationEngine`
after a latency drawn from a pluggable model; optional loss and per-node
failure injection support the churn experiments. The paper validated its
protocols on networks of up to 8192 nodes; this substrate goes well past
that — the scalar per-message path is comfortable to ~10^4 nodes, and the
batched slab path (:meth:`SimTransport.send_batch`, driven by
:mod:`repro.core.slab`) runs full protocol rounds at 10^5+ nodes
(see ``docs/PERFORMANCE.md``, "Protocol-path scaling").

Each drop counts once in ``messages_dropped_total`` (as in ``sim.udprpc``)
under ``reason``: ``failed`` (an end crashed, also in flight), ``loss`` or
``no_handler`` (a request to an unregistered node); batches count in bulk.

Loss injected here surfaces to protocol code as RPC timeouts; the session
layer in :mod:`repro.net` decides what happens next (give up, or retransmit
under a :class:`~repro.net.RetryPolicy`). Its retries re-send the same
``msg_id``, so the message/byte accounting below counts every attempt —
exactly what a wire capture would show.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import telemetry
from repro.sim.engine import SimulationEngine, TickHook
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.messages import Message, MessageBatch, take_rows
from repro.sim.transport import Transport
from repro.util.rng import ensure_rng
from repro.util.validation import check_probability

__all__ = ["SimTransport"]


def _delay_groups(
    index: np.ndarray, delays: np.ndarray
) -> list[tuple[float, np.ndarray]]:
    """``(delay, rows of index)`` per distinct delay, ascending.

    Each group keeps its rows in ``index`` order. One stable sort and a
    split wherever the sorted delay changes, so the cost does not grow
    with the number of distinct delays (a jittered model has about one per
    row).
    """
    order = np.argsort(delays, kind="stable")
    ordered = delays[order]
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    starts = [0, *cuts.tolist()]
    return list(zip(ordered[starts].tolist(), np.split(index[order], cuts)))


def _count_dropped(rows: int, reason: str) -> None:
    """Count ``rows`` dropped batch rows under ``reason``, if there are any."""
    if rows:
        telemetry.count("messages_dropped_total", float(rows), reason=reason)


class SimTransport(Transport):
    """Transport backed by a discrete-event engine.

    Parameters
    ----------
    engine:
        Shared simulation engine (several transports may share one for
        co-simulated subsystems; typically there is exactly one).
    latency:
        One-way delay model; defaults to a 1 ms constant (the paper's LAN).
    loss_rate:
        Probability of silently dropping any message (UDP semantics).
    rng:
        Seed or generator for loss sampling.
    hotspot_name:
        Name this transport's counters register under in the telemetry
        runtime. Experiments that build several transports against one
        runtime (the dynamics churn-rate sweep) give each its own name so
        rolling sample series don't interleave. In-run load sampling
        follows the telemetry config's ``sample_window``.
    """

    def __init__(
        self,
        engine: SimulationEngine | None = None,
        latency: LatencyModel | None = None,
        loss_rate: float = 0.0,
        rng: int | np.random.Generator | None = None,
        hotspot_name: str = "transport",
    ) -> None:
        super().__init__()
        check_probability("loss_rate", loss_rate)
        self.engine = engine if engine is not None else SimulationEngine()
        self.latency = latency if latency is not None else ConstantLatency(0.001)
        self.loss_rate = float(loss_rate)
        self._rng = ensure_rng(rng)
        self._failed: set[int] = set()
        self.load_sampler: TickHook | None = None
        tel = telemetry.active()
        if tel is not None:
            # The engine's virtual clock becomes the telemetry time source,
            # and the transport's counters double as the "transport"
            # hotspot accountant — one accounting path, two consumers.
            tel.bind_clock(self.now)
            tel.register_hotspots(hotspot_name, self.stats)
            window = tel.config.sample_window
            if window > 0:
                # Periodic in-run sampling: every window boundary the
                # engine crosses appends a LoadSample to stats.series,
                # building the rolling imbalance-factor time series.
                self.load_sampler = self.engine.add_tick_hook(window, self.stats.sample)

    def now(self) -> float:
        # The engine's clock attribute, not its ``now`` property: this is
        # read on every push and every timer.
        return self.engine._now

    # ------------------------------------------------------------------ #
    # Failure injection (churn experiments)
    # ------------------------------------------------------------------ #

    def fail(self, node: int) -> None:
        """Crash ``node``: all its traffic is dropped until :meth:`recover`."""
        self._failed.add(node)

    def recover(self, node: int) -> None:
        """Lift a failure injected by :meth:`fail`."""
        self._failed.discard(node)

    # ------------------------------------------------------------------ #
    # Transport implementation
    # ------------------------------------------------------------------ #

    def send(self, message: Message) -> None:
        size = message.encoded_size()
        self.stats.record_send(message.source, size, kind=message.kind)
        telemetry.count("messages_sent_total", kind=message.kind)
        if message.source in self._failed or message.destination in self._failed:
            telemetry.count("messages_dropped_total", reason="failed")
            return
        if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            telemetry.count("messages_dropped_total", reason="loss")
            return

        def deliver() -> None:
            if message.destination in self._failed:
                telemetry.count("messages_dropped_total", reason="failed")
                return
            if message.reply_to is None and message.destination not in self._handlers:
                telemetry.count("messages_dropped_total", reason="no_handler")
                return
            self.stats.record_receive(message.destination, size)
            telemetry.count("messages_received_total", kind=message.kind)
            self._dispatch(message)

        delay = self.latency.sample(message.source, message.destination)
        self.engine.schedule(delay, deliver)

    # ------------------------------------------------------------------ #
    # Batched slab path
    # ------------------------------------------------------------------ #

    def send_batch(
        self,
        batch: MessageBatch,
        deliver: Callable[[MessageBatch, np.ndarray | None], None],
    ) -> None:
        """Send every row of ``batch`` in one shot (the slab hot path).

        Semantically equivalent to calling :meth:`send` on each
        materialized row — identical accounting (every attempt is counted
        at the sender, survivors at the receiver), identical failure/loss
        filtering *in the same order* (failure check first, then one loss
        draw per failure-survivor, consuming the RNG stream exactly as the
        scalar path would), identical latency sampling — but the per-row
        cost is a few vector ops, and delivery is scheduled as one engine
        event per distinct delay instead of one per message. A plain round
        — no failed node, no loss, a :class:`ConstantLatency` — does no
        per-row work here at all: nothing is filtered, no delay vector is
        drawn, and the whole batch is one delivery group.

        Delivery bypasses per-node handler registration: surviving rows are
        handed back to ``deliver(batch, rows)`` at arrival time — ascending
        row indices, or ``None`` when every row arrives — after
        per-destination receive accounting and a re-check of the failure
        set (a destination crashed mid-flight drops its rows, just as the
        scalar path drops its message). Batch endpoints (the slab protocol
        runner) own their own routing, so responses, timers, and the
        pending-call table are not involved.
        """
        n = len(batch)
        if n == 0:
            return
        self.stats.record_send_bulk(batch.sources, batch.sizes, kind=batch.kind)
        telemetry.count("messages_sent_total", float(n), kind=batch.kind)
        survivors: np.ndarray | None = None  # every row
        if self._failed:
            failed = np.fromiter(self._failed, dtype=np.int64, count=len(self._failed))
            survivors = np.flatnonzero(
                ~(np.isin(batch.sources, failed) | np.isin(batch.destinations, failed))
            )
            _count_dropped(n - len(survivors), "failed")
        if self.loss_rate > 0:
            # One draw per failure-survivor, in row order — the exact RNG
            # consumption of the equivalent scalar send sequence.
            if survivors is None:
                survivors = np.arange(n)
            drawn = len(survivors)
            survivors = survivors[self._rng.random(drawn) >= self.loss_rate]
            _count_dropped(drawn - len(survivors), "loss")
        if survivors is not None and len(survivors) == 0:
            return
        groups: list[tuple[float, np.ndarray | None]]
        # The exact type: a subclass may override how delays are drawn.
        if type(self.latency) is ConstantLatency:
            groups = [(self.latency.delay, survivors)]
        else:
            index = np.arange(n) if survivors is None else survivors
            delays = self.latency.sample_array(
                take_rows(batch.sources, index), take_rows(batch.destinations, index)
            )
            # A uniform delay is one delivery group, found without sorting.
            if delays.min() == delays.max():
                groups = [(float(delays[0]), survivors)]
            else:
                groups = _delay_groups(index, delays)
        for delay, rows in groups:
            self.engine.schedule(
                delay, lambda rows=rows: self._deliver_batch(batch, rows, deliver)
            )

    def _deliver_batch(
        self,
        batch: MessageBatch,
        rows: np.ndarray | None,
        deliver: Callable[[MessageBatch, np.ndarray | None], None],
    ) -> None:
        if self._failed:
            if rows is None:
                rows = np.arange(len(batch))
            failed = np.fromiter(self._failed, dtype=np.int64, count=len(self._failed))
            sent = len(rows)
            rows = rows[~np.isin(batch.destinations[rows], failed)]
            _count_dropped(sent - len(rows), "failed")
            if len(rows) == 0:
                return
        self.stats.record_receive_bulk(
            take_rows(batch.destinations, rows), take_rows(batch.sizes, rows)
        )
        arrived = len(batch) if rows is None else len(rows)
        telemetry.count("messages_received_total", float(arrived), kind=batch.kind)
        deliver(batch, rows)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Callable[[], None]:
        event = self.engine.schedule(delay, callback)
        return event.cancel

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Convenience passthrough to the engine's run loop."""
        return self.engine.run(until=until, max_events=max_events)
