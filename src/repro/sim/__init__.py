"""Discrete-event simulation engine and transports (paper Sec. 4, Fig. 6).

The prototype runs the same Chord/DAT layers over two interchangeable
substrates: a UDP RPC module and a heap-based discrete-event simulator.
This package reproduces that design:

* :class:`~repro.sim.engine.SimulationEngine` — deterministic heap-ordered
  event queue with a virtual clock.
* :class:`~repro.sim.transport.Transport` — the interface both substrates
  implement (fire-and-forget ``send`` plus request/response ``call``).
* :class:`~repro.sim.simnet.SimTransport` — DES-backed delivery with
  pluggable latency models and optional loss.
* :class:`~repro.sim.udprpc.UdpRpcTransport` — real UDP sockets on
  localhost with timeouts and retries (the paper's 512-instance cluster
  setup, scaled to the test machine).

Per-node message accounting lives on every transport as
``transport.stats``, a :class:`repro.telemetry.hotspot.HotspotAccountant`.

Request-path policy (deadlines, retries, fan-out, batching) is layered on
top of :class:`~repro.sim.transport.Transport` by :mod:`repro.net` —
protocol services talk to that session layer, not to ``call`` directly.
"""

from repro.sim.engine import Event, SimulationEngine, TickHook
from repro.sim.latency import (
    ConstantLatency,
    LatencyModel,
    LanWanLatency,
)
from repro.sim.messages import Message, encode_message, decode_message
from repro.sim.transport import Transport, MessageHandler
from repro.sim.simnet import SimTransport
from repro.sim.udprpc import UdpRpcTransport
from repro.sim.tracing import get_logger, trace

__all__ = [
    "Event",
    "TickHook",
    "SimulationEngine",
    "LatencyModel",
    "ConstantLatency",
    "LanWanLatency",
    "Message",
    "encode_message",
    "decode_message",
    "Transport",
    "MessageHandler",
    "SimTransport",
    "UdpRpcTransport",
    "get_logger",
    "trace",
]
