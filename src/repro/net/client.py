"""Per-node RPC client: one retry/deadline implementation for every layer.

:class:`RpcClient` wraps a transport for one node. Protocol services never
touch ``Transport.call`` (``tests/unit/test_import_graph.py`` holds them to
it); they hold a client and issue :meth:`RpcClient.call`, which layers a
:class:`~repro.net.retry.RetryPolicy` over the transport's pending-reply
table:

* with the default policy (one attempt, transport deadline) the call is
  byte-for-byte what ``Transport.call`` did — one scheduled expiry, one
  send — so seeded simulations replay identically across the migration;
* with a retrying policy, expired attempts are re-sent with the **same**
  ``msg_id`` (UDP retransmission semantics): a reply to any attempt
  completes the call, and receivers can deduplicate by request id via
  :class:`~repro.net.envelope.DeferredResponder`;
* backoff delays come from the policy's deterministic-jitter schedule,
  drawn from a per-node generator seeded with the node identifier; it is
  created on the first jittered retry, so a client that never retries
  holds none.

Multi-hop conversations (recursive Chord lookups, MAAN successor walks)
fit the same shape: the request threads its own ``msg_id`` through the
forwarding path as ``payload["token"]`` and the terminal node answers
with ``reply_to=token`` — correlation is still the transport's pending
table, deadline and retries are still the policy. Pass ``send=`` to
short-circuit the first hop locally (a node routing through itself must
not pay a network delay it never paid before). Nor does the answer travel:
a conversation the first hop can finish is finished before any call (an
owned Chord key), and a terminal hop that is the originator completes
the call with ``Transport.resolve`` instead of mailing itself.

Every call is observable with zero service-side instrumentation:
``rpc_calls_total`` / ``rpc_retries_total`` / ``rpc_timeouts_total`` /
``rpc_errors_total`` / ``rpc_replies_total`` counters, labeled by message
kind, land in :mod:`repro.telemetry` whenever a runtime is installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import telemetry
from repro.net.envelope import is_error_reply
from repro.net.retry import DEFAULT_POLICY, RetryPolicy
from repro.sim.messages import Message
from repro.sim.transport import Transport
from repro.util.rng import ensure_rng

__all__ = ["RpcClient", "Peer"]

ReplyFn = Callable[[Message], None]
FailFn = Callable[[Message], None]
SendFn = Callable[[Message], None]


class RpcClient:
    """The RPC surface of one node over a shared transport.

    Parameters
    ----------
    transport:
        Message substrate (simulated, UDP, or in-process).
    ident:
        The owning node's identifier — stamped as ``source`` on messages
        built via :meth:`request` and used to seed the jitter stream.
    policy:
        Default :class:`RetryPolicy` for calls that don't pass their own.
    rng:
        Seed or generator for backoff jitter; defaults to ``ident``, so
        retry schedules are deterministic per-node and independent of
        every other random stream. A seed becomes a generator on the first
        jittered retry (creating one draws nothing, so the stream is the
        same as if it were made here).
    """

    def __init__(
        self,
        transport: Transport,
        ident: int,
        policy: RetryPolicy | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self.transport = transport
        self.ident = ident
        self.policy = policy if policy is not None else DEFAULT_POLICY
        self._seed = rng if rng is not None else ident
        self._rng: np.random.Generator | None = None

    # ------------------------------------------------------------------ #
    # Message construction
    # ------------------------------------------------------------------ #

    def request(self, kind: str, destination: int, **payload: object) -> Message:
        """A request message from this node (source stamped)."""
        return Message(
            kind=kind, source=self.ident, destination=destination, payload=dict(payload)
        )

    def peer(self, ident: int) -> "Peer":
        """A :class:`Peer` handle bound to one destination."""
        return Peer(client=self, ident=ident)

    # ------------------------------------------------------------------ #
    # Wire operations
    # ------------------------------------------------------------------ #

    def send(self, message: Message) -> None:
        """Fire-and-forget passthrough (no reply expected).

        With tracing enabled, the current span's trace context is threaded
        into the payload (unless the caller already attached one) — every
        service-level send is traceable with zero service-side plumbing.
        """
        telemetry.propagate_current(message)
        self.transport.send(message)

    def call(
        self,
        message: Message,
        on_reply: ReplyFn,
        on_timeout: FailFn | None = None,
        *,
        on_error: FailFn | None = None,
        policy: RetryPolicy | None = None,
        send: SendFn | None = None,
    ) -> None:
        """Issue ``message`` as an RPC under ``policy`` (or the default).

        ``on_reply(reply)`` fires with the correlated response;
        ``on_timeout(message)`` fires once, after the final attempt's
        deadline expires. A structured :data:`~repro.net.envelope.ERROR_KIND`
        reply is routed to ``on_error`` (falling back to ``on_timeout``)
        instead of ``on_reply``. ``send`` overrides the wire operation for
        the first and every retried attempt — pass a local dispatch
        function when the first hop is this node itself.
        """
        active = policy if policy is not None else self.policy
        send_fn: SendFn = send if send is not None else self.transport.send
        attempt = 1
        telemetry.count("rpc_calls_total", kind=message.kind)
        # Trace context is attached once, before the first attempt: retried
        # attempts re-send the *same* message object (same msg_id, same
        # context), so retransmissions stay in their originating trace.
        telemetry.propagate_current(message)

        def deliver(reply: Message) -> None:
            if is_error_reply(reply):
                telemetry.count("rpc_errors_total", kind=message.kind)
                fail = on_error if on_error is not None else on_timeout
                if fail is not None:
                    fail(reply)
                return
            telemetry.count("rpc_replies_total", kind=message.kind)
            on_reply(reply)

        def expire(_request: Message) -> None:
            nonlocal attempt
            if attempt >= active.max_attempts:
                telemetry.count("rpc_timeouts_total", kind=message.kind)
                if on_timeout is not None:
                    on_timeout(message)
                return
            attempt += 1
            telemetry.count("rpc_retries_total", kind=message.kind)
            if self._rng is None and active.jitter > 0.0:
                self._rng = ensure_rng(self._seed)
            delay = active.backoff(attempt - 1, self._rng)
            if delay > 0:
                self.transport.schedule(delay, attempt_once)
            else:
                attempt_once()

        def attempt_once() -> None:
            self.transport.expect(
                message,
                deliver,
                on_timeout=expire,
                timeout=active.attempt_timeout(self.transport.default_timeout),
            )
            send_fn(message)

        attempt_once()


@dataclass(frozen=True)
class Peer:
    """One remote node as seen through a client (destination pre-bound)."""

    client: RpcClient
    ident: int

    def request(self, kind: str, **payload: object) -> Message:
        """A request message addressed to this peer."""
        return self.client.request(kind, self.ident, **payload)

    def call(
        self,
        kind: str,
        payload: dict[str, object],
        on_reply: ReplyFn,
        on_timeout: FailFn | None = None,
        *,
        policy: RetryPolicy | None = None,
    ) -> Message:
        """RPC to this peer (see :meth:`RpcClient.call`); returns the request."""
        message = Message(
            kind=kind, source=self.client.ident, destination=self.ident, payload=payload
        )
        self.client.call(message, on_reply, on_timeout, policy=policy)
        return message

    def send(self, kind: str, **payload: object) -> None:
        """Fire-and-forget message to this peer."""
        self.client.send(self.request(kind, **payload))
