"""The transport interface shared by simulator, UDP, and in-process layers.

The paper's prototype runs identical Chord/DAT layers over a UDP RPC module
and a discrete-event simulator (Sec. 4: "the simulator ... provides the same
interface to the Chord and DAT layers"). :class:`Transport` is that
interface. Because the simulator cannot block, the request/response
primitive is continuation-passing: ``call(message, on_reply, on_timeout)``.
The UDP transport adapts its socket loop to the same shape, so protocol code
is written once.

Handlers: each node registers a ``MessageHandler``. If the handler returns
a :class:`~repro.sim.messages.Message`, the transport delivers it as the
response; returning ``None`` means either "no response" or "response will be
sent later via :meth:`Transport.send`" (the transport matches ``reply_to``
against pending calls in both cases).

Protocol services should not call :meth:`Transport.call` directly — the
session layer in :mod:`repro.net` (``RpcClient`` / ``gather`` / ``Batcher``)
owns request-path policy (deadlines, retries, backoff, batching) and is the
sanctioned way to issue RPCs; ``tests/unit/test_import_graph.py`` fails on a
raw ``transport.call`` outside ``repro.net`` and ``repro.sim``.
:meth:`expect` is the lower-level primitive the net layer builds on: it arms
reply correlation for a message *without* sending it, so a retrying caller
can re-send the same request (same ``msg_id``) under a fresh deadline.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, NamedTuple, Optional

from repro.errors import TransportError
from repro.sim.messages import Message
from repro.telemetry.hotspot import HotspotAccountant

__all__ = ["MessageHandler", "ReplyCallback", "TimeoutCallback", "Transport"]


def _no_cancel() -> None:
    """Canceller for deadline-free calls (``timeout=math.inf``)."""


class _PendingCall(NamedTuple):
    on_reply: "ReplyCallback"
    cancel: Callable[[], None]
    source: int

MessageHandler = Callable[[Message], Optional[Message]]
ReplyCallback = Callable[[Message], None]
TimeoutCallback = Callable[[Message], None]


class Transport(ABC):
    """Abstract message substrate with timers and RPC plumbing."""

    #: Default RPC deadline in (virtual or wall-clock) seconds.
    default_timeout: float = 2.0

    def __init__(self) -> None:
        self.stats = HotspotAccountant()
        self._handlers: dict[int, MessageHandler] = {}
        # Pending request-id -> (on_reply, cancel_timeout, source node)
        self._pending: dict[int, _PendingCall] = {}
        # Secondary index: source node -> {msg_id: None} (an insertion-ordered
        # set). Keeps unregister/cancel_calls proportional to the *node's own*
        # outstanding calls instead of a scan over every pending entry — at
        # 10^5 nodes the full-scan version turned teardown into O(n^2).
        self._pending_by_source: dict[int, dict[int, None]] = {}

    def _pending_add(self, msg_id: int, entry: _PendingCall) -> None:
        self._pending[msg_id] = entry
        self._pending_by_source.setdefault(entry.source, {})[msg_id] = None

    def _pending_pop(self, msg_id: int | None) -> _PendingCall | None:
        entry = self._pending.pop(msg_id, None)
        if entry is not None:
            bucket = self._pending_by_source.get(entry.source)
            if bucket is not None:
                bucket.pop(msg_id, None)
                if not bucket:
                    del self._pending_by_source[entry.source]
        return entry

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def register(self, node: int, handler: MessageHandler) -> None:
        """Attach ``handler`` as node ``node``'s message processor."""
        if node in self._handlers:
            raise TransportError(f"node {node} is already registered")
        self._handlers[node] = handler

    def unregister(self, node: int) -> None:
        """Detach a node (its messages are dropped afterwards).

        Pending calls the node originated are cancelled — their reply and
        timeout continuations never fire — so tearing a node down cannot
        leak timers or resurrect callbacks into a departed service.
        """
        self._handlers.pop(node, None)
        self.cancel_calls(node)

    def is_registered(self, node: int) -> bool:
        """True if the node currently has a handler."""
        return node in self._handlers

    def registered_nodes(self) -> list[int]:
        """Identifiers of all registered nodes."""
        return sorted(self._handlers)

    # ------------------------------------------------------------------ #
    # Abstract substrate operations
    # ------------------------------------------------------------------ #

    @abstractmethod
    def send(self, message: Message) -> None:
        """Deliver ``message`` (eventually) to its destination's handler.

        Undeliverable messages (unknown node, simulated failure) are
        silently dropped — exactly like UDP — and surface as call timeouts.
        """

    @abstractmethod
    def schedule(self, delay: float, callback: Callable[[], None]) -> Callable[[], None]:
        """Run ``callback`` after ``delay`` seconds; returns a canceller."""

    @abstractmethod
    def now(self) -> float:
        """Current time on this substrate (virtual or wall-clock)."""

    # ------------------------------------------------------------------ #
    # RPC on top of send
    # ------------------------------------------------------------------ #

    def expect(
        self,
        message: Message,
        on_reply: ReplyCallback,
        on_timeout: TimeoutCallback | None = None,
        timeout: float | None = None,
    ) -> None:
        """Arm reply correlation for ``message`` without sending it.

        A response whose ``reply_to`` matches ``message.msg_id`` will be
        routed to ``on_reply``; if none arrives within ``timeout`` the
        entry is dropped and ``on_timeout`` (if given) fires with the
        original message. ``timeout=None`` adopts ``default_timeout``;
        ``math.inf`` arms correlation with no deadline at all (no timer is
        scheduled). Re-arming an already-pending ``msg_id`` replaces the
        entry under a fresh deadline — that is how :mod:`repro.net`
        implements same-id retransmission.
        """
        deadline = self.default_timeout if timeout is None else timeout

        def expire() -> None:
            entry = self._pending_pop(message.msg_id)
            if entry is not None and on_timeout is not None:
                on_timeout(message)

        stale = self._pending_pop(message.msg_id)
        if stale is not None:
            stale.cancel()
        cancel = _no_cancel if math.isinf(deadline) else self.schedule(deadline, expire)
        self._pending_add(message.msg_id, _PendingCall(on_reply, cancel, message.source))

    def call(
        self,
        message: Message,
        on_reply: ReplyCallback,
        on_timeout: TimeoutCallback | None = None,
        timeout: float | None = None,
    ) -> None:
        """Send a request and invoke ``on_reply`` with the response.

        If no response arrives within ``timeout`` the request is abandoned
        and ``on_timeout`` (if given) fires with the original message.
        Equivalent to :meth:`expect` followed by :meth:`send`.
        """
        self.expect(message, on_reply, on_timeout, timeout)
        self.send(message)

    def cancel_calls(self, source: int) -> int:
        """Cancel every pending call originated by ``source``.

        Returns the number of calls cancelled; neither their reply nor
        their timeout continuation will fire. Cost is proportional to the
        number of calls *this* source has outstanding (via the
        per-source index), not to the transport-wide pending count.
        """
        bucket = self._pending_by_source.pop(source, None)
        if bucket is None:
            return 0
        for msg_id in bucket:
            entry = self._pending.pop(msg_id, None)
            if entry is not None:
                entry.cancel()
        return len(bucket)

    def resolve(self, reply: Message) -> None:
        """Complete the pending call ``reply`` answers, in place.

        What delivering ``reply`` would do, without sending it: the call's
        deadline is revoked and its ``on_reply`` runs now. For a multi-hop
        conversation that ends at the node that opened it; an unmatched
        reply is dropped, as on the wire.
        """
        entry = self._pending_pop(reply.reply_to)
        if entry is not None:
            entry.cancel()
            entry.on_reply(reply)

    def cancel_all_calls(self) -> int:
        """Cancel every pending call, whoever originated it.

        Transport-wide teardown path: each entry is cancelled exactly the
        way :meth:`unregister` cancels a single node's calls (the deadline
        timer is revoked, neither continuation fires), so closing a
        transport with calls in flight cannot leak timers or resurrect
        callbacks after the substrate is gone. Returns the number of calls
        cancelled.
        """
        count = len(self._pending)
        for msg_id in list(self._pending):
            entry = self._pending.pop(msg_id, None)
            if entry is not None:
                entry.cancel()
        self._pending_by_source.clear()
        return count

    def _dispatch(self, message: Message) -> None:
        """Route an arriving message to a pending call or a node handler.

        Subclasses invoke this at delivery time (after latency, on the
        receive thread, etc.). Message accounting is the subclass's duty —
        it knows the wire size.
        """
        if message.reply_to is not None:
            # Unmatched responses (late after timeout) are dropped, as in UDP.
            self.resolve(message)
            return
        handler = self._handlers.get(message.destination)
        if handler is None:
            return  # dropped: node departed or never existed
        response = handler(message)
        if response is not None:
            if response.reply_to is None:
                raise TransportError(
                    f"handler for {message.kind} returned a response without reply_to"
                )
            self.send(response)

    def pending_calls(self) -> int:
        """Number of outstanding RPCs (useful in tests)."""
        return len(self._pending)
