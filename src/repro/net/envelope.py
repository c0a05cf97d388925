"""Typed request/reply envelopes: kind registry, dispatch, error replies.

Before this layer, every host re-implemented the same three fragments of
RPC plumbing by hand: a ``dict`` of message-kind upcalls with ad-hoc
dispatch, ``reply_to`` correlation sprinkled through service code, and no
uniform way to say "that request failed". This module implements each of
them once:

* :class:`UpcallRegistry` — the message-kind registry hosts expose as
  ``host.upcalls``. Services still assign handlers dict-style
  (``host.upcalls["agg_push"] = fn``); hosts dispatch with one call.
* :func:`error_reply` / :func:`is_error_reply` — the shared error
  envelope (kind ``net_error``): any handler can answer a request with a
  structured failure instead of silence, and
  :class:`~repro.net.client.RpcClient` routes it to the caller's
  ``on_error`` continuation.
* :class:`DeferredResponder` — at-most-once execution for requests whose
  reply is produced later (a subtree gather, a multi-hop walk). It
  deduplicates retransmitted requests while the work is in flight and
  replays the cached reply when a duplicate arrives after completion, so
  retrying callers never trigger the work twice.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Iterator, MutableMapping, Optional

from repro import telemetry
from repro.sim.messages import Message
from repro.sim.transport import Transport
from repro.telemetry.spans import SpanBase

__all__ = [
    "Upcall",
    "UpcallRegistry",
    "ERROR_KIND",
    "error_reply",
    "is_error_reply",
    "DeferredResponder",
]

Upcall = Callable[[Message], Optional[Message]]

#: Message kind of the shared error envelope. It is always a response
#: (``reply_to`` set); the payload carries ``error`` (a short code) and
#: ``detail`` (human-readable context).
ERROR_KIND = "net_error"


def error_reply(request: Message, error: str, detail: str = "") -> Message:
    """Build the standard error response to ``request``."""
    return request.response(kind=ERROR_KIND, error=error, detail=detail)


def is_error_reply(message: Message) -> bool:
    """True when ``message`` is a :data:`ERROR_KIND` error envelope."""
    return message.kind == ERROR_KIND and message.is_response


class UpcallRegistry(MutableMapping[str, Upcall]):
    """Message-kind registry with one shared dispatch implementation.

    A drop-in replacement for the plain ``dict[str, Upcall]`` hosts used
    to hold: services keep assigning ``registry["agg_push"] = handler``.
    Hosts call :meth:`dispatch` instead of open-coding the lookup; the
    registry owns the unknown-kind policy (drop and count, like the UDP
    prototype) and leaves handler exceptions to propagate — a handler bug
    should surface loudly in the simulator, exactly as before.
    """

    def __init__(self) -> None:
        self._handlers: dict[str, Upcall] = {}

    # -- MutableMapping surface -------------------------------------------

    def __getitem__(self, kind: str) -> Upcall:
        return self._handlers[kind]

    def __setitem__(self, kind: str, handler: Upcall) -> None:
        self._handlers[kind] = handler

    def __delitem__(self, kind: str) -> None:
        del self._handlers[kind]

    def __iter__(self) -> Iterator[str]:
        return iter(self._handlers)

    def __len__(self) -> int:
        return len(self._handlers)

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, message: Message) -> Message | None:
        """Route ``message`` to its kind's handler.

        Unknown kinds are dropped (``None``) and counted as
        ``messages_dropped_total{reason="no_handler"}`` — UDP semantics:
        the caller's deadline, if any, surfaces the mismatch as a timeout.
        """
        handler = self._handlers.get(message.kind)
        if handler is None:
            telemetry.count("messages_dropped_total", reason="no_handler")
            return None
        return handler(message)

    def knows(self, kind: str) -> bool:
        """True when a handler is registered for ``kind``."""
        return kind in self._handlers


class DeferredResponder:
    """At-most-once deferred replies for retried requests.

    A node answering a request only after asynchronous work (gathering
    from its subtree, walking successors) must tolerate the caller's
    retransmissions: a duplicate request while the work is running must
    not start it again, and a duplicate after completion must re-send the
    cached reply (the first one was evidently lost). Both behaviors live
    here so no service carries its own pending-request dict.

    Completed replies are cached in insertion order and evicted beyond
    ``capacity`` — late duplicates of ancient rounds simply go
    unanswered, like any lost datagram.
    """

    def __init__(self, transport: Transport, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.transport = transport
        self.capacity = capacity
        self._inflight: set[Hashable] = set()
        self._done: OrderedDict[Hashable, Message] = OrderedDict()
        self._spans: dict[Hashable, SpanBase] = {}

    def begin(self, key: Hashable, request: Message) -> bool:
        """Claim ``key`` for execution.

        Returns ``True`` when the caller should run the work. Returns
        ``False`` for duplicates: in-flight duplicates are dropped (the
        eventual :meth:`complete` answers every retransmission, because
        retries reuse the request's ``msg_id``), and already-completed
        duplicates get the cached reply re-sent immediately.
        """
        if key in self._inflight:
            return False
        cached = self._done.get(key)
        if cached is not None:
            self.transport.send(cached)
            return False
        self._inflight.add(key)
        return True

    def adopt(self, key: Hashable, span: SpanBase) -> SpanBase:
        """Attach the span covering ``key``'s deferred work.

        :meth:`complete` threads the span's trace context into the reply
        — deferred replies rejoin their originating trace — and finishes
        it. Returns the span for chaining.
        """
        self._spans[key] = span
        return span

    def complete(self, key: Hashable, response: Message) -> None:
        """Send ``response`` and cache it for future duplicates.

        An adopted span's trace context is stamped onto the reply before
        it is cached, so replays of the cached reply carry it too.
        """
        self._inflight.discard(key)
        span = self._spans.pop(key, None)
        if span is not None:
            span.propagate(response)
            span.finish()
        self._done[key] = response
        while len(self._done) > self.capacity:
            self._done.popitem(last=False)
        self.transport.send(response)
