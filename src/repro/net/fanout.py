"""Fan-out primitives: parallel gather rounds and same-destination batching.

Two traffic shapes dominate the aggregation protocols:

* **on-demand collection** — a node asks each child for a partial result
  and continues when every child has answered (or given up). That is
  :func:`gather`: N concurrent :meth:`~repro.net.client.RpcClient.call`
  invocations sharing one completion continuation.
* **continuous push** — every interval each node pushes its state one hop
  up the tree. Pushes to the same parent inside one flush window can ride
  in a single datagram; that is :class:`Batcher`, the continuous-path
  hot-path optimisation the ROADMAP's production-scale goal calls for.
  Batching is strictly opt-in: a window of ``0`` degenerates to immediate
  sends so the default message economics are untouched.

Batched messages travel as encoded frames inside ``net_batch`` envelopes,
each under the datagram budget; the receiving host unwraps them (see
:func:`install_batch_unwrapper`) and dispatches the inner messages, in
order, exactly as if they had arrived one by one.
"""

from __future__ import annotations

from typing import Callable, MutableMapping

from repro import telemetry
from repro.net.client import RpcClient
from repro.net.envelope import Upcall
from repro.net.retry import RetryPolicy
from repro.sim.messages import MAX_DATAGRAM, Message
from repro.sim.transport import Transport

__all__ = ["gather", "Batcher", "BATCH_KIND", "install_batch_unwrapper"]

GatherDone = Callable[[dict[int, Message], list[Message]], None]

#: Message kind of the batch envelope produced by :class:`Batcher`.
BATCH_KIND = "net_batch"


def gather(
    client: RpcClient,
    messages: list[Message],
    on_complete: GatherDone,
    *,
    policy: RetryPolicy | None = None,
) -> None:
    """Issue every request concurrently; continue when all have settled.

    ``on_complete(replies, failed)`` fires exactly once, when each request
    has either produced a reply (``replies[destination]``) or exhausted its
    policy (collected in ``failed``). Under an unbounded policy a lost
    reply never settles — the round simply stays open, which is the
    historical hang-on-loss semantics of the DAT on-demand path.

    An empty request list completes synchronously with empty results.
    """
    span = telemetry.span("net.gather", fanout=len(messages))
    if not messages:
        span.finish()
        on_complete({}, [])
        return

    outstanding = len(messages)
    replies: dict[int, Message] = {}
    failed: list[Message] = []

    def settle() -> None:
        nonlocal outstanding
        outstanding -= 1
        if outstanding == 0:
            span.set(replied=len(replies), failed=len(failed))
            span.finish()
            on_complete(replies, failed)

    def make_reply(dest: int) -> Callable[[Message], None]:
        def on_reply(reply: Message) -> None:
            replies[dest] = reply
            settle()

        return on_reply

    def make_fail(request: Message) -> Callable[[Message], None]:
        def on_fail(_message: Message) -> None:
            failed.append(request)
            settle()

        return on_fail

    for message in messages:
        client.call(
            message,
            make_reply(message.destination),
            on_timeout=make_fail(message),
            policy=policy,
        )
    # The round's span outlives this frame (it finishes when the last call
    # settles); leave the nesting stack so later unrelated spans on this
    # thread don't nest under it. Each request already captured the span's
    # trace context while it was current.
    span.detach()


class Batcher:
    """Coalesce same-destination sends inside a flush window.

    Each enqueued message joins a per-destination queue; the first message
    for a destination arms one flush timer ``window`` transport-seconds
    out, and the flush wraps everything queued for that destination into
    :data:`BATCH_KIND` envelopes, in order, each under the datagram budget
    (one, unless the queue outgrows it). With ``window=0`` the batcher is a
    passthrough — every message is sent immediately, unchanged, so
    enabling the code path costs nothing until a window is configured.

    Batch occupancy (messages per flushed envelope) is observed on the
    ``net_batch_occupancy`` histogram.
    """

    def __init__(self, transport: Transport, window: float = 0.0) -> None:
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self.transport = transport
        self.window = window
        self._queues: dict[int, list[Message]] = {}
        self._closed = False

    def enqueue(self, message: Message) -> None:
        """Queue ``message`` for its destination (or send it right away).

        Trace context is captured per enqueued message, at enqueue time —
        each push in a flushed envelope keeps its own originating context
        (the envelope itself carries none), so batched pushes fan back out
        into their individual traces at the unwrapper.
        """
        telemetry.propagate_current(message)
        if self.window <= 0.0 or self._closed:
            self.transport.send(message)
            return
        queue = self._queues.get(message.destination)
        if queue is not None:
            queue.append(message)
            return
        self._queues[message.destination] = [message]
        self.transport.schedule(
            self.window, lambda: self._flush(message.destination)
        )

    def _flush(self, destination: int) -> None:
        queue = self._queues.pop(destination, None)
        if not queue:
            return
        empty = Message(BATCH_KIND, queue[0].source, destination, {"messages": []}, msg_id=0)
        budget, size = MAX_DATAGRAM - empty.encoded_size(), 0
        frames: list[Message] = []
        for message in queue:
            frame = 4 + message.encoded_size()  # a u32 length, then the message
            if frames and size + frame > budget:
                self._send(frames)
                frames, size = [], 0
            frames.append(message)
            size += frame
        self._send(frames)

    def _send(self, frames: list[Message]) -> None:
        telemetry.observe("net_batch_occupancy", len(frames))
        first = frames[0]
        self.transport.send(first if len(frames) == 1 else Message(
            BATCH_KIND, first.source, first.destination, {"messages": frames}
        ))

    def flush_all(self) -> None:
        """Flush every queue now (the armed timers become no-ops)."""
        for destination in list(self._queues):
            self._flush(destination)

    def close(self) -> None:
        """Flush outstanding queues and fall back to immediate sends."""
        self.flush_all()
        self._closed = True


def install_batch_unwrapper(
    upcalls: MutableMapping[str, Upcall],
    dispatch: Callable[[Message], None],
) -> None:
    """Register the receiver-side :data:`BATCH_KIND` handler.

    ``dispatch`` is invoked for each inner message in arrival order —
    hosts pass their own delivery function so unwrapped messages take the
    exact path an unbatched message would have taken.
    """

    def unwrap(envelope: Message) -> None:
        for message in envelope.payload["messages"]:
            dispatch(message)
        return None

    upcalls[BATCH_KIND] = unwrap
