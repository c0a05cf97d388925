"""Zero-latency in-process transport: the fake the net-layer tests substitute.

Delivery is synchronous: ``send`` invokes the destination handler before
returning. Timers wait in the simulator's
:class:`~repro.sim.engine.EventQueue` and fire only from :meth:`advance`,
so tests control time explicitly without a full simulation engine.
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.sim.engine import Event, EventQueue
from repro.sim.messages import Message
from repro.sim.transport import Transport


class InprocTransport(Transport):
    """Synchronous direct-call transport with a manual clock."""

    def __init__(self) -> None:
        super().__init__()
        self._time = 0.0
        self._timers = EventQueue()
        self._timer_seq = itertools.count()

    def now(self) -> float:
        return self._time

    def send(self, message: Message) -> None:
        size = message.encoded_size()
        self.stats.record_send(message.source, size)
        if message.is_response:
            # Responses are dispatched even if the caller node's handler is
            # gone; the pending-call table decides.
            self.stats.record_receive(message.destination, size)
            self._dispatch(message)
            return
        if message.destination not in self._handlers:
            return
        self.stats.record_receive(message.destination, size)
        self._dispatch(message)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Callable[[], None]:
        event = Event(self._time + delay, next(self._timer_seq), callback)
        self._timers.push(event)
        return event.cancel

    def advance(self, delta: float) -> None:
        """Move the manual clock forward, firing due timers in order."""
        target = self._time + delta
        while (event := self._timers.pop(target)) is not None:
            self._time = event.time
            event.callback()
        self._time = target
