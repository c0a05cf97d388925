"""Heap-based discrete-event simulation engine (paper Sec. 4).

"A heap-based event queue is used to insert and fire those events in a
chronological order." — this module is that engine, with two additions a
reproduction needs: deterministic tie-breaking (events at equal timestamps
fire in insertion order, so runs are bit-identical across platforms) and
cancellable events (protocol timers are rescheduled constantly).

The queue is the standard-library recipe: :mod:`heapq` over ``(time,
sequence, event)`` entries, ordered in C on the tuple. :meth:`Event.cancel`
unlinks the event logically: the live count drops at once (``pending`` is
exact and O(1)) and the event lets go of its callback, but its entry stays
as a tombstone until it surfaces or until tombstones outnumber live events
by :data:`TOMBSTONE_SLACK`, when the list is filtered and re-heapified.
Churn replay cancels a retransmission timer for nearly every delivered
message: compaction bounds the list at ``2 * pending + TOMBSTONE_SLACK``
entries, and releasing the callback keeps a cancelled timeout from pinning
its message and session graph while the tombstone waits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable

from repro import telemetry
from repro.errors import SimulationError

__all__ = ["Event", "EventQueue", "TickHook", "SimulationEngine", "TOMBSTONE_SLACK"]

#: Tombstones tolerated beyond the live count before the queue compacts.
TOMBSTONE_SLACK = 64


def _released() -> None:
    """Stands in for the callback of an event that will never fire."""


@dataclass(slots=True, eq=False)
class Event:
    """One scheduled callback.

    Fire order is (time, sequence) — the sequence number breaks ties in
    insertion order, making simulations deterministic. ``slots=True``
    trims per-event memory by roughly half: at 10^5 scheduled deliveries
    the event queue itself is a measurable share of peak RSS.
    """

    time: float
    sequence: int
    callback: Callable[[], Any]
    cancelled: bool = False
    #: The queue that holds the event while it is live; ``None`` once it
    #: fired or was unlinked. Maintained by :class:`EventQueue` only.
    _heap: EventQueue | None = field(default=None, repr=False)

    def cancel(self) -> None:
        """Cancel the event: unlink it from its queue and drop its callback.

        Safe to call at any point — before the event fires (the queue's
        live count drops immediately), after it fired, or twice (no-ops).
        The ``cancelled`` flag stays set so callers can still observe the
        state.
        """
        self.cancelled = True
        heap = self._heap
        if heap is not None:
            heap.remove(self)


class EventQueue:
    """Min-queue of :class:`Event` in (time, sequence) order, on :mod:`heapq`.

    An entry whose event no longer points back at the queue is a
    tombstone: :meth:`remove` leaves it in place, :meth:`peek` and
    :meth:`pop` discard it when it surfaces. ``len(queue)`` is exactly the
    live event count; ``peak`` is the largest it has been.

    ``lazy_deleted`` counts events that surfaced live with their
    ``cancelled`` flag already set — possible only for flags written
    directly instead of via :meth:`Event.cancel`, so the counter is a
    telemetry canary for code bypassing the unlink (it stays 0 in a
    healthy run).
    """

    __slots__ = ("_entries", "_live", "peak", "lazy_deleted")

    def __init__(self) -> None:
        self._entries: list[tuple[float, int, Event]] = []
        self._live = 0
        self.peak = 0
        self.lazy_deleted = 0

    def __len__(self) -> int:
        return self._live

    def push(self, event: Event) -> None:
        """Insert ``event`` (O(log n))."""
        event._heap = self
        heappush(self._entries, (event.time, event.sequence, event))
        self._live = live = self._live + 1
        if live > self.peak:
            self.peak = live

    def peek(self) -> Event | None:
        """The earliest event that will fire, or ``None``; not removed."""
        entries = self._entries
        while entries:
            event = entries[0][2]
            if event._heap is self and not event.cancelled:
                return event
            # A tombstone, or (the canary) a flag written directly.
            heappop(entries)
            if self.remove(event):
                self.lazy_deleted += 1
        return None

    def pop(self, horizon: float = inf) -> Event | None:
        """Remove and return the earliest event that will fire.

        Returns ``None`` when nothing is left or the earliest event is due
        after ``horizon`` (it then stays queued).
        """
        event = self.peek()
        if event is None or event.time > horizon:
            return None
        heappop(self._entries)
        self._unlink(event)
        return event

    def remove(self, event: Event) -> bool:
        """Unlink ``event`` wherever it sits (O(1) amortized).

        The event drops its callback; its entry becomes a tombstone.
        Returns False when the event is not in this queue (already fired,
        already removed, or never scheduled).
        """
        if event._heap is not self:
            return False
        event.callback = _released
        self._unlink(event)
        return True

    def clear(self) -> None:
        """Drop every event, unlinking each."""
        for _time, _sequence, event in self._entries:
            if event._heap is self:
                event._heap = None
                event.callback = _released
        self._entries.clear()
        self._live = 0

    def _unlink(self, event: Event) -> None:
        """Take ``event`` out of the live count; compact if tombstones win."""
        event._heap = None
        self._live = live = self._live - 1
        if len(self._entries) > 2 * live + TOMBSTONE_SLACK:
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone and re-heapify, in place."""
        entries = self._entries
        entries[:] = [entry for entry in entries if entry[2]._heap is self]
        heapify(entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EventQueue(n={self._live})"


@dataclass
class TickHook:
    """A periodic callback fired at fixed virtual-time window boundaries.

    Unlike a self-rescheduling :class:`Event`, a tick hook lives outside
    the heap: it never keeps ``run()`` from draining, and it fires *before*
    the clock crosses each ``interval`` boundary, so periodic observers
    (telemetry load sampling) see state as of the window edge. The
    callback receives the boundary time.
    """

    interval: float
    next_due: float
    callback: Callable[[float], Any] = field(compare=False)
    cancelled: bool = False

    def cancel(self) -> None:
        """Stop firing (O(1); the engine prunes lazily)."""
        self.cancelled = True


class SimulationEngine:
    """A virtual clock plus a queue of pending events.

    Usage::

        from repro.sim.tracing import trace

        engine = SimulationEngine()
        engine.schedule(1.5, lambda: trace("fires at t=1.5"))
        engine.run()
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap = EventQueue()
        #: The last sequence number handed out (the first event gets 0).
        self._sequence = -1
        self._events_fired = 0
        self._running = False
        self._hooks: list[TickHook] = []

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events: the queue's live
        count, a stored integer (no scan past tombstones)."""
        return len(self._heap)

    @property
    def events_fired(self) -> int:
        """Total events executed so far."""
        return self._events_fired

    @property
    def heap_peak(self) -> int:
        """Largest number of simultaneously pending (live) events so far.

        Tombstones of cancelled events are not counted. Published as the
        ``sim_heap_peak`` telemetry gauge after each :meth:`run`.
        """
        return self._heap.peak

    @property
    def lazy_deleted(self) -> int:
        """Events that surfaced in the queue already flagged cancelled.

        Stays 0 when every cancellation goes through :meth:`Event.cancel`
        (which unlinks at once); a nonzero value means something set the
        ``cancelled`` flag directly. Published as the
        ``sim_heap_lazy_deleted`` telemetry gauge after each :meth:`run`.
        """
        return self._heap.lazy_deleted

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        # Negated so that NaN, which compares false both ways, is refused.
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        self._sequence = sequence = self._sequence + 1
        event = Event(time, sequence, callback)
        self._heap.push(event)
        return event

    def schedule(self, delay: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` after ``delay`` units of virtual time.

        The per-message path: builds the event and pushes it onto the
        queue's heap here, as :meth:`schedule_at` and
        :meth:`EventQueue.push` would, without the two calls.
        """
        if not delay >= 0:  # NaN included
            raise SimulationError(f"delay must be non-negative, got {delay}")
        time = self._now + delay
        queue = self._heap
        self._sequence = sequence = self._sequence + 1
        event = Event(time, sequence, callback, False, queue)
        heappush(queue._entries, (time, sequence, event))
        queue._live = live = queue._live + 1
        if live > queue.peak:
            queue.peak = live
        return event

    def add_tick_hook(
        self, interval: float, callback: Callable[[float], Any]
    ) -> TickHook:
        """Fire ``callback(boundary_time)`` every ``interval`` of virtual time.

        The hook fires whenever the clock is about to cross a window
        boundary — before the event that crosses it, and at the final
        clock bump of ``run(until=...)`` — so every elapsed window gets
        exactly one call even across idle stretches. Cancel via the
        returned handle.
        """
        if not interval > 0:  # NaN included
            raise SimulationError(f"interval must be positive, got {interval}")
        hook = TickHook(
            interval=interval, next_due=self._now + interval, callback=callback
        )
        self._hooks.append(hook)
        return hook

    def _fire_hooks(self, up_to: float) -> None:
        """Fire every hook due at or before ``up_to``, one call per window."""
        prune = False
        for hook in self._hooks:
            if hook.cancelled:
                prune = True
                continue
            while hook.next_due <= up_to and not hook.cancelled:
                at = hook.next_due
                hook.next_due = at + hook.interval
                hook.callback(at)
        if prune:
            self._hooks = [h for h in self._hooks if not h.cancelled]

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Fire the next event. Returns False when the queue is exhausted."""
        return self._fire_next(inf)

    def _fire_next(self, horizon: float) -> bool:
        """Fire the next event if it is due by ``horizon``, tick hooks first.

        A live head is popped and unlinked here, as :meth:`EventQueue.pop`
        would; a tombstone or canary head goes through ``pop``, which
        discards it.
        """
        queue = self._heap
        entries = queue._entries
        if not entries:
            return False
        time, _sequence, event = entries[0]
        if event._heap is queue and not event.cancelled:
            if time > horizon:
                return False
            heappop(entries)
            event._heap = None
            queue._live = live = queue._live - 1
            if len(entries) > 2 * live + TOMBSTONE_SLACK:
                queue._compact()
        else:
            popped = queue.pop(horizon)
            if popped is None:
                return False
            event = popped
            time = event.time
        if self._hooks:
            self._fire_hooks(time)
        self._now = time
        self._events_fired += 1
        event.callback()
        return True

    def run(
        self, until: float | None = None, max_events: int | None = None
    ) -> float:
        """Drain events, optionally bounded by virtual time or event count.

        Parameters
        ----------
        until:
            Stop once the next event would fire after this time; the clock
            advances exactly to ``until`` (events at ``t == until`` fire).
        max_events:
            Safety valve against runaway event loops.

        Returns
        -------
        float
            The virtual time when the run stopped.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        queue = self._heap
        horizon = inf if until is None else until
        fired = 0
        try:
            while max_events is None or fired < max_events:
                if not self._fire_next(horizon):
                    break
                fired += 1
            else:
                # Budget spent: an error if an event is still due.
                head = queue.peek()
                if head is not None and head.time <= horizon:
                    raise SimulationError(
                        f"run() exceeded max_events={max_events} "
                        f"(possible event loop at t={self._now})"
                    )
            if until is not None and self._now < until:
                if self._hooks:
                    self._fire_hooks(until)
                self._now = until
            return self._now
        finally:
            self._running = False
            telemetry.gauge_set("sim_heap_peak", float(queue.peak))
            telemetry.gauge_set("sim_heap_lazy_deleted", float(queue.lazy_deleted))

    def clear(self) -> None:
        """Drop all pending events (the clock is left where it is)."""
        self._heap.clear()
