"""Dynamic Chord protocol node (Stoica et al.; paper Sec. 3.1/4).

:class:`ChordProtocolNode` implements the join / stabilize / notify /
fix-fingers protocol over any :class:`~repro.sim.transport.Transport`
(discrete-event simulator or real UDP — the same code runs on both, which
is the prototype property the paper stresses). Because transports cannot
block, every remote interaction is continuation-passing.

Message kinds
-------------
``lookup``            recursive find_successor; forwarded greedily, the
                      terminal node replies directly to the origin. An
                      origin that owns the key answers itself in place and
                      sends nothing.
``get_neighbors``     returns predecessor + successor list (stabilization).
``notify``            Chord's notify: "I might be your predecessor".
``ping``              liveness check.
``probe_join``        identifier-probing join support (Sec. 4): the
                      receiving node inspects a window of its successor
                      list, picks the largest owned interval, and returns
                      the split midpoint as the designated identifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro import telemetry
from repro.chord.fingers import FingerTable
from repro.chord.idspace import IdSpace
from repro.net import RetryPolicy, RpcClient, UpcallRegistry
from repro.util.bits import cyclic_increment
from repro.sim.messages import Message
from repro.sim.transport import Transport

__all__ = ["ChordConfig", "ChordProtocolNode"]


@dataclass(frozen=True)
class ChordConfig:
    """Protocol timing and sizing knobs.

    The defaults suit the discrete-event simulator (virtual seconds); UDP
    runs use the same values as wall-clock seconds, matching the prototype's
    periodic finger stabilization.
    """

    stabilize_interval: float = 0.5
    fix_fingers_interval: float = 0.25
    check_predecessor_interval: float = 1.0
    successor_list_size: int = 8
    rpc_timeout: float = 1.0
    #: Max forwarding hops before a lookup is abandoned (loop guard).
    max_lookup_hops: int = 64
    #: Attempts per maintenance RPC (ping / get_neighbors). ``1`` — the
    #: default — reproduces the historical single-attempt behavior exactly;
    #: raise it (with a backoff) on lossy substrates.
    rpc_max_attempts: int = 1
    #: Base backoff between maintenance-RPC retries (seconds).
    rpc_backoff: float = 0.0


class ChordProtocolNode:
    """One live Chord node bound to a transport.

    Parameters
    ----------
    ident:
        This node's identifier.
    space:
        Identifier space shared by the overlay.
    transport:
        Message substrate; the node registers itself on construction.
    config:
        Protocol tuning.
    """

    def __init__(
        self,
        ident: int,
        space: IdSpace,
        transport: Transport,
        config: ChordConfig | None = None,
    ) -> None:
        space.validate(ident)
        self.ident = ident
        self.space = space
        self.transport = transport
        self.config = config or ChordConfig()
        self.predecessor: int | None = None
        self.successor: int = ident  # a lone node is its own successor
        self.successor_list: list[int] = []
        self.fingers: list[int | None] = [None] * space.bits
        self.fingers[0] = ident
        self._next_finger = 0
        self._running = False
        #: Set by leave() / crash(); a departed node never restarts.
        self._departed = False
        #: Pending timer per periodic loop (and the join retry): a re-arm
        #: overwrites its fired predecessor, so the table stays at <= 4.
        self._timer_cancels: dict[str, Callable[[], None]] = {}
        #: RPC surface: every remote interaction goes through the session
        #: layer, which owns deadlines, retries, and per-call telemetry.
        self.net = RpcClient(transport, ident, policy=RetryPolicy(
            timeout=self.config.rpc_timeout,
            max_attempts=self.config.rpc_max_attempts,
            backoff_base=self.config.rpc_backoff,
        ))
        #: One deadline for a whole recursive lookup, however many hops.
        self._lookup_policy = RetryPolicy(
            timeout=self.config.rpc_timeout * self.config.max_lookup_hops / 8
        )
        #: Extra upcall hooks: message kind -> handler(message) -> reply|None.
        #: The DAT service layers register their kinds here (paper Fig. 6's
        #: 'upcall' routine).
        self.upcalls = UpcallRegistry()
        transport.register(ident, self._handle)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def create(self) -> None:
        """Bootstrap a brand-new ring containing only this node."""
        self.predecessor = None
        self.successor = self.ident
        self.successor_list = [self.ident]
        self._start_maintenance()

    def join(
        self,
        bootstrap: int,
        on_joined: Callable[[], None] | None = None,
        on_failure: Callable[[], None] | None = None,
        max_attempts: int = 8,
    ) -> None:
        """Join the ring known to ``bootstrap`` (standard Chord join).

        The node looks up the successor of its own identifier through the
        bootstrap node, adopts it, and lets stabilization wire the rest.
        A lookup that times out (bootstrap busy, routes through a node that
        just died) is retried up to ``max_attempts`` times — an inert
        half-joined node would otherwise strand forever under churn.
        ``on_failure`` fires only after the final attempt.
        """
        self.predecessor = None

        def adopted(successor: int, _path: list[int]) -> None:
            if self._departed:
                return
            if successor != self.ident:
                self.successor = successor
                self.fingers[0] = successor
            self._start_maintenance()
            if on_joined is not None:
                on_joined()

        def attempt(remaining: int) -> None:
            def failed(_key: int) -> None:
                if self._departed:
                    return
                if remaining > 1:
                    # Tracked with the maintenance timers, so leave() and
                    # crash() cancel a retry that has not fired yet.
                    self._timer_cancels["join_retry"] = self.transport.schedule(
                        self.config.rpc_timeout, lambda: attempt(remaining - 1)
                    )
                else:
                    # Give up on clean join but still start maintenance:
                    # adopting the bootstrap as a blind successor lets
                    # stabilization finish the job if it comes back.
                    self.successor = bootstrap
                    self.fingers[0] = bootstrap
                    self._start_maintenance()
                    if on_failure is not None:
                        on_failure()

            self._start_lookup(self.ident, bootstrap, adopted, failed)

        attempt(max_attempts)

    def leave(self) -> None:
        """Graceful departure: hand the predecessor/successor to each other.

        Chord's stabilization would repair the ring anyway; the explicit
        handoff just accelerates convergence (and mirrors the prototype's
        clean shutdown path).
        """
        self._departed = True
        self.stop_maintenance()
        if self.successor != self.ident and self.predecessor is not None:
            self.net.send(
                Message(
                    kind="leave_notice",
                    source=self.ident,
                    destination=self.predecessor,
                    payload={"new_successor": self.successor},
                )
            )
            self.net.send(
                Message(
                    kind="leave_notice",
                    source=self.ident,
                    destination=self.successor,
                    payload={"new_predecessor": self.predecessor},
                )
            )
        self.transport.unregister(self.ident)

    def crash(self) -> None:
        """Fail-stop without any notification (churn experiments)."""
        self._departed = True
        self.stop_maintenance()
        self.transport.unregister(self.ident)

    def _start_maintenance(self) -> None:
        """Begin periodic stabilize / fix-fingers timers.

        A no-op on a node that has left or crashed: departure is final (the
        node is unregistered), so a late join continuation must not revive
        its timers.
        """
        if self._running or self._departed:
            return
        self._running = True
        self._schedule_stabilize()
        self._schedule_fix_fingers()
        self._schedule_check_predecessor()

    def stop_maintenance(self) -> None:
        """Cancel periodic timers."""
        self._running = False
        for cancel in self._timer_cancels.values():
            cancel()
        self._timer_cancels.clear()

    # ------------------------------------------------------------------ #
    # Local views
    # ------------------------------------------------------------------ #

    def finger_table(self) -> FingerTable:
        """Current finger table (unfilled slots fall back to the successor).

        The DAT parent-selection code consumes exactly this view, so an
        incompletely-stabilized node still has a defined (if suboptimal)
        parent — the adaptiveness property of Sec. 3.2.
        """
        entries = [
            entry if entry is not None else self.successor for entry in self.fingers
        ]
        # Entries come straight from join/stabilize, which only ever store
        # validated identifiers — skip the O(bits) re-validation per call.
        return FingerTable.trusted(space=self.space, owner=self.ident, entries=entries)

    # ------------------------------------------------------------------ #
    # Lookup (recursive routing)
    # ------------------------------------------------------------------ #

    def lookup(
        self,
        key: int,
        on_result: Callable[[int, list[int]], None],
        on_failure: Callable[[int], None] | None = None,
    ) -> None:
        """Resolve ``successor(key)``; ``on_result(node, path)`` on success.

        A key this node owns the successor of (``key == ident`` or ``key``
        in ``(ident, successor]``) is answered from local state:
        ``on_result`` then runs before this call returns, and nothing is
        sent.
        """
        self._start_lookup(key, self.ident, on_result, on_failure)

    def _start_lookup(
        self,
        key: int,
        first_hop: int,
        on_result: Callable[[int, list[int]], None],
        on_failure: Callable[[int], None] | None,
    ) -> None:
        self.space.validate(key)
        if first_hop == self.ident and self._owns_key_successor(key):
            # The first hop would terminate here: answer in place, with the
            # result and path a self-addressed lookup_result would carry.
            if telemetry.tracing_enabled():
                telemetry.span("chord.lookup", node=self.ident, key=key).finish(hops=0)
            on_result(self.ident if key == self.ident else self.successor, [self.ident])
            return
        message = Message(
            kind="lookup",
            source=self.ident,
            destination=first_hop,
            payload={
                "key": key,
                "origin": self.ident,
                "hops": 0,
                "path": [],
            },
        )
        # The conversation token rides in the payload: recursive forwarding
        # means intermediate hops never respond to us, so the terminal node
        # answers the *original* request id (``reply_to=token``) and the
        # session layer's pending table correlates it like any other reply.
        message.payload["token"] = message.msg_id
        span = (
            telemetry.span("chord.lookup", node=self.ident, key=key)
            if telemetry.tracing_enabled()
            else telemetry.NULL_SPAN
        )
        span.propagate(message)

        def deliver(reply: Message) -> None:
            span.finish(hops=max(len(reply.payload["path"]) - 1, 0))
            on_result(reply.payload["result"], list(reply.payload["path"]))

        def fail(_request: Message) -> None:
            span.finish(failed=True)
            if on_failure is not None:
                on_failure(key)

        self.net.call(
            message,
            deliver,
            on_timeout=fail,
            policy=self._lookup_policy,
            send=self._forward_lookup if first_hop == self.ident else None,
        )
        span.detach()

    def _forward_lookup(self, message: Message) -> None:
        payload = message.payload
        key = payload["key"]
        hops = payload["hops"]
        path = list(payload["path"]) + [self.ident]
        if hops > self.config.max_lookup_hops:
            return  # abandoned; origin's deadline fires
        # Each hop is a span joined to the origin's trace; the forwarded
        # message (and the terminal result, via the send path's automatic
        # threading) continues from *this* hop, not the origin.
        with telemetry.remote_span(
            message, "chord.lookup_hop", node=self.ident, key=key, hops=hops
        ) as hop:
            if self._owns_key_successor(key):
                # key == self.ident -> successor(key) is this node itself;
                # otherwise key in (self, successor] -> it's our successor.
                result = self.ident if key == self.ident else self.successor
                self._send_lookup_result(payload, result, path)
                return
            next_hop = self.finger_table().closest_preceding(key)
            if next_hop is None or next_hop == self.ident:
                # All fingers overshoot: the key's successor is our successor.
                self._send_lookup_result(payload, self.successor, path)
                return
            forward = Message(
                kind="lookup",
                source=self.ident,
                destination=next_hop,
                payload={**payload, "hops": hops + 1, "path": path},
            )
            # The copied payload still carries the *incoming* context;
            # replace it so the next hop chains under this one.
            hop.propagate(forward)
            self.net.send(forward)

    def _owns_key_successor(self, key: int) -> bool:
        """True when this node can terminate the lookup locally."""
        if key == self.ident:
            return True
        if self.successor == self.ident:
            return True  # single-node ring
        return self.space.in_half_open_right(key, self.ident, self.successor)

    def _send_lookup_result(
        self, payload: dict[str, Any], result: int, path: list[int]
    ) -> None:
        # A response to the origin's *original* request: ``reply_to`` is the
        # conversation token, so the origin's session layer matches it even
        # though this terminal node never saw that request directly.
        self.net.send(
            Message(
                kind="lookup_result",
                source=self.ident,
                destination=payload["origin"],
                payload={"result": result, "path": path},
                reply_to=payload["token"],
            )
        )

    # ------------------------------------------------------------------ #
    # Stabilization (paper: "finger stabilization algorithm")
    # ------------------------------------------------------------------ #

    def _schedule_stabilize(self) -> None:
        if not self._running:
            return
        self._timer_cancels["stabilize"] = self.transport.schedule(
            self.config.stabilize_interval, self._stabilize_tick
        )

    def _stabilize_tick(self) -> None:
        if not self._running:
            return
        self._stabilize()
        self._schedule_stabilize()

    def _stabilize(self) -> None:
        """One stabilization round: verify successor, notify it."""
        if self.successor == self.ident:
            if self.predecessor is not None and self.predecessor != self.ident:
                # Another node joined and notified us; adopt it to break the
                # one-node self-loop.
                self.successor = self.predecessor
                self.fingers[0] = self.successor
            else:
                # Heavy churn can exhaust the successor list and strand this
                # node on a one-node ring, silently partitioning the overlay.
                # Probe remembered peers (stale list entries, finger cache)
                # and re-merge through the first that answers.
                self._attempt_rejoin()
            return

        target = self.successor
        request = Message(
            kind="get_neighbors",
            source=self.ident,
            destination=target,
            payload={},
        )

        def on_reply(reply: Message) -> None:
            pred = reply.payload.get("predecessor")
            succ_list = list(reply.payload.get("successor_list", []))
            if pred is not None and self.space.in_open(pred, self.ident, self.successor):
                self.successor = pred
                self.fingers[0] = pred
            self.successor_list = ([self.successor] + succ_list)[
                : self.config.successor_list_size
            ]
            self._notify_successor()

        def on_timeout(_msg: Message) -> None:
            # Only fail over if the unresponsive node is *still* our
            # successor — a stale timeout from a round that predates a
            # completed failover must not clobber the repaired state.
            if self.successor == target:
                self._handle_successor_failure()

        self.net.call(request, on_reply, on_timeout=on_timeout)

    def _attempt_rejoin(self) -> None:
        """Ping one remembered peer; if it answers, adopt it as successor.

        Candidates rotate through everything this node has ever known about
        the overlay: stale successor-list entries and cached fingers. The
        next stabilization rounds repair the exact position.
        """
        candidates: list[int] = []
        seen: set[int] = set()
        for peer in [*self.successor_list, *(f for f in self.fingers if f is not None)]:
            if peer is not None and peer != self.ident and peer not in seen:
                seen.add(peer)
                candidates.append(peer)
        if not candidates:
            return
        self._rejoin_cursor = getattr(self, "_rejoin_cursor", -1) + 1
        target = candidates[self._rejoin_cursor % len(candidates)]
        request = Message(kind="ping", source=self.ident, destination=target, payload={})

        def on_reply(_reply: Message) -> None:
            if self.successor == self.ident:
                self.successor = target
                self.fingers[0] = target
                self._notify_successor()

        self.net.call(request, on_reply)

    def _notify_successor(self) -> None:
        if self.successor == self.ident:
            return
        self.net.send(
            Message(
                kind="notify",
                source=self.ident,
                destination=self.successor,
                payload={"candidate": self.ident},
            )
        )

    def _handle_successor_failure(self) -> None:
        """Successor unresponsive: fail over to the next live list entry."""
        candidates = [n for n in self.successor_list if n != self.successor]
        if candidates:
            self.successor = candidates[0]
            self.successor_list = candidates
        else:
            # Last resort: best finger, else collapse to a lone ring.
            fallback = None
            for entry in self.fingers:
                if entry is not None and entry != self.ident and entry != self.successor:
                    fallback = entry
                    break
            self.successor = fallback if fallback is not None else self.ident
        self.fingers[0] = self.successor

    # ------------------------------------------------------------------ #
    # Predecessor liveness (Chord's check_predecessor)
    # ------------------------------------------------------------------ #

    def _schedule_check_predecessor(self) -> None:
        if not self._running:
            return
        self._timer_cancels["check_predecessor"] = self.transport.schedule(
            self.config.check_predecessor_interval, self._check_predecessor_tick
        )

    def _check_predecessor_tick(self) -> None:
        if not self._running:
            return
        self._check_predecessor()
        self._schedule_check_predecessor()

    def _check_predecessor(self) -> None:
        """Ping the predecessor; clear the pointer if it is dead.

        Without this, a node keeps advertising a crashed predecessor in its
        ``get_neighbors`` replies and its live predecessor re-adopts the
        dead node as successor forever.
        """
        if self.predecessor is None or self.predecessor == self.ident:
            return
        target = self.predecessor
        request = Message(
            kind="ping", source=self.ident, destination=target, payload={}
        )

        def on_timeout(_msg: Message) -> None:
            if self.predecessor == target:
                self.predecessor = None

        self.net.call(request, lambda reply: None, on_timeout=on_timeout)

    # ------------------------------------------------------------------ #
    # Finger maintenance
    # ------------------------------------------------------------------ #

    def _schedule_fix_fingers(self) -> None:
        if not self._running:
            return
        self._timer_cancels["fix_fingers"] = self.transport.schedule(
            self.config.fix_fingers_interval, self._fix_fingers_tick
        )

    def _fix_fingers_tick(self) -> None:
        if not self._running:
            return
        self._fix_next_finger()
        self._schedule_fix_fingers()

    def _fix_next_finger(self) -> None:
        """Refresh one finger slot (round-robin): ping, purge, re-look-up.

        The current entry is pinged first. A dead finger must be purged
        *before* the refresh lookup: greedy routing would otherwise forward
        the lookup through the very node whose death we are trying to
        detect, and the slot could never heal.
        """
        j = self._next_finger
        self._next_finger = cyclic_increment(self._next_finger, self.space.bits)
        start = self.space.finger_start(self.ident, j)

        def update(result: int, _path: list[int]) -> None:
            self.fingers[j] = result

        def refresh() -> None:
            self.lookup(start, update)

        current = self.fingers[j]
        if current is None or current == self.ident or current == self.successor:
            refresh()
            return

        request = Message(
            kind="ping", source=self.ident, destination=current, payload={}
        )

        def on_timeout(_msg: Message) -> None:
            self._purge_dead(current)
            refresh()

        self.net.call(request, lambda _reply: refresh(), on_timeout=on_timeout)

    def _purge_dead(self, dead: int) -> None:
        """Remove a confirmed-dead node from every local routing structure."""
        for slot, entry in enumerate(self.fingers):
            if entry == dead:
                self.fingers[slot] = None
        self.successor_list = [n for n in self.successor_list if n != dead]
        if self.predecessor == dead:
            self.predecessor = None
        if self.successor == dead:
            self._handle_successor_failure()

    def fix_all_fingers(self) -> None:
        """Kick a refresh of every slot (accelerates test convergence)."""
        for _ in range(self.space.bits):
            self._fix_next_finger()

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #

    def _handle(self, message: Message) -> Message | None:
        kind = message.kind
        if kind == "lookup":
            self._forward_lookup(message)
            return None
        if kind == "get_neighbors":
            return message.response(
                predecessor=self.predecessor,
                successor_list=self.successor_list[: self.config.successor_list_size],
            )
        if kind == "notify":
            self._on_notify(message.payload["candidate"])
            return None
        if kind == "ping":
            return message.response(alive=True)
        if kind == "leave_notice":
            self._on_leave_notice(message.payload)
            return None
        if kind == "probe_join":
            return self._on_probe_join(message)
        return self.upcalls.dispatch(message)

    def _on_notify(self, candidate: int) -> None:
        if candidate == self.ident:
            return
        if self.predecessor is None or self.space.in_open(
            candidate, self.predecessor, self.ident
        ):
            self.predecessor = candidate

    def _on_leave_notice(self, payload: dict[str, Any]) -> None:
        new_successor = payload.get("new_successor")
        new_predecessor = payload.get("new_predecessor")
        if new_successor is not None:
            self.successor = new_successor if new_successor != self.ident else self.ident
            self.fingers[0] = self.successor
        if new_predecessor is not None:
            self.predecessor = (
                new_predecessor if new_predecessor != self.ident else None
            )

    def _on_probe_join(self, message: Message) -> Message:
        """Identifier-probing join support (Sec. 4).

        The probed node examines the owned intervals it can see locally —
        its own gap and the gaps between consecutive successor-list entries
        — splits the largest, and designates the midpoint.
        """
        intervals: list[tuple[int, int, int]] = []  # (gap, pred, node)
        if self.predecessor is not None:
            own = self.space.cw(self.predecessor, self.ident)
            intervals.append((own, self.predecessor, self.ident))
        chain = [self.ident] + list(self.successor_list)
        for left, right in zip(chain, chain[1:]):
            if left != right:
                intervals.append((self.space.cw(left, right), left, right))
        if not intervals:
            # Not yet stabilized: fall back to splitting our own span guess.
            designated = self.space.wrap(self.ident + self.space.size // 2)
            return message.response(designated=designated)
        gap, pred, _node = max(intervals)
        designated = self.space.wrap(pred + gap // 2)
        return message.response(designated=designated)
