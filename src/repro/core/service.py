"""Protocol-level DAT aggregation service (paper Sec. 4, Fig. 6).

Each node runs a :class:`DatNodeService` on top of a *host* — anything with
an ``ident``, ``space``, ``transport`` and an ``upcalls`` dict, i.e. either
a live :class:`~repro.chord.node.ChordProtocolNode` or the lightweight
:class:`StandaloneDatHost` used when experiments want converged finger
tables without protocol noise. The service implements both aggregate modes:

* **Continuous** (push) — every ``interval`` the node merges its local
  reading with the freshest cached child states and pushes the partial
  state to its parent. No child membership is needed at all: parents learn
  of children purely by receiving pushes, the paper's "no explicit
  parent-child membership" property. The root's estimate converges within
  one tree-height worth of intervals and tracks the live values thereafter
  (the staleness visible as off-diagonal scatter in Fig. 9(b)).

* **On-demand** (pull) — a collection round started at the root propagates
  down the tree and partial states flow back up. Downward propagation needs
  child sets, which the prototype derives from its fingers-of-fingers
  extension; here they come from an injected ``children_resolver``
  (equivalent converged-neighbor information — see DESIGN.md).

The service *is* the per-node aggregation table of Sec. 4 / Fig. 6: one
``_ContinuousState`` per rendezvous key in ``DatNodeService._continuous``
(aggregate, interval, the freshest partial state per child) and one
:class:`OnDemandRound` per collection in flight (aggregate, children still
expected, states received). There is no separate table object.

Message kinds: ``agg_push`` (continuous upward push), ``agg_collect``
(on-demand downward request), ``agg_partial`` (on-demand upward response).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, cast

from repro import telemetry
from repro.chord.fingers import FingerTable
from repro.chord.host import ChordHost
from repro.chord.idspace import IdSpace
from repro.core.aggregates import Aggregate, get_aggregate
from repro.core.limiting import FingerLimiter
from repro.errors import AggregationError
from repro.net import (
    UNBOUNDED_POLICY,
    Batcher,
    DeferredResponder,
    RetryPolicy,
    RpcClient,
    UpcallRegistry,
    gather,
    install_batch_unwrapper,
)
from repro.sim.messages import Message
from repro.sim.transport import Transport
from repro.telemetry.spans import SpanBase

__all__ = ["StandaloneDatHost", "DatNodeService", "OnDemandRound"]


class StandaloneDatHost:
    """Minimal host giving a DAT service a transport presence.

    Used by experiments that want DAT behaviour over converged finger
    tables without running the full Chord maintenance protocol (the static
    analytical setting of Sec. 5.2/5.3).
    """

    def __init__(self, ident: int, space: IdSpace, transport: Transport) -> None:
        self.ident = ident
        self.space = space
        self.transport = transport
        self.upcalls = UpcallRegistry()
        transport.register(ident, self._handle)

    def _handle(self, message: Message) -> Message | None:
        # Unknown kinds drop, like the UDP prototype — the registry's policy.
        return self.upcalls.dispatch(message)

    def shutdown(self) -> None:
        """Unregister from the transport.

        Unregistering also cancels every RPC this node still has pending
        (the transport drops their reply/timeout continuations), so hosts
        can be torn down and rebuilt on one shared transport across
        repeated experiment runs without leaking handlers or timers.
        """
        self.transport.unregister(self.ident)


@dataclass
class _ContinuousState:
    """Continuous-mode cache for one rendezvous key.

    ``child_states`` maps child -> (receipt time, partial state), kept in
    ascending child id (the merge's fold order). Entries older than
    ``stale_after`` push intervals are dropped before each merge, so
    contributions from departed or re-parented children age out instead
    of being double-counted forever.
    """

    aggregate: Aggregate
    interval: float
    stale_after: float
    child_states: dict[int, tuple[float, Any]] = field(default_factory=dict)
    last_estimate: Any = None
    pushes_sent: int = 0
    cancel_timer: Callable[[], None] | None = None

    def fresh_states(self, now: float) -> list[Any]:
        """Drop expired child entries and return the surviving states."""
        horizon = now - self.stale_after * self.interval
        expired = [
            child for child, (when, _state) in self.child_states.items()
            if when < horizon
        ]
        for child in expired:
            del self.child_states[child]
        return [state for _when, state in self.child_states.values()]

    def record(self, push: Message, now: float) -> None:
        """Cache ``push``'s partial state as its sender's freshest entry."""
        entry = (now, _decode_state(push.payload["state"], self.aggregate))
        children = self.child_states
        if push.source in children:
            children[push.source] = entry
        else:
            # A new child: rebuild in ascending child id — the merge's fold
            # order, so a float fold does not depend on which pushes were
            # lost — and leave the old dict whole for a tick that may be
            # reading it.
            self.child_states = dict(sorted([*children.items(), (push.source, entry)]))


@dataclass
class OnDemandRound:
    """Root-side bookkeeping for one on-demand collection."""

    key: int
    round_id: int
    aggregate: Aggregate
    on_result: Callable[[Any], None]
    expected: set[int]
    states: list[Any] = field(default_factory=list)
    done: bool = False
    span: SpanBase | None = None


class DatNodeService:
    """DAT layer of one node.

    Parameters
    ----------
    host:
        Object exposing ``ident``, ``space``, ``transport``, ``upcalls``.
    finger_provider:
        Returns the node's current finger table — live protocol tables or a
        converged snapshot. Re-read on every parent computation, so the
        tree adapts to churn exactly as fast as stabilization updates
        fingers (Sec. 3.2).
    value_provider:
        Returns this node's current local reading ``x_i(t)``.
    scheme:
        ``"basic"`` or ``"balanced"``.
    d0_provider:
        Returns the mean-gap estimate for the limiting function (balanced
        scheme only).
    children_resolver:
        ``(key, root) -> children of this node`` — required for on-demand
        mode only.
    retry_policy:
        :class:`~repro.net.RetryPolicy` governing on-demand collect RPCs.
        Defaults to :data:`~repro.net.UNBOUNDED_POLICY` — the historical
        semantics: no deadline, a lost message stalls the round. Pass a
        bounded policy to retransmit lost collects and finish rounds with
        whatever subtrees answered.
    push_batch_window:
        Flush window (transport seconds) for coalescing same-parent
        ``agg_push`` messages through a :class:`~repro.net.Batcher`.
        ``0.0`` (default) sends each push immediately, unchanged.
    """

    def __init__(
        self,
        host: ChordHost,
        finger_provider: Callable[[], FingerTable],
        value_provider: Callable[[], float],
        scheme: str = "balanced",
        d0_provider: Callable[[], float] | None = None,
        children_resolver: Callable[[int, int], list[int]] | None = None,
        predecessor_provider: Callable[[], int | None] | None = None,
        retry_policy: RetryPolicy | None = None,
        push_batch_window: float = 0.0,
    ) -> None:
        if scheme not in ("basic", "balanced"):
            raise ValueError(f"scheme must be 'basic' or 'balanced', got {scheme!r}")
        if scheme == "balanced" and d0_provider is None:
            raise ValueError("balanced scheme requires a d0_provider")
        self.host = host
        self.finger_provider = finger_provider
        self.value_provider = value_provider
        self.scheme = scheme
        self.d0_provider = d0_provider
        self.children_resolver = children_resolver
        # Ownership test for key-addressed continuous mode (Algorithm 1
        # line 5): a node with a live predecessor pointer decides "am I
        # successor(k)?" locally. ChordProtocolNode hosts are wired
        # automatically; static hosts fall back to the root hint passed to
        # start_continuous.
        if predecessor_provider is None and hasattr(host, "predecessor"):
            def _host_predecessor() -> int | None:
                return cast("int | None", getattr(host, "predecessor"))

            predecessor_provider = _host_predecessor
        self.predecessor_provider = predecessor_provider
        self.retry_policy = retry_policy if retry_policy is not None else UNBOUNDED_POLICY
        # The session layer owns all request-path state: reply correlation
        # lives in the transport's pending table, deferred-reply dedupe in
        # the responder — this service keeps no pending-request dicts.
        host_net = getattr(host, "net", None)
        self.net: RpcClient = (
            host_net
            if isinstance(host_net, RpcClient)
            else RpcClient(host.transport, host.ident)
        )
        self._responder = DeferredResponder(host.transport)
        self._batcher = Batcher(host.transport, push_batch_window)
        self._continuous: dict[int, _ContinuousState] = {}
        self._round_seq = 0
        self._limiter: FingerLimiter | None = None
        self._limiter_d0: float | None = None
        host.upcalls["agg_push"] = self._on_push
        host.upcalls["agg_collect"] = self._on_collect
        install_batch_unwrapper(host.upcalls, self._dispatch_unbatched)

    def _dispatch_unbatched(self, message: Message) -> None:
        """Deliver one message unwrapped from a ``net_batch`` envelope."""
        handler = self.host.upcalls.get(message.kind)
        if handler is not None:
            handler(message)

    def close(self) -> None:
        """Detach from the host: stop pushes, drop upcall registrations.

        The host's own teardown (``shutdown()`` / ``leave()``) cancels any
        RPCs still pending at the transport.
        """
        for key in list(self._continuous):
            self.stop_continuous(key)
        self._batcher.close()
        for kind in ("agg_push", "agg_collect", "net_batch"):
            self.host.upcalls.pop(kind, None)

    # ------------------------------------------------------------------ #
    # Tree position
    # ------------------------------------------------------------------ #

    @property
    def ident(self) -> int:
        return self.host.ident

    def _current_limiter(self) -> FingerLimiter:
        """``g`` for the current ``d0`` (balanced scheme only): the provider
        is asked every push — live overlays revise the estimate under churn —
        and the limiter rebuilt only when the value changed."""
        assert self.d0_provider is not None  # enforced by __init__ for balanced
        d0 = self.d0_provider()
        limiter = self._limiter
        if limiter is None or d0 != self._limiter_d0:
            self._limiter = limiter = FingerLimiter.for_gap(d0)
            self._limiter_d0 = d0
        return limiter

    def owns_key(self, key: int, root_hint: int | None = None) -> bool:
        """Algorithm 1 line 5: is this node ``successor(key)``?

        Decided locally from the predecessor pointer when available
        (``key in (pred, self]``); otherwise falls back to comparing
        against ``root_hint`` (static deployments).
        """
        ident = self.host.ident
        if self.predecessor_provider is not None:
            pred = self.predecessor_provider()
            if pred is not None:
                if pred == ident:
                    return True  # lone ring
                return self.host.space.in_half_open_right(key, pred, ident)
        return root_hint == ident

    def parent_toward_key(self, key: int) -> int | None:
        """Next hop toward the key's owner (key-addressed parent selection).

        This is Algorithm 1 as written: eligibility is measured against the
        rendezvous key itself, so nodes need not know the root's identity.
        If every finger overshoots ``key`` this node is the owner's
        immediate predecessor and its parent is its successor (the root).
        Returns ``None`` on a lone ring or mid-churn inconsistency.
        """
        table = self.finger_provider()
        ident = self.host.ident
        if self.scheme == "balanced":
            max_slot = self._current_limiter()(table.space.cw(ident, key))
        else:
            max_slot = None
        parent = table.closest_preceding(key, max_slot=max_slot)
        if parent is None:
            successor = table.successor
            return successor if successor != ident else None
        return parent

    # ------------------------------------------------------------------ #
    # Continuous mode
    # ------------------------------------------------------------------ #

    def start_continuous(
        self,
        key: int,
        root: int,
        aggregate: Aggregate | str,
        interval: float,
        stale_after: float = 4.0,
    ) -> None:
        """Begin periodic pushes toward ``root`` for rendezvous ``key``.

        ``stale_after`` is the child-state expiry horizon in push intervals:
        a child that has not pushed for that long (it departed, crashed, or
        re-parented after stabilization) stops contributing.
        """
        agg = get_aggregate(aggregate) if isinstance(aggregate, str) else aggregate
        if key in self._continuous:
            self.stop_continuous(key)
        state = _ContinuousState(aggregate=agg, interval=interval, stale_after=stale_after)
        self._continuous[key] = state
        self._schedule_push(key, root_hint=root)

    def stop_continuous(self, key: int) -> None:
        """Cancel the periodic push for ``key``."""
        state = self._continuous.pop(key, None)
        if state is not None and state.cancel_timer is not None:
            state.cancel_timer()

    def _schedule_push(self, key: int, root_hint: int | None) -> None:
        """Arm the periodic push for ``key``: one closure that re-arms itself."""

        def tick() -> None:
            self._push_once(key, root_hint=root_hint)
            state = self._continuous.get(key)
            if state is not None:
                state.cancel_timer = self.host.transport.schedule(state.interval, tick)

        state = self._continuous[key]
        state.cancel_timer = self.host.transport.schedule(state.interval, tick)

    def _push_once(self, key: int, root_hint: int | None) -> None:
        state = self._continuous.get(key)
        if state is None:
            return
        local = state.aggregate.lift(self.value_provider())
        merged = state.aggregate.merge_all(
            [local, *state.fresh_states(self.host.transport.now())]
        )
        if self.owns_key(key, root_hint=root_hint):
            # This node is (currently) successor(key): the tree root.
            state.last_estimate = state.aggregate.finalize(merged)
            return
        parent = self.parent_toward_key(key)
        if parent is None:
            return  # lone ring or mid-churn transient: skip this round
        state.pushes_sent += 1
        telemetry.count("agg_pushes_total")
        # Partial states are numbers or flat tuples of numbers for the
        # built-in aggregates (the wire's ``state`` type); the wire layer
        # checks it when the transport actually serializes.
        # Pushes ride the batcher: with a zero window (default) this is an
        # immediate send; with a window, same-parent pushes coalesce.
        push = Message(
            kind="agg_push",
            source=self.host.ident,
            destination=parent,
            payload={"key": key, "state": _encode_state(merged)},
        )
        if telemetry.tracing_enabled():
            # Each push roots its own trace — even under an ambient
            # harness span (an experiment phase) — and the receiver's
            # handler span joins it, so one push climbing one hop is a
            # rooted two-span causal tree. Batched pushes keep their
            # individual contexts.
            with telemetry.trace_span(
                "dat.push", node=self.ident, key=key, to=parent
            ) as sp:
                sp.propagate(push)
        self._batcher.enqueue(push)

    def _on_push(self, message: Message) -> None:
        key = message.payload["key"]
        state = self._continuous.get(key)
        if state is None:
            return  # not participating (yet): drop
        if telemetry.tracing_enabled():
            with telemetry.remote_span(
                message, "dat.push_recv", node=self.host.ident, key=key,
                child=message.source,
            ):
                state.record(message, self.host.transport.now())
        else:
            state.record(message, self.host.transport.now())
        return None

    def root_estimate(self, key: int) -> Any:
        """Root-side: the latest finalized global estimate (None before
        the first full interval)."""
        state = self._continuous.get(key)
        if state is None:
            raise AggregationError(f"no continuous aggregation active for key {key}")
        return state.last_estimate

    # ------------------------------------------------------------------ #
    # On-demand mode
    # ------------------------------------------------------------------ #

    def collect(
        self,
        key: int,
        root: int,
        aggregate: Aggregate | str,
        on_result: Callable[[Any], None],
    ) -> None:
        """Root-side: run one collection round over the tree.

        Must be invoked on the root's service (the monitoring facade routes
        the request there first). Each child is asked with one
        ``agg_collect`` RPC under the service's retry policy; the round
        completes when every child's subtree has answered or exhausted its
        attempts (under the default unbounded policy a lost message stalls
        the round — the historical semantics).
        """
        if self.ident != root:
            raise AggregationError(
                f"collect() must run at the root {root}, not node {self.ident}"
            )
        if self.children_resolver is None:
            raise AggregationError("on-demand mode requires a children_resolver")
        agg = get_aggregate(aggregate) if isinstance(aggregate, str) else aggregate
        self._round_seq += 1
        round_id = self._round_seq
        children = self.children_resolver(key, root)
        state = OnDemandRound(
            key=key,
            round_id=round_id,
            aggregate=agg,
            on_result=on_result,
            expected=set(children),
        )
        # The round roots its own trace (trace_span, not span): like
        # dat.push, a collect round is a causal unit of the protocol, not
        # of whatever harness span happens to be open at the call site.
        round_span = telemetry.trace_span(
            "dat.collect",
            node=self.ident,
            key=key,
            round_id=round_id,
            n_children=len(children),
        )
        state.span = round_span
        state.states.append(agg.lift(self.value_provider()))

        def done(replies: dict[int, Message], failed: list[Message]) -> None:
            if state.done:
                return
            state.done = True
            for child in sorted(replies):
                reply = replies[child]
                state.states.append(
                    _decode_state(reply.payload["state"], state.aggregate)
                )
                state.expected.discard(child)
            merged = state.aggregate.merge_all(state.states)
            if state.span is not None:
                state.span.finish(
                    n_states=len(state.states), n_failed=len(failed)
                )
                telemetry.count("collect_rounds_total")
            state.on_result(state.aggregate.finalize(merged))

        gather(
            self.net,
            [self._collect_request(child, key, root, round_id, agg) for child in children],
            done,
            policy=self.retry_policy,
        )
        # The round's span finishes in ``done``; detach so spans started
        # later on this thread (other nodes' handlers, in the DES) don't
        # nest under it. The gather's requests already carry its context.
        round_span.detach()

    def _collect_request(
        self, child: int, key: int, root: int, round_id: int, aggregate: Aggregate
    ) -> Message:
        return Message(
            kind="agg_collect",
            source=self.ident,
            destination=child,
            payload={
                "key": key,
                "root": root,
                "round_id": round_id,
                "aggregate": aggregate.name,
            },
        )

    def _on_collect(self, message: Message) -> None:
        payload = message.payload
        key, root, round_id = payload["key"], payload["root"], payload["round_id"]
        # At-most-once per (requester, key, round): a retransmitted collect
        # must not fan out into the subtree again — the responder replays
        # the cached partial (or lets the in-flight gather answer it).
        if not self._responder.begin((message.source, key, round_id), message):
            return None
        # The hop's span joins the requester's trace; the responder owns
        # its lifecycle from here (complete() threads its context into the
        # reply and finishes it — deferred replies rejoin their trace).
        hop_span = self._responder.adopt(
            (message.source, key, round_id),
            telemetry.remote_span(
                message, "dat.collect_hop", node=self.ident, key=key, round_id=round_id
            ),
        )
        aggregate = get_aggregate(payload["aggregate"])
        children = (
            self.children_resolver(key, root) if self.children_resolver else []
        )
        local = aggregate.lift(self.value_provider())
        if not children:
            self._complete_collect(message, aggregate, [local], key, round_id)
            return None

        def done(replies: dict[int, Message], _failed: list[Message]) -> None:
            states = [local] + [
                _decode_state(replies[child].payload["state"], aggregate)
                for child in sorted(replies)
            ]
            self._complete_collect(message, aggregate, states, key, round_id)

        gather(
            self.net,
            [self._collect_request(c, key, root, round_id, aggregate) for c in children],
            done,
            policy=self.retry_policy,
        )
        hop_span.detach()
        return None

    def _complete_collect(
        self,
        request: Message,
        aggregate: Aggregate,
        states: list[Any],
        key: int,
        round_id: int,
    ) -> None:
        """Answer an ``agg_collect`` with this subtree's merged partial."""
        merged = aggregate.merge_all(states)
        self._responder.complete(
            (request.source, key, round_id),
            request.response(
                kind="agg_partial",
                key=key,
                round_id=round_id,
                state=_encode_state(merged),
            ),
        )


# ---------------------------------------------------------------------- #
# Partial-state wire coding
# ---------------------------------------------------------------------- #
#
# Built-in aggregate states are numbers, (sum, count) pairs, count tuples,
# or moment dataclasses. The wire's ``state`` type carries a number or a
# flat tuple of numbers as it is; the moment state is tagged, and a state in
# a JSON body (an int beyond 64 bits, a nested tuple) comes back as a list.

from repro.core.aggregates import _MomentState  # noqa: E402  (private by design)


def _encode_state(state: Any) -> Any:
    if isinstance(state, _MomentState):
        return {"__moment__": [state.count, state.mean, state.m2]}
    return state


def _decode_state(encoded: Any, aggregate: Aggregate) -> Any:
    if isinstance(encoded, dict) and "__moment__" in encoded:
        count, mean, m2 = encoded["__moment__"]
        return _MomentState(count=int(count), mean=float(mean), m2=float(m2))
    if isinstance(encoded, list):
        return tuple(encoded)
    return encoded
