"""Broadcast-gather on-demand aggregation — membership-free pulls.

The on-demand mode in :mod:`repro.core.service` pulls through explicit
child sets (an oracle standing in for the prototype's fingers-of-fingers
data). This module provides the fully protocol-honest alternative: the
root disseminates the collection request with the Chord **broadcast**
primitive (reaching every node without any membership knowledge), and the
answers gather back up the implicit DAT tree in a bounded number of
repeated-push waves:

1. ``broadcast(gather request)`` — n-1 messages, O(log n) depth;
2. on delivery every node snapshots its local value and, for ``waves``
   rounds spaced ``wave_interval`` apart, pushes its merged partial state
   (own snapshot + latest state received from each child) toward the key;
3. after the final wave the root finalizes. With ``waves >= tree height``
   the result is exact on a converged overlay — wave ``w`` propagates
   complete subtrees of depth ``w``.

Cost: one broadcast (n-1) plus at most ``waves * (n-1)`` pushes — the
price paid for needing zero membership state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # runtime import would cycle: broadcast uses core.tree
    from repro.chord.broadcast import BroadcastService

from repro import telemetry
from repro.core.aggregates import Aggregate, get_aggregate
from repro.core.service import DatNodeService, _decode_state
from repro.errors import AggregationError
from repro.sim.messages import Message
from repro.telemetry.spans import SpanBase

__all__ = ["GatherCollector"]


@dataclass
class _GatherRound:
    """Per-round state at one node."""

    round_id: int
    key: int
    aggregate: Aggregate
    waves_left: int
    wave_interval: float
    local_state: Any = None
    child_states: dict[int, Any] = field(default_factory=dict)
    #: root-only fields
    on_result: Callable[[Any], None] | None = None
    is_root: bool = False
    span: SpanBase | None = None


class GatherCollector:
    """Membership-free on-demand collection for one node.

    Parameters
    ----------
    dat:
        The node's :class:`DatNodeService` (supplies parent selection,
        value reads, and ownership tests).
    broadcast:
        The node's :class:`BroadcastService` (request dissemination).
    """

    _round_counter = 0

    def __init__(self, dat: DatNodeService, broadcast: "BroadcastService") -> None:
        self.dat = dat
        self.broadcast = broadcast
        self._rounds: dict[int, _GatherRound] = {}
        self._chain_deliver = broadcast.on_deliver
        broadcast.on_deliver = self._on_broadcast
        dat.host.upcalls["gather_push"] = self._on_push

    def close(self) -> None:
        """Detach: restore the chained deliver hook, drop the upcall."""
        self.broadcast.on_deliver = self._chain_deliver
        self.dat.host.upcalls.pop("gather_push", None)
        self._rounds.clear()

    @property
    def ident(self) -> int:
        return self.dat.ident

    # ------------------------------------------------------------------ #
    # Root side
    # ------------------------------------------------------------------ #

    def collect(
        self,
        key: int,
        aggregate: Aggregate | str,
        on_result: Callable[[Any], None],
        waves: int = 12,
        wave_interval: float = 0.2,
    ) -> int:
        """Run one membership-free collection round from this node.

        ``waves`` must be at least the tree height for exactness
        (``ceil(log2 n)`` suffices for balanced DATs); ``wave_interval``
        must comfortably exceed one network delay. Returns the round id.
        """
        if waves <= 0:
            raise AggregationError("waves must be positive")
        agg = get_aggregate(aggregate) if isinstance(aggregate, str) else aggregate
        GatherCollector._round_counter += 1
        round_id = GatherCollector._round_counter
        self.broadcast.broadcast(
            {
                "__gather__": {
                    "round_id": round_id,
                    "key": key,
                    "aggregate": agg.name,
                    "agg_kwargs": _aggregate_kwargs(agg),
                    "waves": waves,
                    "wave_interval": wave_interval,
                    "root": self.ident,
                }
            }
        )
        # The initiator's own delivery (local) marks it as root.
        round_state = self._rounds[round_id]
        round_state.is_root = True
        round_state.on_result = on_result
        round_state.span = telemetry.span(
            "dat.gather",
            node=self.ident,
            key=key,
            round_id=round_id,
            aggregate=agg.name,
            waves=waves,
        )
        # Finalization fires one interval after the last wave arrives.
        self.dat.host.transport.schedule(
            (waves + 2) * wave_interval, lambda: self._finalize(round_id)
        )
        return round_id

    def _finalize(self, round_id: int) -> None:
        round_state = self._rounds.pop(round_id, None)
        if round_state is None or round_state.on_result is None:
            return
        states = [round_state.local_state, *round_state.child_states.values()]
        merged = round_state.aggregate.merge_all(states)
        if round_state.span is not None:
            round_state.span.finish(n_children=len(round_state.child_states))
            telemetry.count("gather_rounds_total")
        round_state.on_result(round_state.aggregate.finalize(merged))

    # ------------------------------------------------------------------ #
    # Every node
    # ------------------------------------------------------------------ #

    def _on_broadcast(self, initiator: int, payload: Any) -> None:
        request = payload.get("__gather__") if isinstance(payload, dict) else None
        if request is None:
            if self._chain_deliver is not None:
                self._chain_deliver(initiator, payload)
            return
        agg = get_aggregate(request["aggregate"], **request.get("agg_kwargs", {}))
        round_state = _GatherRound(
            round_id=request["round_id"],
            key=request["key"],
            aggregate=agg,
            waves_left=request["waves"],
            wave_interval=request["wave_interval"],
            local_state=agg.lift(self.dat.value_provider()),
        )
        self._rounds[round_state.round_id] = round_state
        if self.ident != request["root"]:
            self._schedule_wave(round_state.round_id)

    def _schedule_wave(self, round_id: int) -> None:
        round_state = self._rounds.get(round_id)
        if round_state is None or round_state.waves_left <= 0:
            return

        def wave() -> None:
            state = self._rounds.get(round_id)
            if state is None:
                return
            state.waves_left -= 1
            merged = state.aggregate.merge_all(
                [state.local_state, *state.child_states.values()]
            )
            parent = self.dat.parent_toward_key(state.key)
            if parent is not None:
                self.dat.net.send(
                    Message(
                        kind="gather_push",
                        source=self.ident,
                        destination=parent,
                        payload={
                            "round_id": round_id,
                            "state": merged,
                        },
                    )
                )
            if state.waves_left > 0:
                self._schedule_wave(round_id)
            else:
                # Participation over; root rounds are popped by _finalize.
                if not state.is_root:
                    self._rounds.pop(round_id, None)

        self.dat.host.transport.schedule(round_state.wave_interval, wave)

    def _on_push(self, message: Message) -> None:
        round_id = message.payload["round_id"]
        round_state = self._rounds.get(round_id)
        if round_state is None:
            return None  # round over or never seen (late broadcast)
        round_state.child_states[message.source] = _decode_state(message.payload["state"])
        return None


def _aggregate_kwargs(aggregate: Aggregate) -> dict[str, Any]:
    """Constructor kwargs needed to recreate ``aggregate`` remotely."""
    kwargs: dict[str, Any] = {}
    for attr in ("k", "q", "low", "high", "n_bins"):
        if hasattr(aggregate, attr):
            kwargs[attr] = getattr(aggregate, attr)
    return kwargs
