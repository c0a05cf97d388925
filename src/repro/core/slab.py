"""Slab-backed continuous aggregation: whole protocol rounds as array ops.

This is the core-layer piece of the bulk-simulation path. One
:class:`SlabContinuousRun` replaces ``n`` :class:`~repro.core.service.DatNodeService`
instances for a single rendezvous key on a static converged ring: node
state lives in a handful of shared NumPy columns (local values per node;
cached partial state, receipt clock and presence flag per *push row*, one
for every node that pushes), tree structure is the immutable parent array
derived from one shared :class:`~repro.chord.block.ChordNodeBlock`, and
each push interval executes as

1. one vectorized merge (local lift + scatter-add of fresh child states,
   in ascending-child order — the exact fold order of the object path),
2. one :class:`~repro.sim.messages.MessageBatch` through
   :meth:`~repro.sim.simnet.SimTransport.send_batch` (per-message wire
   sizes computed arithmetically, one engine event per latency group),
3. one vectorized cache update when the batch delivers.

A batch's rows, the cache and ``parent_index`` share the push-row order,
so a steady-state round scatters the cache as it is and takes a delivery
as a block copy; only loss, expiry or a split delivery index anything.

**Equivalence contract.** :func:`run_protocol_slab` is bit-identical to
``run_protocol_oracle`` in ``tests/oracles.py`` — the same scenario driven
through real ``DatNodeService`` objects — in root estimate, per-node
message/byte accounting, and per-node push counts, for every supported
aggregate, with or without message loss, expiry and multi-group delivery
(the object path folds its children in ascending id, whichever pushes
survived). Asserted in ``tests/property/test_prop_protocol.py`` for both
schemes.

Supported aggregates: ``sum``, ``count``, ``min``, ``max``, ``avg``.
The long-tail aggregates (histogram, top-k, std) keep the object path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import telemetry
from repro.chord.block import ChordNodeBlock
from repro.chord.ring import StaticRing
from repro.errors import AggregationError
from repro.sim.messages import (
    MessageBatch,
    block_digit_counts,
    envelope_overhead,
    float_repr_lengths,
    int_digit_counts,
    reserve_msg_ids,
    take_rows,
)
from repro.sim.simnet import SimTransport

__all__ = [
    "SLAB_AGGREGATES",
    "ProtocolRunResult",
    "SlabContinuousRun",
    "run_protocol_slab",
]

#: Aggregates the slab path supports (partial state fits in 1-2 columns).
SLAB_AGGREGATES = ("sum", "count", "min", "max", "avg")
#: The merge of the aggregates that do not add.
_SCATTER = {"min": np.minimum, "max": np.maximum}


@dataclass(frozen=True)
class ProtocolRunResult:
    """Outcome of one continuous-push protocol run (either path).

    Per-node arrays are aligned with ``ids`` (ascending identifiers); all
    but ``pushes_sent`` (the protocol's own count) come from the transport's
    :class:`~repro.telemetry.hotspot.HotspotAccountant`, so the equivalence
    tests compare the *accounted wire traffic*, not an internal proxy.
    """

    n_nodes: int
    scheme: str
    aggregate: str
    key: int
    root: int
    rounds: int
    estimate: Any
    pushes_sent: np.ndarray
    ids: np.ndarray
    sent: np.ndarray
    received: np.ndarray
    bytes_sent: np.ndarray
    bytes_received: np.ndarray
    state_bytes: int

    @property
    def pushes_total(self) -> int:
        return int(self.pushes_sent.sum())

    @property
    def messages_total(self) -> int:
        return int(self.sent.sum())

    @property
    def bytes_total(self) -> int:
        return int(self.bytes_sent.sum())


class SlabContinuousRun:
    """Continuous-push aggregation for one key, all nodes in one object.

    Parameters
    ----------
    block:
        Shared routing state of the converged ring.
    transport:
        Simulated transport; rounds ride its engine and its accounting.
    key:
        Rendezvous key, in ``[0, 2^bits)``; the owner (``successor(key)``)
        finalizes instead of pushing.
    aggregate:
        One of :data:`SLAB_AGGREGATES`.
    values:
        Local reading per node, aligned with ``block.ids``.
    scheme:
        ``"basic"`` or ``"balanced"`` parent selection.
    interval, stale_after:
        As in :meth:`DatNodeService.start_continuous`: push period and the
        child-state expiry horizon in intervals.

    ``push_rows`` are the nodes that push (every node but the owner,
    ascending); ``source_ids``, ``parent_ids``, ``parent_index`` and the
    child cache (``cache``, ``cached_at``, ``has_entry``) are aligned with
    them, ``values`` and :attr:`pushes_sent` with ``block.ids``.
    """

    def __init__(
        self,
        block: ChordNodeBlock,
        transport: SimTransport,
        key: int,
        aggregate: str,
        values: np.ndarray,
        scheme: str = "balanced",
        interval: float = 1.0,
        stale_after: float = 4.0,
    ) -> None:
        if aggregate not in SLAB_AGGREGATES:
            raise AggregationError(
                f"slab path supports {SLAB_AGGREGATES}, got {aggregate!r} "
                "(use the object path for long-tail aggregates)"
            )
        n = len(block)
        if len(values) != n:
            raise AggregationError(
                f"values length {len(values)} does not match {n} nodes"
            )
        self.block = block
        self.transport = transport
        self.key = int(key)
        self.aggregate = aggregate
        self.scheme = scheme
        self.interval = float(interval)
        self.stale_after = float(stale_after)
        self.values = np.asarray(values, dtype=np.float64)

        parents = block.key_parents(self.key, scheme=scheme)
        self.owner_index = block.owner_index(self.key)
        self.root = int(block.ids[self.owner_index])
        # Push rows: every node with a parent except the owner, ascending —
        # the same order the object services tick in (they are started in
        # ascending-ident order and the engine breaks ties by insertion).
        has_parent = parents >= 0
        has_parent[self.owner_index] = False
        self.push_rows = np.flatnonzero(has_parent)
        self.source_ids = block.ids[self.push_rows]
        self.parent_ids = parents[self.push_rows]
        self.parent_index = np.searchsorted(block.ids, self.parent_ids)

        # Per-child cache: the partial state each node last *delivered* to
        # its parent, plus the receipt clock — the slab analogue of every
        # parent's ``child_states`` dict. Each child has exactly one parent
        # for this key, so the cache is keyed by child, and by *push row*
        # (position in ``push_rows``) rather than node: a batch's columns,
        # the delivered row indices and ``parent_index`` all are, so a
        # round reads and writes it without translating.
        n_push = len(self.push_rows)
        self.cached_at = np.full(n_push, -np.inf, dtype=np.float64)
        self.has_entry = np.zeros(n_push, dtype=bool)
        # When the last delivery of a whole round arrived (None: none yet).
        self._fresh_since: float | None = None
        self._lift = np.ones(n, dtype=np.int64) if aggregate == "count" else None
        column_types = {"count": [np.int64], "avg": [np.float64, np.int64]}
        self.cache = [
            np.zeros(n_push, dtype=dtype)
            for dtype in column_types.get(aggregate, [np.float64])
        ]

        self.estimate: Any = None
        self.rounds_run = 0

        # Wire-size constants (see sim.messages): everything but the
        # src/dst/msg_id numerals and the state body is fixed per key.
        base = envelope_overhead("agg_push")
        payload_probe = json.dumps(
            {"key": self.key, "state": 0}, separators=(",", ":")
        )
        self._tuple_overhead = (
            len(json.dumps({"__tuple__": [0, 0]}, separators=(",", ":"))) - 2
        )
        # Per-row bytes that never change: envelope + src and dst numerals.
        self._static_sizes = (
            base
            + len(payload_probe) - 1  # minus the "0"
            + int_digit_counts(self.source_ids)
            + int_digit_counts(self.parent_ids)
        )

        self._cancel: Callable[[], None] | None = None

    # ------------------------------------------------------------------ #

    def _merged_columns(self, now: float) -> list[np.ndarray]:
        """Every node's merge of local lift + fresh child states.

        The scatter ops apply per-edge in ascending-child order (push rows
        ascend), which is the object path's left fold over its child dict
        (kept in ascending child id). Every entry is at least as fresh as
        the last whole-round delivery (an entry only ever gets newer), so
        while that is within the horizon — the steady state — the cache
        columns are scattered as they are without looking at them; only
        otherwise is the freshness mask built, and only a stale or
        never-delivered entry makes it cut the columns.
        """
        horizon = now - self.stale_after * self.interval
        parent, cached = self.parent_index, self.cache
        if self._fresh_since is None or self._fresh_since < horizon:
            fresh = self.has_entry & ~(self.cached_at < horizon)
            if not fresh.all():
                parent = parent[fresh]
                cached = [column[fresh] for column in cached]
        merged = (self.values if self._lift is None else self._lift).copy()
        _SCATTER.get(self.aggregate, np.add).at(merged, parent, cached[0])
        if self.aggregate != "avg":
            return [merged]
        # avg: (sum, count) componentwise
        counts = np.ones(len(self.block), dtype=np.int64)
        np.add.at(counts, parent, cached[1])
        return [merged, counts]

    def _state_lengths(self, states: list[np.ndarray]) -> np.ndarray:
        """JSON byte length of each pushed state body (a fresh array)."""
        if self.aggregate == "count":
            return int_digit_counts(states[0])
        lengths = float_repr_lengths(states[0])
        if self.aggregate == "avg":
            lengths += int_digit_counts(states[1])
            lengths += self._tuple_overhead
        return lengths

    def _finalize(self, cols: list[np.ndarray], i: int) -> Any:
        if self.aggregate == "count":
            return int(cols[0][i])
        if self.aggregate == "avg":
            return float(cols[0][i]) / int(cols[1][i])
        return float(cols[0][i])

    def push_round(self) -> None:
        """Execute one push interval for every node (the slab hot path)."""
        now = self.transport.now()
        cols = self._merged_columns(now)
        self.estimate = self._finalize(cols, self.owner_index)
        rows = self.push_rows
        n_push = len(rows)
        if n_push == 0:
            return
        telemetry.count("agg_pushes_total", float(n_push))
        msg_id_start = reserve_msg_ids(n_push)
        states = [col.take(rows) for col in cols]
        sizes = self._state_lengths(states)
        sizes += self._static_sizes
        sizes += block_digit_counts(msg_id_start, n_push)
        state_cols = {f"state{j}": state for j, state in enumerate(states)}
        batch = MessageBatch(
            kind="agg_push",
            sources=self.source_ids,
            destinations=self.parent_ids,
            sizes=sizes,
            msg_id_start=msg_id_start,
            payload_columns=state_cols,
            payload_of=lambda i: {
                "key": self.key,
                "state": self._encode_row(state_cols, i),
            },
        )
        self.transport.send_batch(batch, self._on_deliver)
        self.rounds_run += 1

    def _encode_row(self, state_cols: dict[str, np.ndarray], i: int) -> Any:
        """Wire encoding of one pushed state (materialization/debug only)."""
        if self.aggregate == "count":
            return int(state_cols["state0"][i])
        if self.aggregate == "avg":
            return {
                "__tuple__": [
                    float(state_cols["state0"][i]),
                    int(state_cols["state1"][i]),
                ]
            }
        return float(state_cols["state0"][i])

    def _on_deliver(self, batch: MessageBatch, rows: np.ndarray | None) -> None:
        """Fold a delivered batch into the per-child caches.

        Batch rows are push rows, so the states are *copied* row for row
        (the batch keeps its columns): a whole round arriving at once is
        one block copy and two fills, and moves the freshness watermark to
        now; a partial delivery — loss, or a latency model that splits the
        round — is indexed writes.
        """
        now = self.transport.now()
        where: slice | np.ndarray = slice(None)
        if rows is not None and len(rows) < len(self.push_rows):
            where = rows
        else:
            self._fresh_since = now
        for j, column in enumerate(self.cache):
            column[where] = take_rows(batch.payload_columns[f"state{j}"], rows)
        self.cached_at[where] = now
        self.has_entry[where] = True

    @property
    def pushes_sent(self) -> np.ndarray:
        """Pushes sent per node, aligned with ``block.ids``: every push row
        pushes once per round, so the vector is materialised on read."""
        sent = np.zeros(len(self.block), dtype=np.int64)
        sent[self.push_rows] = self.rounds_run
        return sent

    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Arm the periodic round timer (first round after one interval);
        a timer armed by an earlier call is cancelled first."""
        self.stop()

        def tick() -> None:
            self.push_round()
            self._cancel = self.transport.schedule(self.interval, tick)

        self._cancel = self.transport.schedule(self.interval, tick)

    def stop(self) -> None:
        """Cancel the periodic round timer."""
        if self._cancel is not None:
            self._cancel()
            self._cancel = None

    def state_nbytes(self) -> int:
        """Bytes of array state this run owns, including its share of the
        block (ids + finger matrix) — the protocol-mode memory gate input."""
        owned = (
            self.values.nbytes
            + self.cached_at.nbytes
            + self.has_entry.nbytes
            + self.push_rows.nbytes
            + self.source_ids.nbytes
            + self.parent_ids.nbytes
            + self.parent_index.nbytes
            + self._static_sizes.nbytes
            + sum(col.nbytes for col in self.cache)
        )
        if self._lift is not None:
            owned += self._lift.nbytes
        return owned + self.block.state_nbytes()


def run_protocol_slab(
    ring: StaticRing,
    key: int,
    rounds: int,
    aggregate: str = "sum",
    scheme: str = "balanced",
    values: np.ndarray | None = None,
    interval: float = 1.0,
    stale_after: float = 4.0,
    transport: SimTransport | None = None,
) -> ProtocolRunResult:
    """Run ``rounds`` continuous-push intervals through the slab path.

    The run horizon is ``rounds * interval``: round-``rounds`` pushes are
    sent (and accounted) but their deliveries stay in flight, exactly like
    the oracle's horizon.
    """
    transport = transport if transport is not None else SimTransport()
    block = ChordNodeBlock.from_ring(ring)
    if values is None:
        values = np.ones(len(block), dtype=np.float64)
    run = SlabContinuousRun(
        block,
        transport,
        key,
        aggregate,
        values,
        scheme=scheme,
        interval=interval,
        stale_after=stale_after,
    )
    run.start()
    transport.run(until=rounds * interval)
    run.stop()
    sent, received, bytes_sent, bytes_received = transport.stats.load_arrays(block.ids)
    return ProtocolRunResult(
        n_nodes=len(block),
        scheme=scheme,
        aggregate=aggregate,
        key=int(key),
        root=run.root,
        rounds=rounds,
        estimate=run.estimate,
        pushes_sent=run.pushes_sent,
        ids=block.ids,
        sent=sent,
        received=received,
        bytes_sent=bytes_sent,
        bytes_received=bytes_received,
        state_bytes=run.state_nbytes(),
    )
