"""Slab-backed continuous aggregation: whole protocol rounds as array ops.

This is the core-layer piece of the bulk-simulation path. One
:class:`SlabContinuousRun` replaces ``n`` :class:`~repro.core.service.DatNodeService`
instances for a single rendezvous key on a static converged ring: node
state lives in a handful of shared NumPy columns (local values per node;
cached partial state, receipt clock and presence flag per *push row*, one
for every node that pushes), tree structure is the immutable parent array
derived from one shared :class:`~repro.chord.block.ChordNodeBlock`, and
each push interval executes as

1. one vectorized merge (local lift + a scatter of fresh child states,
   in ascending-child order — the exact fold order of the object path),
2. one :class:`~repro.sim.messages.MessageBatch` through
   :meth:`~repro.sim.simnet.SimTransport.send_batch` (one engine event per
   latency group). Every ``agg_push`` of a run has one wire size, read off
   its binary layout — header, key and the aggregate's state width — so
   every batch sends the one read-only size column built with the run,
3. one cache update when the batch delivers: a whole round's state
   columns become the cache as they are.

A round whose merge inputs — the readings, the cached child states and
which of them are fresh — are bit for bit the last merge's re-sends the
last round's state columns: a converged round with fixed readings merges
and gathers nothing. Readings are set, not polled:
:attr:`~SlabContinuousRun.values` is a read-only array, and assigning
new readings compares them with the current ones once, so a round reads
a flag and touches no per-node array. A batch's rows, the cache and
``parent_index`` share the push-row order, so a steady-state round
scatters the cache as it is; only loss, expiry or a split delivery index
anything.

**Equivalence contract.** :func:`run_protocol_slab` is bit-identical to
``run_protocol_oracle`` in ``tests/oracles.py`` — the same scenario driven
through real ``DatNodeService`` objects — in root estimate, per-node
message/byte accounting, and per-node push counts, for every supported
aggregate, with or without message loss, expiry and multi-group delivery
(the object path folds its children in ascending id, whichever pushes
survived). Asserted in ``tests/property/test_prop_protocol.py`` for both
schemes.

Supported aggregates: every :class:`~repro.core.aggregates.ColumnAggregate`,
which is every built-in but std and top-k. The slab reads the column spec
and names no aggregate: the cache takes the declared dtypes, the merge is
one ``ufunc.at`` per column over ``lift_columns``, and the estimate and a
materialized push read one ``row``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import telemetry
from repro.chord.block import ChordNodeBlock
from repro.chord.ring import StaticRing
from repro.core.aggregates import Aggregate, ColumnAggregate, get_aggregate
from repro.errors import AggregationError
from repro.sim.messages import Message, MessageBatch, reserve_msg_ids
from repro.sim.simnet import SimTransport

__all__ = [
    "ProtocolRunResult",
    "SlabContinuousRun",
    "run_protocol_slab",
]


def _bits_differ(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Elementwise ``new != old`` on the bits of 8-byte values: ``-0.0``
    differs from ``0.0``, a NaN equals itself."""
    return new.view(np.int64) != old.view(np.int64)


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
    aggregate: ColumnAggregate
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
        A :class:`~repro.core.aggregates.ColumnAggregate`, or the name of a
        registered one.
    values:
        Local reading per node, aligned with ``block.ids``; copied into
        :attr:`values`, a read-only float64 array. New readings are set
        between rounds by assigning :attr:`values`, never by writing the
        array in place.
    scheme:
        ``"basic"`` or ``"balanced"`` parent selection.
    interval, stale_after:
        As in :meth:`DatNodeService.start_continuous`: push period and the
        child-state expiry horizon in intervals.

    ``push_rows`` are the nodes that push (every node but the owner,
    ascending); ``source_ids``, ``parent_ids`` (both read only: every batch
    sends these very arrays), ``parent_index`` and the child cache
    (``cache``, ``cached_at``) are aligned with them, ``values`` and
    :attr:`pushes_sent` with ``block.ids``.
    """

    def __init__(
        self,
        block: ChordNodeBlock,
        transport: SimTransport,
        key: int,
        aggregate: Aggregate | str,
        values: np.ndarray,
        scheme: str = "balanced",
        interval: float = 1.0,
        stale_after: float = 4.0,
    ) -> None:
        agg = get_aggregate(aggregate) if isinstance(aggregate, str) else aggregate
        if not isinstance(agg, ColumnAggregate):
            raise AggregationError(
                f"the slab runs column aggregates only, got {agg.name!r} "
                "(use the object path)"
            )
        self.block = block
        self.transport = transport
        self.key = int(key)
        self.aggregate = agg
        self.scheme = scheme
        self.interval = float(interval)
        self.stale_after = float(stale_after)
        self._values = self._frozen_readings(values)

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
        # Read only, so the hotspot ledger may trust them by identity.
        self.source_ids.flags.writeable = False
        self.parent_ids.flags.writeable = False
        self.parent_index = np.searchsorted(block.ids, self.parent_ids)

        # Per-child cache: the partial state each node last *delivered* to
        # its parent, plus the receipt clock — the slab analogue of every
        # parent's ``child_states`` dict. Each child has exactly one parent
        # for this key, so the cache is keyed by child, and by *push row*
        # (position in ``push_rows``) rather than node: a batch's columns,
        # the delivered row indices and ``parent_index`` all are, so a
        # round reads and writes it without translating. A delivery of a
        # whole round makes its batch's columns the cache and moves only
        # ``_fresh_since``; ``cached_at`` is the receipt clock of a partial
        # delivery (NaN: none), and an entry was received at the later of
        # the two (``_fresh_since`` None: no whole round has arrived).
        n_push = len(self.push_rows)
        self.cached_at = np.full(n_push, np.nan, dtype=np.float64)
        self._fresh_since: float | None = None
        self.cache = [np.zeros(n_push, dtype=dtype) for dtype, _ufunc in agg.columns]
        # The last merge's freshness mask (None: every entry fresh), and
        # whether a merge input has since moved bit for bit: a reading the
        # lift reads (set by assigning ``values``) or a cached state (set by
        # a delivery). While neither does, a round re-sends ``_sent``.
        self._mask: np.ndarray | None = None
        self._moved = True

        self.estimate: Any = None
        self.rounds_run = 0

        # ``_sent`` is the state columns the last merge made: read-only
        # arrays that every batch since has sent. Every push is as long as
        # a probe push with the aggregate's state shape (int64 ids are never
        # wide), so every batch sends one read-only size column.
        self._sent: list[np.ndarray] = []
        state = agg.lift(0.0)
        probe = Message("agg_push", 0, 0, {"key": self.key, "state": state}, msg_id=0)
        self._sizes = np.full(n_push, probe.encoded_size(), dtype=np.int64)
        self._sizes.flags.writeable = False

        self._cancel: Callable[[], None] | None = None

    # ------------------------------------------------------------------ #

    @property
    def values(self) -> np.ndarray:
        """Local reading per node, aligned with ``block.ids`` (read only)."""
        return self._values

    @values.setter
    def values(self, readings: np.ndarray) -> None:
        """Set every node's reading; the next round merges if one moved bit
        for bit and the aggregate's lift reads it."""
        values = self._frozen_readings(readings)
        if self.aggregate.lift_reads_value and not self._moved:
            self._moved = bool(_bits_differ(values, self._values).any())
        self._values = values

    def _frozen_readings(self, readings: np.ndarray) -> np.ndarray:
        """A read-only float64 copy of ``readings``, one per node."""
        values = np.array(readings, dtype=np.float64)
        if len(values) != len(self.block):
            raise AggregationError(
                f"values length {len(values)} does not match {len(self.block)} nodes"
            )
        values.flags.writeable = False
        return values

    def _fresh_mask(self, now: float) -> np.ndarray | None:
        """Which cache entries are within the expiry horizon; ``None`` when
        all are.

        Every entry is at least as fresh as the last whole-round delivery
        (an entry only ever gets newer), so while that is within the
        horizon — the steady state — this is one comparison; only
        otherwise is the mask built, and only a stale or never-delivered
        entry makes it cut the columns.
        """
        horizon = now - self.stale_after * self.interval
        if self._fresh_since is not None and self._fresh_since >= horizon:
            return None
        received = self.cached_at
        if self._fresh_since is not None:
            received = np.fmax(received, self._fresh_since)
        # A NaN (never received) is not fresh even under an unbounded horizon.
        fresh = received >= horizon
        return None if fresh.all() else fresh

    def _inputs_moved(self, mask: np.ndarray | None) -> bool:
        """Whether this round's merge inputs differ from the last merge's:
        a reading or cached state (bit for bit), or the freshness ``mask``."""
        if self._moved or (mask is None) != (self._mask is None):
            return True
        return mask is not None and bool((mask != self._mask).any())

    def _merged_columns(self, mask: np.ndarray | None) -> list[np.ndarray]:
        """Every node's merge of local lift + the child states ``mask``
        keeps (every one when ``None``).

        The scatter ops apply per-edge in ascending-child order (push rows
        ascend), which is the object path's left fold over its child dict
        (kept in ascending child id).
        """
        parent, cached = self.parent_index, self.cache
        if mask is not None:
            parent = parent[mask]
            cached = [column[mask] for column in cached]
        merged = self.aggregate.lift_columns(self._values)
        # A NaN reading wins a min / max merge silently, as it does on the
        # object path; numpy would warn about it.
        with np.errstate(invalid="ignore"):
            for (_dtype, ufunc), column, states in zip(
                self.aggregate.columns, merged, cached
            ):
                ufunc.at(column, parent, states)
        return merged

    def _merge(self, mask: np.ndarray | None) -> None:
        """Merge and finalize the estimate. The push rows' merged states
        become the columns every round sends until the inputs move."""
        cols = self._merged_columns(mask)
        self.estimate = self.aggregate.finalize(self.aggregate.row(cols, self.owner_index))
        states = [col.take(self.push_rows) for col in cols]
        for state in states:
            state.flags.writeable = False
        self._sent = states
        self._mask = mask
        self._moved = False

    def push_round(self) -> None:
        """Execute one push interval for every node (the slab hot path)."""
        mask = self._fresh_mask(self.transport.now())
        if self._inputs_moved(mask):
            self._merge(mask)
        n_push = len(self.push_rows)
        if n_push == 0:
            return
        telemetry.count("agg_pushes_total", float(n_push))
        msg_id_start = reserve_msg_ids(n_push)
        # A materialized push reads this round's columns, whatever a later
        # merge makes ``_sent``.
        key, row, sent = self.key, self.aggregate.row, self._sent
        batch = MessageBatch(
            kind="agg_push",
            sources=self.source_ids,
            destinations=self.parent_ids,
            sizes=self._sizes,
            msg_id_start=msg_id_start,
            payload_columns={f"state{j}": state for j, state in enumerate(sent)},
            payload_of=lambda i: {"key": key, "state": row(sent, i)},
        )
        self.transport.send_batch(batch, self._on_deliver)
        self.rounds_run += 1

    def _on_deliver(self, batch: MessageBatch, rows: np.ndarray | None) -> None:
        """Fold a delivered batch into the per-child caches.

        Batch rows are push rows. A whole round arriving at once is adopted:
        its state columns become the cache as they are (compared first,
        unless they already are it) and the freshness watermark moves to
        now. A partial delivery — loss, or a latency model that splits the
        round — is indexed writes, into a copy of any column the cache
        shares with a sent batch (those are read only): a batch's columns
        are never written.
        """
        now = self.transport.now()
        delivered = [batch.payload_columns[f"state{j}"] for j in range(len(self.cache))]
        if rows is None or len(rows) == len(self.push_rows):
            if not self._moved:
                self._moved = any(
                    new is not old and bool(_bits_differ(new, old).any())
                    for new, old in zip(delivered, self.cache)
                )
            self.cache = delivered
            self._fresh_since = now
            return
        for j, column in enumerate(self.cache):
            if not column.flags.writeable:
                column = self.cache[j] = column.copy()
            states = delivered[j][rows]
            if not self._moved:
                self._moved = bool(_bits_differ(states, column[rows]).any())
            column[rows] = states
        self.cached_at[rows] = now

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
        """Bytes of array state this run owns plus what its block holds —
        the protocol-mode memory gate input."""
        arrays = [
            self._values, self._mask, self.cached_at,
            self.push_rows, self.source_ids, self.parent_ids, self.parent_index,
            self._sizes, *self.cache, *self._sent,
        ]
        # An adopted cache column is also a sent one: count each array once.
        unique = {id(array): array for array in arrays if array is not None}
        return sum(a.nbytes for a in unique.values()) + self.block.state_nbytes()


def run_protocol_slab(
    ring: StaticRing,
    key: int,
    rounds: int,
    aggregate: Aggregate | str = "sum",
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
        aggregate=run.aggregate,
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
