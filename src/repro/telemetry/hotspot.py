"""Per-node hotspot accounting — the runtime analogue of Fig. 8.

:class:`HotspotAccountant` subsumes the transport-level message counters
(the historical ``MessageStats`` class, now removed) and adds the load
statistics the paper's Sec. 5.3 evaluation is built on: rolling max and
percentile load across nodes, and the imbalance factor (max load divided by
average load) as a time series sampled on the sim clock.

Counters live in two stores that are summed on the read side only:

* per-node dicts, fed one message at a time by :meth:`~HotspotAccountant.record_send`
  / :meth:`~HotspotAccountant.record_receive` (any hashable-int id, any
  identifier width), and
* a dense *bulk ledger* — a sorted int64 id vector plus one int64 row per
  counter — fed by :meth:`~HotspotAccountant.record_send_bulk` /
  :meth:`~HotspotAccountant.record_receive_bulk` with a fixed number of
  array passes per batch and no per-message Python work. The ledger grows
  by ``union1d`` when a batch names ids it has not seen, and the row index
  resolved for a batch is kept, with the ids it was resolved for, so the
  next batch over the same ids (every round of a continuous push) reuses
  it instead of searching again. The ids are kept by identity or by copy:
  an id vector that is read only and owns its memory (``base is None``)
  is kept by reference, and a later batch passing that very object, still
  read only, reuses the index with no compare at all: freezing a vector
  is the caller's promise that it will not change while frozen, and a
  caller that writes one makes it writeable and records it so before it
  freezes it again. A kept vector passed writeable is trusted no more, in
  either direction (it may have changed, and there is no copy to compare
  with); it is resolved afresh. Any other vector is copied, and a later
  batch is compared with the copy. Pending work is a kept sizes vector
  times a batch count: the sizes are kept under the same rule (a frozen
  vector by reference, for the identity check, with its bytes copied once
  when it is first kept, for the fold), so a batch over the same ids with
  the same sizes — every loss-free round of a continuous push — is one
  more pending batch, O(1), and other sizes fold first. The pending
  batches are folded in — one scatter of ``sizes * batches`` and one of
  the number of batches, over the batch's rows — only when something
  needs the totals: a read, or a batch over other ids or sizes. Recording
  and folding a batch cost O(its rows), never O(the ledger), so many small
  batches (a jittered latency model delivers a round in about one group
  per message) stay linear. The counters are integers, so folding late
  changes no total, and a reader that reads every round pays what
  recording used to. ``reset`` zeroes the rows and the pending counts but
  keeps the ids, sizes and indexes; a ledger id with no message since
  then is simply not seen.

:meth:`~HotspotAccountant.load_arrays` reads both stores for a whole id
vector at once; the population statistics are computed from it.

All public methods take the accountant's lock: the threaded UDP transport
increments counters from its receive thread while callers read them, and a
read that straddles a torn pair of updates would mis-state a node's
load. The discrete-event transport is single-threaded, where the
uncontended lock costs a few tens of nanoseconds per message.
"""

from __future__ import annotations

import math
import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.telemetry.config import DEFAULT_PERCENTILES

__all__ = ["NodeLoad", "LoadSample", "HotspotAccountant", "percentile"]


@dataclass(frozen=True)
class NodeLoad:
    """Message/byte totals for one node."""

    sent: int
    received: int
    bytes_sent: int
    bytes_received: int

    @property
    def total(self) -> int:
        """Sent + received messages — the Fig. 8 'aggregation messages' load."""
        return self.sent + self.received


@dataclass(frozen=True)
class LoadSample:
    """One point on the load-balance time series.

    ``imbalance`` is max load over mean load — the paper's load-balance
    metric (Fig. 8b); 1.0 means perfectly even, n means one node carries
    everything.
    """

    at: float
    n_nodes: int
    total: int
    mean: float
    maximum: int
    imbalance: float
    percentiles: tuple[tuple[float, float], ...]

    def percentile(self, q: float) -> float:
        """Look up one recorded percentile (KeyError if not in the grid)."""
        for grid_q, value in self.percentiles:
            if grid_q == q:
                return value
        raise KeyError(f"percentile {q} not recorded (grid: "
                       f"{tuple(g for g, _ in self.percentiles)})")


def percentile(values: list[int] | list[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (``q`` in (0, 1))."""
    if not values:
        raise ValueError("percentile of empty sequence")
    return _interpolate(sorted(values), q)


def _interpolate(ordered: Sequence[int] | Sequence[float] | np.ndarray, q: float) -> float:
    """The ``q``-th percentile of an already ascending, non-empty sequence."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(ordered[lower])
    weight = position - lower
    return float(ordered[lower]) * (1.0 - weight) + float(ordered[upper]) * weight


def _frozen(vector: np.ndarray) -> bool:
    """Whether the ledger may keep ``vector`` by reference: read only and
    owning its memory (a view's base may be written through)."""
    return not vector.flags.writeable and vector.base is None


#: Row order of the bulk ledger's counters and of :meth:`HotspotAccountant.load_arrays`.
_SENT, _RECEIVED, _BYTES_SENT, _BYTES_RECEIVED = range(4)


@dataclass(slots=True)
class _Resolved:
    """The last bulk batch of one direction, resolved against the ledger,
    and how many batches over the same ids and sizes recorded since the
    last fold."""

    #: Ledger row of each batch row.
    index: np.ndarray
    #: The ids ``index`` was resolved for: the caller's own vector when it
    #: was read only and owned its memory, else a copy.
    ids: np.ndarray
    #: Bytes per batch row of every pending batch (a copy: the fold reads it).
    sizes: np.ndarray
    #: The caller's read-only vector ``sizes`` was copied from, trusted by
    #: identity while it stays read only; ``None``: compare with ``sizes``.
    sized_by: np.ndarray | None
    #: Batches whose messages are not yet in the ledger.
    batches: int


class HotspotAccountant:
    """Mutable per-node send/receive counters plus load-balance statistics.

    A superset of the historical ``MessageStats`` API: transports call
    :meth:`record_send`/:meth:`record_receive` per message (or the
    ``_bulk`` forms per batch); experiments may instead attribute
    precomputed loads with :meth:`add_load`. Statistics (:meth:`max_load`,
    :meth:`percentile`, :meth:`imbalance`) and snapshots (:meth:`sample`)
    read the same counters.
    """

    def __init__(
        self, percentiles: tuple[float, ...] = DEFAULT_PERCENTILES
    ) -> None:
        self.percentile_grid = percentiles
        self._sent: dict[int, int] = defaultdict(int)
        self._received: dict[int, int] = defaultdict(int)
        self._bytes_sent: dict[int, int] = defaultdict(int)
        self._bytes_received: dict[int, int] = defaultdict(int)
        self._tables = (
            self._sent, self._received, self._bytes_sent, self._bytes_received
        )
        # Bulk ledger: ascending ids and one counter row per table above,
        # summed with the tables on the read side only.
        self._ids = np.empty(0, dtype=np.int64)
        self._counters = np.zeros((4, 0), dtype=np.int64)
        # The last bulk send and bulk receive, keyed by counter row, with
        # their pending bytes and messages. Ledger growth folds and clears
        # this, so a batch naming the same ids again may reuse the index as
        # it is.
        self._resolved: dict[int, _Resolved] = {}
        self._by_kind: dict[str, int] = defaultdict(int)
        self.series: list[LoadSample] = []
        # The UDP transport updates counters from caller threads and its
        # receive thread concurrently; dict-entry increments are not atomic,
        # and unlocked reads could observe a torn sent/received pair.
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def record_send(self, node: int, size: int = 0, kind: str | None = None) -> None:
        """Count one message (of ``size`` bytes, of ``kind``) sent by ``node``."""
        with self._lock:
            self._sent[node] += 1
            self._bytes_sent[node] += size
            if kind is not None:
                self._by_kind[kind] += 1

    def record_receive(self, node: int, size: int = 0) -> None:
        """Count one message (of ``size`` bytes) received by ``node``."""
        with self._lock:
            self._received[node] += 1
            self._bytes_received[node] += size

    def record_send_bulk(
        self, nodes: np.ndarray, sizes: np.ndarray, kind: str | None = None
    ) -> None:
        """Count one sent message per ``(nodes[i], sizes[i])`` pair.

        Equivalent to ``record_send`` in a loop, but one lock acquisition
        and a fixed number of array passes per batch whatever its length or
        the number of distinct senders — the batched transport path records
        a 10^5-message round without touching a Python object per message.
        """
        if len(nodes) == 0:
            return
        with self._lock:
            self._record_bulk_locked(nodes, sizes, _SENT)
            if kind is not None:
                self._by_kind[kind] += len(nodes)

    def record_receive_bulk(self, nodes: np.ndarray, sizes: np.ndarray) -> None:
        """Count one received message per ``(nodes[i], sizes[i])`` pair."""
        if len(nodes) == 0:
            return
        with self._lock:
            self._record_bulk_locked(nodes, sizes, _RECEIVED)

    def _record_bulk_locked(
        self, nodes: np.ndarray, sizes: np.ndarray, row: int
    ) -> None:
        """Add one message per pair to counter ``row`` and to its byte row."""
        nodes = np.asarray(nodes, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        if len(sizes) != len(nodes):
            raise ValueError(f"{len(nodes)} ids but {len(sizes)} sizes")
        if nodes.flags.writeable:
            # A vector kept by reference, writeable again, may have been
            # written: no direction trusts it any more. What is pending was
            # counted against the ids it held, which the indexes still map.
            stale = [key for key, kept in self._resolved.items() if kept.ids is nodes]
            if stale:
                self._fold_locked()
                for key in stale:
                    del self._resolved[key]
        if sizes.flags.writeable:
            # Likewise a kept sizes vector; its bytes pending batches were
            # counted with are in the copy, so nothing need fold.
            for kept in self._resolved.values():
                if kept.sized_by is sizes:
                    kept.sized_by = None
        resolved = self._resolved.get(row)
        # A continuous push names the same ids with the same sizes every
        # round: the very vectors last round kept, or copies to compare
        # with. Such a batch is one more pending batch — no search, no
        # scatter, and by identity no pass over the rows either.
        if resolved is not None and (
            resolved.ids is nodes or np.array_equal(resolved.ids, nodes)
        ):
            if resolved.sized_by is sizes or np.array_equal(resolved.sizes, sizes):
                resolved.batches += 1
                return
            # Other sizes: the pending batches fold with the kept ones.
            self._fold_locked()
            index, ids = resolved.index, resolved.ids
        else:
            # The pending batches were counted against the old index.
            self._fold_locked()
            index = self._ledger_index_locked(nodes)
            ids = nodes if _frozen(nodes) else nodes.copy()
        self._resolved[row] = _Resolved(
            index, ids, sizes.copy(), sizes if _frozen(sizes) else None, 1
        )

    def _fold_locked(self) -> None:
        """Add the pending bytes and messages of both directions to the ledger."""
        for row, resolved in self._resolved.items():
            if resolved.batches:
                np.add.at(
                    self._counters[row + 2], resolved.index,
                    resolved.sizes * resolved.batches,
                )
                np.add.at(self._counters[row], resolved.index, resolved.batches)
                resolved.batches = 0

    def _ledger_index_locked(self, nodes: np.ndarray) -> np.ndarray:
        """Ledger row of each of ``nodes``, adding rows for ids not seen yet
        (nothing may be pending: growth moves every row)."""
        index, known = self._lookup_locked(nodes)
        if known.all():
            return index
        ids = np.union1d(self._ids, nodes[~known])
        counters = np.zeros((4, len(ids)), dtype=np.int64)
        counters[:, np.searchsorted(ids, self._ids)] = self._counters
        self._ids, self._counters = ids, counters
        self._resolved.clear()
        return np.searchsorted(ids, nodes)

    def _lookup_locked(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(row, is_member)`` of each of ``nodes`` in the ledger; ``row`` is
        only meaningful where ``is_member``."""
        if len(self._ids) == 0:
            return np.zeros(len(nodes), dtype=np.intp), np.zeros(len(nodes), dtype=bool)
        index = np.minimum(np.searchsorted(self._ids, nodes), len(self._ids) - 1)
        return index, self._ids[index] == nodes

    def add_load(self, node: int, sent: int = 0, received: int = 0) -> None:
        """Attribute precomputed message counts to ``node`` in bulk.

        Experiments that compute loads analytically (the Fig. 8 harness
        derives per-node aggregation load from tree shape) use this to feed
        the same accounting path the transports feed message-by-message.
        """
        if sent < 0 or received < 0:
            raise ValueError(f"loads cannot be negative ({sent=}, {received=})")
        with self._lock:
            if sent:
                self._sent[node] += sent
            if received:
                self._received[node] += received
            if not sent and not received:
                # Register the node so zero-load nodes enter the population.
                self._sent.setdefault(node, 0)

    # -- reading (MessageStats-compatible) ---------------------------------

    def _columns_locked(self, population: Sequence[int] | np.ndarray) -> np.ndarray:
        """The four counters (rows) of every node of ``population`` (columns)."""
        self._fold_locked()
        out = np.zeros((4, len(population)), dtype=np.int64)
        if len(self._ids):
            index, known = self._lookup_locked(np.asarray(population, dtype=np.int64))
            out[:, known] = self._counters[:, index[known]]
        if any(self._tables):
            if isinstance(population, np.ndarray):
                population = population.tolist()
            for column, table in zip(out, self._tables):
                if table:
                    column += [table.get(node, 0) for node in population]
        return out

    def _seen_locked(self) -> set[int]:
        """Every id with a message counted (a ledger id may have none)."""
        self._fold_locked()
        recorded = (self._counters[_SENT] | self._counters[_RECEIVED]) != 0
        return set(self._sent) | set(self._received) | set(self._ids[recorded].tolist())

    def _totals(self, nodes: list[int] | None) -> tuple[list[int], np.ndarray]:
        """The population (every node seen when ``nodes`` is ``None``) and
        the sent + received total of each of its nodes, in that order."""
        with self._lock:
            population = list(self._seen_locked()) if nodes is None else nodes
            columns = self._columns_locked(population)
        return population, columns[_SENT] + columns[_RECEIVED]

    def load(self, node: int) -> NodeLoad:
        """Totals for one node (zeros if it never appeared)."""
        with self._lock:
            return NodeLoad(*self._columns_locked([node])[:, 0].tolist())

    def load_arrays(
        self, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(sent, received, bytes_sent, bytes_received)`` int64 arrays
        aligned with ``ids`` (zeros for ids that never appeared) — the
        whole-population form of :meth:`load`."""
        with self._lock:
            sent, received, bytes_sent, bytes_received = self._columns_locked(
                np.asarray(ids, dtype=np.int64)
            )
        return sent, received, bytes_sent, bytes_received

    def nodes(self) -> set[int]:
        """Every node that sent or received at least one message."""
        with self._lock:
            return self._seen_locked()

    def total_messages(self) -> int:
        """Total messages observed (each counted once, at the sender)."""
        with self._lock:
            self._fold_locked()
            return sum(self._sent.values()) + int(self._counters[_SENT].sum())

    def loads(self, nodes: list[int] | None = None) -> dict[int, int]:
        """Per-node total (sent + received) message counts.

        Pass the full node list to include zero-load nodes — Fig. 8's
        averages are over *all* nodes, idle ones included.
        """
        population, totals = self._totals(nodes)
        return dict(zip(population, totals.tolist()))

    def series_snapshot(self) -> list[LoadSample]:
        """A consistent copy of the rolling sample series.

        Exporters iterate this while tick hooks (or an experiment thread)
        may still be appending samples; the copy is taken under the lock.
        """
        with self._lock:
            return list(self.series)

    def by_kind(self) -> dict[str, int]:
        """Messages sent, broken down by message kind.

        Only populated by transports that pass ``kind`` to
        :meth:`record_send` (the simulated transport does) — used to show
        that DAT adds zero tree-maintenance message kinds on top of Chord's.
        """
        with self._lock:
            return dict(self._by_kind)

    def reset(self) -> None:
        """Zero every counter, pending ones included, and drop the sample series."""
        with self._lock:
            for table in self._tables:
                table.clear()
            # The ledger keeps its ids and resolved indexes: a run measured
            # from here re-sends over the same ids and need not rebuild them.
            self._counters[:] = 0
            for resolved in self._resolved.values():
                resolved.batches = 0
            self._by_kind.clear()
            self.series.clear()

    # -- load-balance statistics -------------------------------------------

    def max_load(self, nodes: list[int] | None = None) -> int:
        """Largest per-node total load (0 when nothing recorded)."""
        _, totals = self._totals(nodes)
        return int(totals.max()) if len(totals) else 0

    def percentile(self, q: float, nodes: list[int] | None = None) -> float:
        """The ``q``-th percentile of per-node total loads."""
        _, totals = self._totals(nodes)
        if not len(totals):
            raise ValueError("no loads recorded")
        return _interpolate(np.sort(totals), q)

    def imbalance(self, nodes: list[int] | None = None) -> float:
        """Max load over mean load — the Fig. 8b load-balance factor.

        Computed inline rather than via ``repro.core.analysis`` (which
        imports telemetry); 0.0 when nothing has been recorded yet.
        """
        _, totals = self._totals(nodes)
        total = int(totals.sum())
        if total == 0:
            return 0.0
        return int(totals.max()) / (total / len(totals))

    def sample(self, now: float, nodes: list[int] | None = None) -> LoadSample:
        """Snapshot the current load distribution at sim time ``now``.

        The sample is appended to :attr:`series`, building the rolling
        imbalance-factor time series the Fig. 8 runtime analogue plots.
        """
        ordered = np.sort(self._totals(nodes)[1])
        n_nodes = len(ordered)
        total = int(ordered.sum())
        mean = total / n_nodes if n_nodes else 0.0
        maximum = int(ordered[-1]) if n_nodes else 0
        imbalance = (maximum / mean) if mean > 0 else 0.0
        grid = tuple(
            (q, _interpolate(ordered, q) if n_nodes else 0.0)
            for q in self.percentile_grid
        )
        point = LoadSample(
            at=now,
            n_nodes=n_nodes,
            total=total,
            mean=mean,
            maximum=maximum,
            imbalance=imbalance,
            percentiles=grid,
        )
        with self._lock:
            self.series.append(point)
        return point
