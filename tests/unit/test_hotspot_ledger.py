"""The accountant's bulk ledger against a loop of scalar records.

``HotspotAccountant`` keeps bulk records in a dense array ledger and
scalar records in dicts, and sums the two on the read side. Whatever the
interleaving, every read must equal what a plain accountant would report
had each bulk call been a loop of ``record_send`` / ``record_receive`` —
that plain accountant is :class:`ReferenceAccountant`, kept here.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.telemetry.hotspot import HotspotAccountant


class ReferenceAccountant:
    """Per-node dict counters; bulk calls are loops of scalar records."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.sent, self.received = {}, {}
        self.bytes_sent, self.bytes_received = {}, {}
        self.kinds = {}

    def record_send(self, node, size=0, kind=None):
        self.sent[node] = self.sent.get(node, 0) + 1
        self.bytes_sent[node] = self.bytes_sent.get(node, 0) + size
        if kind is not None:
            self.kinds[kind] = self.kinds.get(kind, 0) + 1

    def record_receive(self, node, size=0):
        self.received[node] = self.received.get(node, 0) + 1
        self.bytes_received[node] = self.bytes_received.get(node, 0) + size

    def record_send_bulk(self, nodes, sizes, kind=None):
        for node, size in zip(nodes.tolist(), sizes.tolist()):
            self.record_send(node, size, kind)

    def record_receive_bulk(self, nodes, sizes):
        for node, size in zip(nodes.tolist(), sizes.tolist()):
            self.record_receive(node, size)

    def add_load(self, node, sent=0, received=0):
        self.sent[node] = self.sent.get(node, 0) + sent
        if received:
            self.received[node] = self.received.get(node, 0) + received

    def load(self, node):
        return (
            self.sent.get(node, 0),
            self.received.get(node, 0),
            self.bytes_sent.get(node, 0),
            self.bytes_received.get(node, 0),
        )

    def nodes(self):
        return set(self.sent) | set(self.received)

    def loads(self, nodes=None):
        population = self.nodes() if nodes is None else nodes
        return {n: self.sent.get(n, 0) + self.received.get(n, 0) for n in population}

    def total_messages(self):
        return sum(self.sent.values())

    def imbalance(self, nodes=None):
        totals = self.loads(nodes)
        total = sum(totals.values())
        if not total:
            return 0.0
        return max(totals.values()) / (total / len(totals))


def assert_same_reads(acc, ref, population):
    assert acc.nodes() == ref.nodes()
    assert acc.total_messages() == ref.total_messages()
    assert acc.by_kind() == ref.kinds
    assert acc.loads() == ref.loads()
    assert acc.loads(population) == ref.loads(population)
    # Floats: same operands in the same order, so equal, not close.
    assert acc.imbalance() == ref.imbalance()
    assert acc.imbalance(population) == ref.imbalance(population)
    assert acc.max_load(population) == max(ref.loads(population).values())
    for node in population[:6]:
        load = acc.load(node)
        assert (
            load.sent, load.received, load.bytes_sent, load.bytes_received
        ) == ref.load(node)
    # Unsorted, repeated and never-seen ids in one array read.
    ids = np.array(population[::-1] + population[:3], dtype=np.int64)
    columns = acc.load_arrays(ids)
    expected = np.array([ref.load(node) for node in ids.tolist()]).T
    for column, want in zip(columns, expected):
        assert column.dtype == np.int64
        assert column.tolist() == want.tolist()


@pytest.mark.parametrize("seed", range(8))
def test_random_interleaving_equals_scalar_reference(seed):
    rng = np.random.default_rng(seed)
    acc, ref = HotspotAccountant(), ReferenceAccountant()
    never_seen = 10**9
    last = last_sizes = None  # the previous bulk call's vectors, read only since
    for step in range(120):
        # The id pool widens as the run goes on: later bulk calls name ids
        # the ledger has not seen, earlier ones are repeated within a call.
        pool = np.arange(3, 3 + 4 + step // 4, dtype=np.int64) * 7919
        op = rng.choice(
            ["send", "receive", "send_bulk", "receive_bulk", "add_load", "reset"],
            p=[0.15, 0.15, 0.3, 0.3, 0.07, 0.03],
        )
        if op in ("send_bulk", "receive_bulk"):
            # New ids; or the previous call's read-only vector again, which
            # the ledger may know by identity; or that vector made
            # writeable, rewritten and recorded so, then read only again.
            ids = "new" if last is None else rng.choice(["new", "again", "rewrite"])
            if ids == "new":
                length = int(rng.choice([0, 1, 5, 40]))
                nodes = rng.choice(pool, size=length, replace=True)
            else:
                nodes = last
                if ids == "rewrite":
                    nodes.flags.writeable = True
                    nodes[:] = rng.choice(pool, size=len(nodes), replace=True)
            # Sizes are drawn the same way, when the previous ones fit.
            again = last_sizes is not None and len(last_sizes) == len(nodes)
            how = rng.choice(["new", "again", "rewrite"]) if again else "new"
            if how == "new":
                sizes = rng.integers(0, 200, size=len(nodes))
            else:
                sizes = last_sizes
                if how == "rewrite":
                    sizes.flags.writeable = True
                    sizes[:] = rng.integers(0, 200, size=len(nodes))
            if op == "send_bulk":
                kind = [None, "agg_push", "probe"][int(rng.integers(3))]
                acc.record_send_bulk(nodes, sizes, kind=kind)
                ref.record_send_bulk(nodes, sizes, kind=kind)
            else:
                acc.record_receive_bulk(nodes, sizes)
                ref.record_receive_bulk(nodes, sizes)
            nodes.flags.writeable = sizes.flags.writeable = False
            last, last_sizes = nodes, sizes
        elif op == "send":
            args = (int(rng.choice(pool)), int(rng.integers(200)), "agg_push")
            acc.record_send(*args)
            ref.record_send(*args)
        elif op == "receive":
            args = (int(rng.choice(pool)), int(rng.integers(200)))
            acc.record_receive(*args)
            ref.record_receive(*args)
        elif op == "add_load":
            node = int(rng.choice(pool))
            sent, received = (int(v) for v in rng.integers(0, 3, size=2))
            acc.add_load(node, sent=sent, received=received)
            ref.add_load(node, sent=sent, received=received)
        else:
            acc.reset()
            ref.reset()
        # A read folds what is pending; reading after some steps only lets
        # batches pile up across rewrites of the vectors they were kept by.
        if rng.random() < 0.4 or step == 119:
            assert_same_reads(acc, ref, pool.tolist() + [never_seen])


def test_same_ids_every_round_reuse_the_resolved_rows():
    # The continuous-push shape: identical sender and receiver vectors round
    # after round, then a round that differs in one id only.
    acc, ref = HotspotAccountant(), ReferenceAccountant()
    senders = np.arange(100, 200, dtype=np.int64)
    parents = senders // 3
    for round_no in range(4):
        sizes = np.full(len(senders), 90 + round_no)
        for side in (acc, ref):
            side.record_send_bulk(senders, sizes, kind="agg_push")
            side.record_receive_bulk(parents, sizes)
    changed = senders.copy()
    changed[17] = 5000
    for side in (acc, ref):
        side.record_send_bulk(changed, np.ones(len(changed), dtype=np.int64))
    assert_same_reads(acc, ref, sorted(set(senders.tolist()) | {5000, 33, 66}))


def test_a_kept_sizes_vector_rewritten_while_pending_folds_its_old_bytes():
    # A read-only sizes vector is known by identity while it stays read
    # only: a repeated batch is one more pending batch. Its caller may make
    # it writeable, rewrite it and record it so; the pending batches were
    # counted with the bytes it held, and must fold with those.
    acc, ref = HotspotAccountant(), ReferenceAccountant()
    senders = np.arange(10, 30, dtype=np.int64)
    sizes = np.full(len(senders), 40, dtype=np.int64)
    senders.flags.writeable = sizes.flags.writeable = False
    for _ in range(3):
        for side in (acc, ref):
            side.record_send_bulk(senders, sizes, kind="agg_push")
    assert acc._resolved[0].batches == 3
    sizes.flags.writeable = True
    sizes[::2] = 7
    for side in (acc, ref):
        side.record_send_bulk(senders, sizes, kind="agg_push")
    # Read only again, it is compared with the kept copy: the writeable
    # pass dropped its identity, and what it holds now is pending.
    sizes.flags.writeable = False
    for _ in range(2):
        for side in (acc, ref):
            side.record_send_bulk(senders, sizes, kind="agg_push")
    assert acc._resolved[0].batches == 3
    assert_same_reads(acc, ref, list(range(0, 35)))


def test_small_batches_on_a_large_ledger_stay_the_size_of_the_batch():
    # A jittered latency model delivers a round in about one group per
    # message. Each such batch must cost O(its rows): what the ledger keeps
    # per resolved batch is batch-sized, never ledger-sized.
    acc, ref = HotspotAccountant(), ReferenceAccountant()
    senders = np.arange(0, 3 * 4096, 3, dtype=np.int64)
    for side in (acc, ref):
        side.record_send_bulk(senders, np.full(len(senders), 64, dtype=np.int64))
    for group in np.array_split(senders[::-1] // 2, 700):
        sizes = np.arange(len(group), dtype=np.int64) + 50
        for side in (acc, ref):
            side.record_receive_bulk(group, sizes)
        for resolved in acc._resolved.values():
            kept = [getattr(resolved, f.name) for f in dataclasses.fields(resolved)]
            sizes_kept = {a.size for a in kept if isinstance(a, np.ndarray)}
            assert sizes_kept <= {len(group), len(senders)}
    assert_same_reads(acc, ref, sorted(set(senders.tolist()) | set((senders // 2).tolist())))


def test_caller_may_reuse_its_id_array_between_records():
    # The resolved index is validated against the ids it was resolved for;
    # keeping the caller's array instead of a copy would compare the new
    # ids with themselves and charge them to the old rows.
    acc, ref = HotspotAccountant(), ReferenceAccountant()
    nodes = np.arange(10, 20, dtype=np.int64)
    sizes = np.full(len(nodes), 7, dtype=np.int64)
    for side in (acc, ref):
        side.record_send_bulk(nodes, sizes, kind="agg_push")
        side.record_receive_bulk(nodes, sizes)
    nodes += 5  # in place: 15..24, half old ids, half new
    for side in (acc, ref):
        side.record_send_bulk(nodes, sizes, kind="agg_push")
        side.record_receive_bulk(nodes, sizes)
    nodes[:] = nodes[::-1]  # same ids, another order, no growth
    for side in (acc, ref):
        side.record_send_bulk(nodes, sizes + 1)
    assert_same_reads(acc, ref, list(range(5, 30)))


def test_growth_by_one_direction_invalidates_both_resolved_indexes():
    acc, ref = HotspotAccountant(), ReferenceAccountant()
    senders = np.arange(100, 140, dtype=np.int64)
    parents = senders // 2
    sizes = np.full(len(senders), 50, dtype=np.int64)
    for side in (acc, ref):
        side.record_send_bulk(senders, sizes)
        side.record_receive_bulk(parents, sizes)
    # Receivers below every known id: each ledger row shifts right, so the
    # send index resolved above is stale although the senders are the same.
    low = np.arange(1, 6, dtype=np.int64)
    for side in (acc, ref):
        side.record_receive_bulk(low, sizes[:5])
        side.record_send_bulk(senders, sizes)
        side.record_receive_bulk(parents, sizes)
    # ... and the other way round: new senders, same receivers.
    for side in (acc, ref):
        side.record_send_bulk(np.array([7, 8, 9], dtype=np.int64), sizes[:3])
        side.record_receive_bulk(parents, sizes)
        side.record_send_bulk(senders, sizes)
    assert_same_reads(acc, ref, list(range(0, 145)))


def test_batches_pending_between_reads_fold_to_the_reference():
    # Same-id batches with the same sizes are counted as pending, other
    # sizes fold first, and the ledger is written only when something
    # reads it or the ids change. Here reads are rare, so dozens
    # of batches pile up between them, with scalar records in between,
    # growth from the other direction and a reset while bytes are pending.
    rng = np.random.default_rng(17)
    acc, ref = HotspotAccountant(), ReferenceAccountant()
    senders = np.arange(100, 160, dtype=np.int64)
    parents = senders // 3
    population = list(range(0, 170)) + [5000]

    def rounds(count):
        for _ in range(count):
            sizes = rng.integers(0, 300, size=len(senders))
            for side in (acc, ref):
                side.record_send_bulk(senders, sizes, kind="agg_push")
                side.record_receive_bulk(parents, sizes + 1)
            node = int(rng.choice(senders))
            for side in (acc, ref):
                side.record_send(node, 40, "probe")
                side.record_receive(node // 3, 41)

    rounds(30)
    assert_same_reads(acc, ref, population)
    rounds(25)
    # New receivers below every known id while 25 send batches are pending:
    # every ledger row moves, so they must be folded first.
    low = np.array([1, 2, 3], dtype=np.int64)
    for side in (acc, ref):
        side.record_receive_bulk(low, np.array([7, 8, 9]))
    rounds(20)
    # ... and new senders while 20 receive batches are pending.
    for side in (acc, ref):
        side.record_send_bulk(np.array([5000], dtype=np.int64), np.array([11]))
    rounds(40)
    assert_same_reads(acc, ref, population)
    rounds(15)
    acc.reset()
    ref.reset()
    rounds(33)
    assert_same_reads(acc, ref, population)
    rounds(9)
    acc.reset()
    ref.reset()
    assert_same_reads(acc, ref, population)


def test_sample_statistics_match_reference():
    acc = HotspotAccountant(percentiles=(0.5, 0.9))
    nodes = np.array([1, 2, 2, 3, 3, 3, 4, 4, 4, 4], dtype=np.int64)
    acc.record_send_bulk(nodes, np.full(len(nodes), 10))
    acc.record_send(9)
    population = [1, 2, 3, 4, 9, 77]  # 77 idle: enters the averages at zero
    point = acc.sample(1.5, nodes=population)
    assert (point.n_nodes, point.total, point.maximum) == (6, 11, 4)
    assert point.mean == 11 / 6
    assert point.imbalance == 4 / (11 / 6)
    assert point.percentile(0.5) == 1.5
    assert point.percentile(0.9) == 3.5
    assert acc.percentile(0.5, population) == 1.5


def test_mismatched_columns_change_nothing():
    acc = HotspotAccountant()
    acc.record_send_bulk(np.array([1, 2]), np.array([10, 20]))
    with pytest.raises(ValueError):
        acc.record_send_bulk(np.array([1, 2]), np.array([1, 2, 3]))
    assert acc.total_messages() == 2
    assert acc.load(1).bytes_sent == 10


def test_bulk_records_from_one_thread_reads_from_another():
    acc = HotspotAccountant()
    senders = np.arange(1, 257, dtype=np.int64)
    parents = senders // 4
    sizes = np.full(len(senders), 100, dtype=np.int64)
    rounds = 400
    early = 12  # recorded before the reader starts: its first read folds them
    torn: list[str] = []
    batches_per_read: list[int] = []
    done = threading.Event()

    def record():
        for _ in range(rounds - early):
            acc.record_send_bulk(senders, sizes, kind="agg_push")
            acc.record_receive_bulk(parents, sizes)
        done.set()

    def read():
        population = senders.tolist()
        folded = 0
        while True:
            finished = done.is_set()
            sent, received, bytes_sent, bytes_received = acc.load_arrays(senders)
            # One lock hold per batch and per read: a reader sees whole
            # batches only, and counts and bytes of the same batches, however
            # many of them were pending when it read.
            if len(set(sent.tolist())) != 1:
                torn.append(f"partial send batch visible: {set(sent.tolist())}")
            if (bytes_sent != sent * 100).any():
                torn.append("sent counts and bytes from different batches")
            if (bytes_received != received * 100).any():
                torn.append("received counts and bytes from different batches")
            batches_per_read.append(int(sent[0]) - folded)
            folded = int(sent[0])
            if acc.total_messages() % len(senders):
                torn.append("total_messages saw a partial batch")
            acc.imbalance(population)
            acc.loads(population)
            if finished:
                return

    for _ in range(early):
        acc.record_send_bulk(senders, sizes, kind="agg_push")
        acc.record_receive_bulk(parents, sizes)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=record), threading.Thread(target=read)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
        done.set()
    assert not any(thread.is_alive() for thread in threads)
    assert not torn, torn[:3]
    assert batches_per_read[0] >= early and sum(batches_per_read) == rounds
    assert acc.total_messages() == rounds * len(senders)
    assert acc.by_kind() == {"agg_push": rounds * len(senders)}
    sent, received, bytes_sent, bytes_received = acc.load_arrays(np.arange(0, 257))
    assert sent.tolist() == [0] + [rounds] * 256
    assert int(received.sum()) == rounds * len(senders)
    assert received[:65].tolist() == [3 * rounds] + [4 * rounds] * 63 + [rounds]
    assert (bytes_sent == sent * 100).all() and (bytes_received == received * 100).all()
