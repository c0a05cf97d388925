"""Slab protocol runner — wire sizes and batch mechanics.

The slab path never encodes a message, yet claims byte-exact traffic
accounting: every row of a :class:`~repro.sim.messages.MessageBatch` must
carry exactly the size its materialized scalar
:class:`~repro.sim.messages.Message` would put on the wire. An ``agg_push``
layout has no variable part for a given aggregate, so a run builds one
read-only size column and sends it every round; these tests capture the
batches a run emits and compare row sizes against
``message(i).encoded_size()`` for every aggregate and any readings. Full
slab-vs-oracle protocol equivalence lives in
``tests/property/test_prop_protocol.py``.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from repro.chord.block import ChordNodeBlock
from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.core.aggregates import StdAggregate
from repro.core.slab import SlabContinuousRun, run_protocol_slab
from repro.errors import AggregationError, IdentifierError
from repro.sim.messages import Message, reset_msg_ids
from repro.sim.simnet import SimTransport
from tests.oracles import run_protocol_oracle


#: The built-in column aggregates whose lift takes any reading, a NaN too.
NUMERIC_AGGREGATES = ("sum", "count", "min", "max", "avg")


def build_ring(n, bits=16, seed=3):
    return make_assigner("random").build_ring(IdSpace(bits), n, rng=seed)


def capture_batches(transport):
    """Shadow send_batch with a capturing wrapper (still delivers)."""
    captured = []
    original = transport.send_batch

    def wrapper(batch, deliver):
        captured.append(batch)
        original(batch, deliver)

    transport.send_batch = wrapper
    return captured


class TestBatchWireSizes:
    @pytest.mark.parametrize("aggregate", NUMERIC_AGGREGATES)
    @pytest.mark.parametrize("scheme", ["basic", "balanced"])
    def test_sizes_equal_materialized_encoded_size(self, aggregate, scheme):
        # Every round sends the one size column built with the run, so
        # readings are rewritten between rounds: signed zeros, a NaN and
        # fractional values, each held long enough for some states to
        # repeat and others to change; none may move a row's size. Id
        # blocks start at several points of the msg_id sequence.
        ring = build_ring(40)
        rng = np.random.default_rng(8)
        signed = np.where(np.arange(40) % 2 == 0, 0.0, -0.0)
        with_nan = rng.uniform(-50.0, 50.0, size=40)
        with_nan[7] = np.nan
        readings = [
            np.zeros(40),  # avg: the count column grows under a fixed sum
            rng.uniform(-50.0, 50.0, size=40),  # varied repr lengths
            np.full(40, -0.0),
            signed,
            -signed,
            with_nan,
            np.round(rng.uniform(-50.0, 50.0, size=40)),
        ]
        for first_id in (1, 95, 9_990):
            reset_msg_ids(first_id)
            transport = SimTransport()
            captured = capture_batches(transport)
            block = ChordNodeBlock.from_ring(ring)
            run = SlabContinuousRun(
                block, transport, 0x3A7, aggregate, readings[0].copy(), scheme=scheme
            )
            run.start()
            with np.errstate(invalid="ignore"):  # min/max of a NaN
                for held, values in enumerate(readings):
                    run.values = values
                    transport.run(until=3 * held + 3.5)
            run.stop()
            assert len(captured) == 3 * len(readings)
            assert captured[0].msg_id_start == first_id
            assert all(batch.sizes is run._sizes for batch in captured)
            assert not run._sizes.flags.writeable
            for batch in captured:
                for i in range(len(batch)):
                    message = batch.message(i)
                    assert int(batch.sizes[i]) == message.encoded_size(), (
                        aggregate,
                        scheme,
                        first_id,
                        i,
                        message,
                    )

    @pytest.mark.parametrize("aggregate", ["min", "max"])
    def test_infinite_state_is_sized_like_a_finite_one(self, aggregate):
        # An unbounded reading is an f64 like any other.
        reset_msg_ids()
        transport = SimTransport()
        captured = capture_batches(transport)
        values = np.full(12, -np.inf if aggregate == "min" else np.inf)
        values[::3] = 2.5
        run_protocol_slab(
            build_ring(12), key=77, rounds=3, aggregate=aggregate,
            values=values, transport=transport,
        )
        states = np.concatenate([b.payload_columns["state0"] for b in captured])
        assert np.isinf(states).any() and np.isfinite(states).any()
        for batch in captured:
            sizes = [batch.message(i).encoded_size() for i in range(len(batch))]
            assert batch.sizes.tolist() == sizes

    def test_msg_ids_contiguous_across_rounds(self):
        reset_msg_ids()
        ring = build_ring(16)
        transport = SimTransport()
        captured = capture_batches(transport)
        run_protocol_slab(ring, key=1, rounds=3, transport=transport)
        all_ids = np.concatenate([batch.msg_ids() for batch in captured])
        assert all_ids.tolist() == list(range(1, len(all_ids) + 1))


class TestRemeasuredRows:
    """No round measures a wire size: the run measured one probe push when
    it was built. What a changed reading moves is the pushed states, one
    row per round up its path to the root."""

    def test_steady_rounds_measure_nothing_and_a_change_its_path(self, monkeypatch):
        block = ChordNodeBlock.from_ring(build_ring(64, seed=5))
        transport = SimTransport()
        captured = capture_batches(transport)
        run = SlabContinuousRun(block, transport, 0x77, "sum", np.arange(1.0, 65.0))
        measured = []
        monkeypatch.setattr(
            Message, "encoded_size", lambda message: measured.append(message) or 0
        )

        def changed_per_round(rounds):
            """The push rows whose state differs, bit for bit, from what
            the round before sent (every row in the first round)."""
            per_round = []
            for _ in range(rounds):
                before = captured[-1].payload_columns["state0"] if captured else None
                transport.run(until=run.rounds_run + 1.5)
                states = captured[-1].payload_columns["state0"]
                if before is None:
                    per_round.append(list(range(len(states))))
                else:
                    differ = states.view(np.int64) != before.view(np.int64)
                    per_round.append(np.flatnonzero(differ).tolist())
            return per_round

        run.start()
        first = changed_per_round(1)
        assert len(first[0]) == len(run.push_rows)
        changed_per_round(20)
        assert run.estimate == float(np.arange(1.0, 65.0).sum())
        assert changed_per_round(4) == [[]] * 4

        # The deepest push row: its path to the root, one push row per hop.
        row_of = {int(node): row for row, node in enumerate(run.push_rows)}
        paths = []
        for row in range(len(run.push_rows)):
            path = [row]
            while int(run.parent_index[path[-1]]) != run.owner_index:
                path.append(row_of[int(run.parent_index[path[-1]])])
            paths.append(path)
        path = max(paths, key=len)
        assert len(path) >= 3
        values = run.values.copy()
        values[run.push_rows[path[0]]] += 1000.0
        run.values = values
        changed = changed_per_round(len(path) + 3)
        assert run.estimate == float(np.arange(1.0, 65.0).sum()) + 1000.0
        # One row per round, hop by hop up the path, then nothing again.
        assert changed == [[row] for row in path] + [[]] * 3

        # A converged round re-sends what it sent unless a reading moved bit
        # for bit: 0.0 -> -0.0 is the same value and the same size. The
        # deepest row is a leaf, so only its own state changes.
        leaf = path[0]
        total = run.estimate - float(run.values[run.push_rows[leaf]])
        values[run.push_rows[leaf]] = 0.0
        run.values = values
        changed_per_round(len(path) + 3)
        assert run.estimate == total
        values[run.push_rows[leaf]] = -0.0
        run.values = values
        assert changed_per_round(3) == [[leaf], [], []]
        assert np.signbit(captured[-3].payload_columns["state0"][leaf])
        assert run.estimate == total
        assert measured == []
        assert all(batch.sizes is captured[0].sizes for batch in captured)


class TestConvergedRounds:
    def test_entries_fresh_again_are_merged_in(self):
        # The root is cut off for longer than the expiry horizon, then
        # reachable again. The rest of the tree keeps pushing its converged
        # states, so its children's entries come back unchanged; the
        # entries being fresh again is still a change the root must merge.
        block = ChordNodeBlock.from_ring(build_ring(64, seed=5))
        transport = SimTransport()
        run = SlabContinuousRun(block, transport, 0x77, "sum", np.arange(1.0, 65.0))
        run.start()
        transport.run(until=20.5)
        total = float(np.arange(1.0, 65.0).sum())
        assert run.estimate == total
        transport.fail(run.root)
        transport.run(until=30.5)
        assert run.estimate == float(run.values[run.owner_index])
        transport.recover(run.root)
        transport.run(until=32.5)
        assert run.estimate == total


class TestBatchOwnership:
    def test_delivered_batch_columns_survive_later_rounds(self):
        # A whole-round delivery makes the batch's state columns the cache,
        # and a converged round sends those very columns again; a partial
        # delivery (here: loss) then writes rows into the cache. No write
        # may reach a column some batch sent.
        reset_msg_ids()
        transport = SimTransport(rng=5)
        sent = []
        send_batch = transport.send_batch

        def snapshot_at_send(batch, deliver):
            columns = {name: col.copy() for name, col in batch.payload_columns.items()}
            sent.append((batch, columns))
            send_batch(batch, deliver)

        transport.send_batch = snapshot_at_send
        values = np.random.default_rng(4).uniform(1.0, 9.0, size=48)
        ring = build_ring(48, seed=12)
        block = ChordNodeBlock.from_ring(ring)
        run = SlabContinuousRun(block, transport, 0x51, "avg", values)
        run.start()
        transport.run(until=12.5)
        assert len(sent) == 12
        # Converged: the last round re-sent the columns it had sent, and
        # their delivery is the cache.
        last = sent[-1][0].payload_columns
        assert last["state0"] is sent[-2][0].payload_columns["state0"]
        assert run.cache[0] is last["state0"] and run.cache[1] is last["state1"]
        transport.loss_rate = 0.3
        transport.run(until=20.5)
        assert len(sent) == 20
        assert not any(
            np.shares_memory(column, cached)
            for column in last.values() for cached in run.cache
        )
        for batch, at_send in sent:
            for name, column in batch.payload_columns.items():
                assert not column.flags.writeable
                np.testing.assert_array_equal(column, at_send[name])
        # ... and the early rounds did differ from the converged state.
        assert not np.array_equal(sent[0][1]["state0"], last["state0"])

    def test_pushes_sent_counts_rounds_on_push_rows_only(self):
        ring = build_ring(20, seed=2)
        block = ChordNodeBlock.from_ring(ring)
        transport = SimTransport()
        run = SlabContinuousRun(block, transport, 9, "sum", np.ones(20))
        assert run.pushes_sent.tolist() == [0] * 20
        run.start()
        transport.run(until=5.5)
        expected = np.full(20, 5)
        expected[run.owner_index] = 0
        np.testing.assert_array_equal(run.pushes_sent, expected)

    def test_second_start_replaces_the_armed_timer(self):
        # Like DatNodeService.start_continuous on an active key: a second
        # start() must not leave the first timer chain running, where
        # stop() can no longer reach it.
        block = ChordNodeBlock.from_ring(build_ring(64, seed=5))
        transport = SimTransport()
        run = SlabContinuousRun(block, transport, 0x77, "sum", np.ones(64))
        run.start()
        run.start()
        transport.run(until=3.5)
        assert run.rounds_run == 3
        run.stop()
        transport.run(until=10.5)
        assert run.rounds_run == 3
        assert len(transport.engine._heap) == 0


class TestSlabRunValidation:
    def test_rejects_unsupported_aggregate(self):
        # Top-k and std merge no column elementwise: the object path's.
        ring = build_ring(8)
        block = ChordNodeBlock.from_ring(ring)
        for aggregate in ("topk", StdAggregate()):
            with pytest.raises(AggregationError):
                SlabContinuousRun(block, SimTransport(), 1, aggregate, np.ones(8))

    def test_rejects_mismatched_values(self):
        ring = build_ring(8)
        block = ChordNodeBlock.from_ring(ring)
        with pytest.raises(AggregationError):
            SlabContinuousRun(block, SimTransport(), 1, "sum", np.ones(5))

    def test_run_protocol_rejects_unsupported_aggregate(self):
        with pytest.raises(AggregationError):
            run_protocol_slab(build_ring(8), 1, rounds=1, aggregate="std")

    @pytest.mark.parametrize("key", [2**16 + 5, -3])
    def test_rejects_keys_outside_the_space_like_the_oracle(self, key):
        # The slab used to run such a key as key mod 2^bits and converge on
        # that key's root; the per-node services raise.
        ring = build_ring(8)
        block = ChordNodeBlock.from_ring(ring)
        with pytest.raises(IdentifierError):
            SlabContinuousRun(block, SimTransport(), key, "sum", np.ones(8))
        for run in (run_protocol_slab, run_protocol_oracle):
            with pytest.raises(IdentifierError):
                run(ring, key, rounds=1)


class TestRunResults:
    def test_result_shape_and_convergence(self):
        reset_msg_ids()
        ring = build_ring(64, seed=5)
        result = run_protocol_slab(ring, key=99, rounds=20)
        assert result.n_nodes == 64
        assert result.root == ring.successor(99)
        assert result.estimate == 64.0  # SUM of unit values == membership
        assert result.messages_total == int(result.sent.sum())
        assert result.bytes_total == int(result.bytes_sent.sum())
        assert result.pushes_total == result.messages_total
        # 63 pushers, one push per round.
        assert result.messages_total == 63 * 20

    def test_state_bytes_within_memory_gate(self):
        reset_msg_ids()
        ring = build_ring(256, bits=32, seed=6)
        result = run_protocol_slab(ring, key=5, rounds=2)
        assert 0 < result.state_bytes / result.n_nodes <= 128

    def test_oracle_small_ring_agrees(self):
        # The cheapest end-to-end cross-check; the property suite sweeps.
        ring = build_ring(24, seed=9)
        reset_msg_ids()
        slab = run_protocol_slab(ring, key=7, rounds=6)
        reset_msg_ids()
        oracle = run_protocol_oracle(ring, key=7, rounds=6)
        assert slab.estimate == oracle.estimate
        assert slab.root == oracle.root
        assert slab.pushes_total == oracle.pushes_total
        np.testing.assert_array_equal(slab.sent, oracle.sent)
        np.testing.assert_array_equal(slab.bytes_sent, oracle.bytes_sent)


class TestRoundCost:
    """A push round is a fixed number of array passes, whatever ``n``.

    Counted, not timed: every call (Python or builtin) made and every
    source line executed while one steady-state round is sent and delivered
    at n = 16384. Per-message work on any layer costs at least n of one or
    the other — a ``repr`` per state is a call, a dict update per sender in
    a ``for`` loop is a line. Measured with numpy 2.4 (whose own Python
    wrappers are in the count): 90 calls / 253 lines for ``sum``, 98 / 266
    for ``avg``, 89 / 252 for ``count`` (128 / 320, 157 / 365 and 127 / 307
    while rounds measured changed rows' JSON sizes); the bounds were set a
    quarter above the latter for another numpy's wrappers. Of the ``ufunc.at`` scatters only
    the merge's are left: the hotspot ledger's are deferred to its reads.

    Once converged (the root exact, two more rounds delivered), a round
    with the same readings re-sends what it sent: no merge scatter, no
    gather, and no ``array_equal`` of the ledger's id or size vectors,
    which it knows by identity. Nor does it compare the readings: they are
    compared once, when they are set. Measured: 74 calls / 225 lines for
    ``sum``, 75 / 231 for ``avg``, 74 / 225 for ``count`` (81 / 239, 82 / 245
    and 75 / 232 while every round compared the readings), bounded with the
    same quarter.
    """

    N_NODES = 16384
    MAX_CALLS = 198
    MAX_LINES = 498
    MAX_CONVERGED_CALLS = 94
    MAX_CONVERGED_LINES = 289
    MERGE_SCATTERS = {"sum": ["add"], "avg": ["add", "add"], "count": ["add"]}

    def start_run(self, aggregate):
        ring = build_ring(self.N_NODES, bits=32, seed=11)
        block = ChordNodeBlock.from_ring(ring)
        values = np.arange(self.N_NODES, dtype=np.float64) % 100 + 1
        transport = SimTransport()
        run = SlabContinuousRun(block, transport, 0xA5A5A5, aggregate, values)
        run.start()
        return run, transport

    @staticmethod
    def count_round(transport, until):
        """Calls and lines of ``transport.run(until)``, and the names of
        the ``ufunc.at``, ``ndarray.take`` and ``array_equal`` it calls."""
        counts = {"call": 0, "c_call": 0, "line": 0}
        named: list[str] = []

        def profile(frame, event, arg):
            if event in counts:
                counts[event] += 1
            if event == "c_call" and getattr(arg, "__qualname__", "") == "ufunc.at":
                named.append(f"at:{arg.__self__.__name__}")
            elif event == "c_call" and getattr(arg, "__qualname__", "") == "ndarray.take":
                named.append("take")
            elif event == "call" and frame.f_code.co_name == "array_equal":
                named.append("array_equal")

        def trace(frame, event, arg):
            if event == "line":
                counts["line"] += 1
            return trace

        previous = sys.getprofile(), sys.gettrace()
        sys.setprofile(profile)
        sys.settrace(trace)
        try:
            transport.run(until=until)
        finally:
            sys.setprofile(previous[0])
            sys.settrace(previous[1])
        return counts, named

    @pytest.mark.parametrize("aggregate", ["sum", "avg", "count"])
    def test_steady_state_round_call_and_line_count(self, aggregate):
        run, transport = self.start_run(aggregate)
        transport.run(until=3.5)  # ledger grown, three rounds delivered
        # Round four: sent at 4.0, delivered at 4.001.
        counts, named = self.count_round(transport, 4.5)
        assert run.rounds_run == 4
        assert transport.stats.total_messages() == 4 * (self.N_NODES - 1)
        # The merge's scatters and nothing else: the hotspot ledger adds up
        # its bytes when it is read, not every round.
        scatters = [name[3:] for name in named if name.startswith("at:")]
        assert scatters == self.MERGE_SCATTERS[aggregate]
        assert counts["call"] + counts["c_call"] < self.MAX_CALLS, counts
        assert counts["line"] < self.MAX_LINES, counts

    def converged_run(self, aggregate):
        """A run whose root is exact, two more rounds delivered since."""
        run, transport = self.start_run(aggregate)
        total = float(run.values.sum())
        truth = {"sum": total, "avg": total / self.N_NODES, "count": self.N_NODES}
        while run.estimate != truth[aggregate]:
            transport.run(until=run.rounds_run + 1.5)
            assert run.rounds_run < 40
        transport.run(until=run.rounds_run + 2.5)
        return run, transport, truth[aggregate]

    def named_per_round(self, run, transport, rounds):
        """The ``ufunc.at`` / ``take`` / ``array_equal`` calls of each of the
        next ``rounds`` rounds, each sent and delivered."""
        return [self.count_round(transport, run.rounds_run + 1.5)[1] for _ in range(rounds)]

    @pytest.mark.parametrize("aggregate", ["sum", "avg", "count"])
    def test_converged_round_merges_gathers_and_compares_nothing(self, aggregate):
        run, transport, truth = self.converged_run(aggregate)
        rounds = run.rounds_run
        counts, named = self.count_round(transport, rounds + 1.5)
        assert run.rounds_run == rounds + 1
        assert run.estimate == truth
        assert named == []
        assert counts["call"] + counts["c_call"] < self.MAX_CONVERGED_CALLS, counts
        assert counts["line"] < self.MAX_CONVERGED_LINES, counts

    @pytest.mark.parametrize("aggregate", ["sum", "avg", "count"])
    def test_converged_round_allocates_no_per_node_array(self, aggregate):
        # Its batch, its events and its ledger records are a fixed number of
        # small objects; a bool compare of the readings alone is n bytes.
        run, transport, _truth = self.converged_run(aggregate)
        rounds = run.rounds_run
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            transport.run(until=rounds + 1.5)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert run.rounds_run == rounds + 1
        assert peak < self.N_NODES // 4, peak

    def test_readings_are_set_and_compared_once(self):
        run, transport, truth = self.converged_run("sum")
        with pytest.raises(ValueError):
            run.values[0] = 5.0
        with pytest.raises(AggregationError):
            run.values = np.ones(self.N_NODES - 1)
        assert run.values.sum() == truth
        # The same bits in another array: every round stays at the floor.
        run.values = run.values.copy()
        assert self.named_per_round(run, transport, 2) == [[], []]
        # The owner's reading is pushed to no one, so a changed bit of it
        # re-merges one round and moves no cached state: 0.0, then -0.0.
        merge = ["at:add", "take"]
        values = run.values.copy()
        owner = float(values[run.owner_index])
        values[run.owner_index] = 0.0
        run.values = values
        assert not run.values.flags.writeable and values.flags.writeable
        assert self.named_per_round(run, transport, 3) == [merge, [], []]
        assert run.estimate == truth - owner
        values[run.owner_index] = -0.0
        run.values = values
        assert self.named_per_round(run, transport, 3) == [merge, [], []]
        assert run.estimate == truth - owner
        assert np.signbit(run.values[run.owner_index])
