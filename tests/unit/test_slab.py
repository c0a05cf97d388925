"""Slab protocol runner — wire-size arithmetic and batch mechanics.

The slab path never JSON-encodes a message, yet claims byte-exact traffic
accounting: every row of a :class:`~repro.sim.messages.MessageBatch` must
carry exactly the size its materialized scalar
:class:`~repro.sim.messages.Message` would put on the wire. These tests
capture the batches a run emits and compare row sizes against
``message(i).encoded_size()`` for every aggregate, which pins the whole
arithmetic chain (envelope overhead, digit counts, float numeral lengths,
tuple-state overhead). Full slab-vs-oracle protocol equivalence lives in
``tests/property/test_prop_protocol.py``.
"""

import sys

import numpy as np
import pytest

from repro.chord.block import ChordNodeBlock
from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.core.slab import SLAB_AGGREGATES, SlabContinuousRun, run_protocol_slab
from repro.errors import AggregationError, IdentifierError
from repro.sim.messages import reset_msg_ids
from repro.sim.simnet import SimTransport
from tests.oracles import run_protocol_oracle


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
    @pytest.mark.parametrize("aggregate", SLAB_AGGREGATES)
    @pytest.mark.parametrize("scheme", ["basic", "balanced"])
    def test_sizes_equal_materialized_encoded_size(self, aggregate, scheme):
        reset_msg_ids()
        ring = build_ring(40)
        transport = SimTransport()
        captured = capture_batches(transport)
        rng = np.random.default_rng(8)
        values = rng.uniform(-50.0, 50.0, size=40)  # varied repr lengths
        run_protocol_slab(
            ring,
            key=0x3A7,
            rounds=4,
            aggregate=aggregate,
            scheme=scheme,
            values=values,
            transport=transport,
        )
        assert captured, "no batches captured"
        for batch in captured:
            for i in range(len(batch)):
                message = batch.message(i)
                assert int(batch.sizes[i]) == message.encoded_size(), (
                    aggregate,
                    scheme,
                    i,
                    message,
                )

    @pytest.mark.parametrize("aggregate", ["min", "max"])
    def test_infinite_state_is_sized_as_json_writes_it(self, aggregate):
        # An unbounded reading travels as ``Infinity`` / ``-Infinity`` (8 / 9
        # bytes), not as ``repr``'s ``inf`` / ``-inf``.
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


class TestBatchOwnership:
    def test_delivered_batch_columns_survive_later_rounds(self):
        # The cache copies a delivered state column; it must not adopt it
        # (a later delivery would then write through into an old batch).
        reset_msg_ids()
        transport = SimTransport()
        captured = capture_batches(transport)
        values = np.random.default_rng(4).uniform(1.0, 9.0, size=48)
        ring = build_ring(48, seed=12)
        block = ChordNodeBlock.from_ring(ring)
        run = SlabContinuousRun(block, transport, 0x51, "avg", values)
        run.start()
        transport.run(until=2.5)
        snapshot = [
            {name: col.copy() for name, col in batch.payload_columns.items()}
            for batch in captured
        ]
        assert len(snapshot) == 2
        transport.run(until=9.5)
        assert len(captured) == 9
        for batch, before in zip(captured, snapshot):
            for name, column in batch.payload_columns.items():
                np.testing.assert_array_equal(column, before[name])
                assert not any(np.shares_memory(column, c) for c in run.cache)
        # ... and the early rounds did differ from the converged state.
        assert not np.array_equal(
            captured[0].payload_columns["state0"],
            captured[-1].payload_columns["state0"],
        )

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
        assert transport.engine.pending == 0


class TestSlabRunValidation:
    def test_rejects_unsupported_aggregate(self):
        ring = build_ring(8)
        block = ChordNodeBlock.from_ring(ring)
        with pytest.raises(AggregationError):
            SlabContinuousRun(
                block, SimTransport(), 1, "histogram", np.ones(8)
            )

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
        assert 0 < result.state_bytes / result.n_nodes <= 4096

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
    wrappers are in the count): 132 calls / 357 lines for ``sum``, 158 /
    398 for ``avg``, 132 / 344 for ``count``; the bounds leave a quarter
    on top for another numpy's wrappers. Of the ``ufunc.at`` scatters only
    the merge's are left: the hotspot ledger's are deferred to its reads.
    """

    N_NODES = 16384
    MAX_CALLS = 198
    MAX_LINES = 498
    MERGE_SCATTERS = {"sum": ["add"], "avg": ["add", "add"], "count": ["add"]}

    @pytest.mark.parametrize("aggregate", ["sum", "avg", "count"])
    def test_steady_state_round_call_and_line_count(self, aggregate):
        ring = build_ring(self.N_NODES, bits=32, seed=11)
        block = ChordNodeBlock.from_ring(ring)
        values = np.arange(self.N_NODES, dtype=np.float64) % 100 + 1
        transport = SimTransport()
        run = SlabContinuousRun(block, transport, 0xA5A5A5, aggregate, values)
        run.start()
        transport.run(until=3.5)  # ledger grown, three rounds delivered

        counts = {"call": 0, "c_call": 0, "line": 0}
        scatters: list[str] = []

        def profile(frame, event, arg):
            if event in counts:
                counts[event] += 1
            if event == "c_call" and getattr(arg, "__qualname__", "") == "ufunc.at":
                scatters.append(arg.__self__.__name__)

        def trace(frame, event, arg):
            if event == "line":
                counts["line"] += 1
            return trace

        previous = sys.getprofile(), sys.gettrace()
        sys.setprofile(profile)
        sys.settrace(trace)
        try:
            transport.run(until=4.5)  # round four: sent at 4.0, delivered at 4.001
        finally:
            sys.setprofile(previous[0])
            sys.settrace(previous[1])
        assert run.rounds_run == 4
        assert transport.stats.total_messages() == 4 * (self.N_NODES - 1)
        # The merge's scatters and nothing else: the hotspot ledger adds up
        # its bytes when it is read, not every round.
        assert scatters == self.MERGE_SCATTERS[aggregate]
        assert counts["call"] + counts["c_call"] < self.MAX_CALLS, counts
        assert counts["line"] < self.MAX_LINES, counts
