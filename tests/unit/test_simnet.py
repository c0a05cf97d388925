"""Unit tests for the discrete-event transport."""

import numpy as np
import pytest

from repro import telemetry
from repro.chord.idgen import ProbingIdAssigner
from repro.chord.idspace import IdSpace
from repro.core.slab import run_protocol_slab
from repro.sim.latency import ConstantLatency
from repro.sim.messages import Message, MessageBatch
from repro.sim.simnet import SimTransport, _delay_groups


def collector(sink: list) -> callable:
    return lambda message: sink.append(message) or None


class TestDelivery:
    def test_delivery_after_latency(self):
        transport = SimTransport(latency=ConstantLatency(0.5))
        received: list[Message] = []
        transport.register(2, collector(received))
        transport.send(Message(kind="x", source=1, destination=2))
        assert received == []  # not yet delivered
        transport.run(until=0.4)
        assert received == []
        transport.run(until=0.6)
        assert len(received) == 1

    def test_fifo_for_equal_latency(self):
        transport = SimTransport(latency=ConstantLatency(0.1))
        received: list[int] = []
        transport.register(2, lambda m: received.append(m.payload["i"]) or None)
        for i in range(5):
            transport.send(Message(kind="x", source=1, destination=2, payload={"i": i}))
        transport.run()
        assert received == [0, 1, 2, 3, 4]

    def test_unregistered_destination_dropped(self):
        transport = SimTransport()
        transport.send(Message(kind="x", source=1, destination=9))
        transport.run()
        assert transport.stats.load(9).received == 0


class TestLoss:
    def test_full_loss_drops_everything(self):
        transport = SimTransport(loss_rate=1.0, rng=0)
        received: list[Message] = []
        transport.register(2, collector(received))
        for _ in range(10):
            transport.send(Message(kind="x", source=1, destination=2))
        transport.run()
        assert received == []

    def test_partial_loss_statistical(self):
        transport = SimTransport(loss_rate=0.5, rng=1)
        received: list[Message] = []
        transport.register(2, collector(received))
        for _ in range(400):
            transport.send(Message(kind="x", source=1, destination=2))
        transport.run()
        assert 120 < len(received) < 280

    def test_rejects_bad_loss_rate(self):
        with pytest.raises(ValueError):
            SimTransport(loss_rate=1.5)


class TestFailureInjection:
    def test_failed_destination_drops(self):
        transport = SimTransport()
        received: list[Message] = []
        transport.register(2, collector(received))
        transport.fail(2)
        transport.send(Message(kind="x", source=1, destination=2))
        transport.run()
        assert received == []
        assert transport.is_failed(2)

    def test_failed_source_drops(self):
        transport = SimTransport()
        received: list[Message] = []
        transport.register(2, collector(received))
        transport.fail(1)
        transport.send(Message(kind="x", source=1, destination=2))
        transport.run()
        assert received == []

    def test_recover(self):
        transport = SimTransport()
        received: list[Message] = []
        transport.register(2, collector(received))
        transport.fail(2)
        transport.recover(2)
        transport.send(Message(kind="x", source=1, destination=2))
        transport.run()
        assert len(received) == 1

    def test_failure_mid_flight(self):
        # A message already in flight is lost if the destination dies
        # before delivery.
        transport = SimTransport(latency=ConstantLatency(1.0))
        received: list[Message] = []
        transport.register(2, collector(received))
        transport.send(Message(kind="x", source=1, destination=2))
        transport.fail(2)
        transport.run()
        assert received == []


class TestDropCounters:
    """Every dropped message counts once in ``messages_dropped_total`` under
    its reason, on the scalar and the batched path alike."""

    @pytest.fixture
    def tel(self):
        with telemetry.enabled() as tel:
            yield tel

    @staticmethod
    def _dropped(tel) -> dict[str, float]:
        family = tel.counter("messages_dropped_total", labels=("reason",))
        return {dict(s.labels)["reason"]: s.value for s in family.samples()}

    @staticmethod
    def _batch(n: int) -> MessageBatch:
        sources = np.arange(n, dtype=np.int64)
        return MessageBatch(
            kind="x",
            sources=sources,
            destinations=(sources + 1) % n,
            sizes=np.full(n, 10, dtype=np.int64),
            msg_id_start=0,
        )

    def test_scalar_failed_and_no_handler(self, tel):
        transport = SimTransport(latency=ConstantLatency(1.0))
        transport.register(2, lambda message: None)
        transport.fail(7)
        transport.send(Message(kind="x", source=7, destination=2))  # source down
        transport.send(Message(kind="x", source=1, destination=7))  # destination down
        transport.send(Message(kind="x", source=1, destination=9))  # no handler
        transport.send(Message(kind="x", source=1, destination=2))  # dies in flight
        transport.send(Message(kind="x", source=1, destination=2))
        assert self._dropped(tel) == {"failed": 2.0}
        transport.fail(2)
        transport.run()
        assert self._dropped(tel) == {"failed": 4.0, "no_handler": 1.0}

    def test_scalar_loss(self, tel):
        transport = SimTransport(loss_rate=0.5, rng=1)
        received: list[Message] = []
        transport.register(2, collector(received))
        for _ in range(400):
            transport.send(Message(kind="x", source=1, destination=2))
        transport.run()
        assert self._dropped(tel) == {"loss": float(400 - len(received))}

    def test_batch_failed_and_loss(self, tel):
        transport = SimTransport(loss_rate=0.5, rng=2)
        arrived: list[int] = []
        transport.fail(3)  # rows 2 -> 3 and 3 -> 4
        transport.send_batch(self._batch(40), lambda batch, rows: arrived.append(len(rows)))
        # One loss draw per failure survivor, in row order.
        lost = int((np.random.default_rng(2).random(38) < 0.5).sum())
        assert self._dropped(tel) == {"failed": 2.0, "loss": float(lost)}
        transport.run()
        assert sum(arrived) == 38 - lost
        assert self._dropped(tel) == {"failed": 2.0, "loss": float(lost)}

    def test_batch_in_flight_counts_every_row(self, tel):
        transport = SimTransport()
        transport.send_batch(self._batch(8), lambda batch, rows: None)
        for node in (1, 2, 5):
            transport.fail(node)
        transport.run()
        assert self._dropped(tel) == {"failed": 3.0}

    def test_plain_slab_round_counts_nothing(self, tel):
        ring = ProbingIdAssigner().build_ring(IdSpace(16), 64, rng=3)
        run_protocol_slab(ring, 1234, 2)
        assert tel.counter("messages_sent_total", labels=("kind",)).samples()
        assert self._dropped(tel) == {}


class TestRpcOverSim:
    def test_call_and_timeout(self):
        transport = SimTransport(latency=ConstantLatency(0.1))
        transport.register(2, lambda m: m.response(ok=True))
        transport.register(1, lambda m: None)
        replies: list[Message] = []
        timeouts: list[Message] = []
        transport.call(
            Message(kind="q", source=1, destination=2),
            replies.append,
            on_timeout=timeouts.append,
            timeout=5.0,
        )
        transport.call(
            Message(kind="q", source=1, destination=99),
            replies.append,
            on_timeout=timeouts.append,
            timeout=5.0,
        )
        transport.run(until=10.0)
        assert len(replies) == 1
        assert len(timeouts) == 1

    def test_resolve_completes_a_call_in_place(self):
        transport = SimTransport(latency=ConstantLatency(0.1))
        replies: list[Message] = []
        timeouts: list[Message] = []
        request = Message(kind="q", source=1, destination=1)
        transport.expect(request, replies.append, on_timeout=timeouts.append, timeout=5.0)
        reply = Message(kind="a", source=1, destination=1, reply_to=request.msg_id)
        transport.resolve(reply)
        assert replies == [reply]
        assert transport.pending_calls() == 0
        assert transport.engine.pending == 0  # deadline revoked
        transport.resolve(reply)  # unmatched: dropped
        transport.run(until=10.0)
        assert replies == [reply] and timeouts == []
        assert transport.stats.total_messages() == 0

    def test_kind_accounting(self):
        transport = SimTransport()
        transport.register(2, lambda m: None)
        transport.send(Message(kind="lookup", source=1, destination=2))
        transport.send(Message(kind="lookup", source=1, destination=2))
        transport.run()
        assert transport.stats.by_kind()["lookup"] == 2


def _mask_loop_groups(index, delays):
    """The grouping ``send_batch`` ran before: one mask per distinct delay."""
    return [(float(d), index[delays == d]) for d in np.unique(delays)]


class TestDelayGroups:
    """One stable sort replaces a mask per distinct delay: same groups, same
    group order, same rows in the same order within each group."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_mask_loop_on_random_delays_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 400))
        index = np.sort(rng.choice(5 * m, size=m, replace=False))
        pool = rng.uniform(0.0005, 0.002, size=int(rng.integers(2, m + 1)))
        delays = rng.choice(pool, size=m)  # ties whenever the pool is small
        got = _delay_groups(index, delays)
        expected = _mask_loop_groups(index, delays)
        assert [d for d, _ in got] == [d for d, _ in expected]
        for (_, rows), (_, want) in zip(got, expected):
            assert rows.dtype == want.dtype
            assert rows.tolist() == want.tolist()

    def test_all_distinct_and_two_valued(self):
        index = np.arange(6)
        for delays in (np.array([6.0, 5, 4, 3, 2, 1]), np.array([2.0, 1, 2, 1, 1, 2])):
            got = _delay_groups(index, delays)
            expected = _mask_loop_groups(index, delays)
            assert [(d, r.tolist()) for d, r in got] == [
                (d, r.tolist()) for d, r in expected
            ]
