"""Unit tests for the discrete-event transport."""

import pytest

from repro.sim.latency import ConstantLatency
from repro.sim.messages import Message
from repro.sim.simnet import SimTransport


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
