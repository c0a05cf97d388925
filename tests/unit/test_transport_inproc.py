"""Unit tests for the in-process transport and base Transport RPC plumbing."""

import weakref

import pytest

from repro.errors import TransportError
from repro.sim.inproc import InprocTransport
from repro.sim.messages import Message


def echo_handler(message: Message) -> Message:
    return message.response(echo=message.payload.get("text"))


class TestRegistration:
    def test_register_and_send(self):
        transport = InprocTransport()
        received: list[Message] = []
        transport.register(1, lambda m: received.append(m) or None)
        transport.send(Message(kind="hi", source=0, destination=1))
        assert len(received) == 1

    def test_duplicate_registration_rejected(self):
        transport = InprocTransport()
        transport.register(1, lambda m: None)
        with pytest.raises(TransportError):
            transport.register(1, lambda m: None)

    def test_unregistered_destination_dropped(self):
        transport = InprocTransport()
        transport.send(Message(kind="hi", source=0, destination=9))  # no error

    def test_unregister(self):
        transport = InprocTransport()
        received: list[Message] = []
        transport.register(1, lambda m: received.append(m) or None)
        transport.unregister(1)
        transport.send(Message(kind="hi", source=0, destination=1))
        assert received == []
        assert not transport.is_registered(1)

    def test_registered_nodes(self):
        transport = InprocTransport()
        transport.register(3, lambda m: None)
        transport.register(1, lambda m: None)
        assert transport.registered_nodes() == [1, 3]


class TestRpc:
    def test_call_gets_reply(self):
        transport = InprocTransport()
        transport.register(2, echo_handler)
        transport.register(1, lambda m: None)
        replies: list[str] = []
        request = Message(kind="echo", source=1, destination=2, payload={"text": "hey"})
        transport.call(request, lambda reply: replies.append(reply.payload["echo"]))
        assert replies == ["hey"]
        assert transport.pending_calls() == 0

    def test_timeout_fires(self):
        transport = InprocTransport()
        transport.register(1, lambda m: None)
        timeouts: list[int] = []
        request = Message(kind="q", source=1, destination=99)
        transport.call(
            request,
            lambda reply: pytest.fail("unexpected reply"),
            on_timeout=lambda m: timeouts.append(m.msg_id),
            timeout=1.0,
        )
        transport.advance(2.0)
        assert timeouts == [request.msg_id]
        assert transport.pending_calls() == 0

    def test_reply_cancels_timeout(self):
        transport = InprocTransport()
        transport.register(2, echo_handler)
        replies: list[Message] = []
        request = Message(kind="echo", source=1, destination=2)
        transport.call(
            request,
            replies.append,
            on_timeout=lambda m: pytest.fail("timeout after reply"),
            timeout=1.0,
        )
        transport.advance(5.0)
        assert len(replies) == 1

    def test_late_response_dropped(self):
        # A response with no pending call is silently discarded.
        transport = InprocTransport()
        transport.register(1, lambda m: None)
        orphan = Message(kind="r", source=2, destination=1, reply_to=12345)
        transport.send(orphan)  # no error

    def test_handler_response_without_reply_to_rejected(self):
        transport = InprocTransport()

        def bad_handler(message: Message) -> Message:
            return Message(kind="r", source=2, destination=1)  # missing reply_to

        transport.register(2, bad_handler)
        with pytest.raises(TransportError):
            transport.send(Message(kind="q", source=1, destination=2))


class TestTimers:
    def test_advance_fires_in_order(self):
        transport = InprocTransport()
        fired: list[str] = []
        transport.schedule(2.0, lambda: fired.append("b"))
        transport.schedule(1.0, lambda: fired.append("a"))
        transport.advance(3.0)
        assert fired == ["a", "b"]
        assert transport.now() == 3.0

    def test_cancel(self):
        transport = InprocTransport()
        fired: list[str] = []
        cancel = transport.schedule(1.0, lambda: fired.append("x"))
        cancel()
        transport.advance(2.0)
        assert fired == []

    def test_partial_advance(self):
        transport = InprocTransport()
        fired: list[str] = []
        transport.schedule(5.0, lambda: fired.append("x"))
        transport.advance(3.0)
        assert fired == []
        transport.advance(3.0)
        assert fired == ["x"]

    def test_cancel_releases_the_callback(self):
        # A cancelled timer lets go of its callback at once, not when its
        # deadline comes up.
        class Callback:
            def __call__(self) -> None:
                pass

        transport = InprocTransport()
        callback = Callback()
        cancel = transport.schedule(1.0, callback)
        released = weakref.ref(callback)
        del callback
        cancel()
        assert released() is None

    def test_cancel_after_fire_is_a_noop(self):
        transport = InprocTransport()
        fired: list[str] = []
        cancel = transport.schedule(1.0, lambda: fired.append("x"))
        transport.advance(1.0)
        cancel()
        transport.schedule(1.0, lambda: fired.append("y"))
        transport.advance(1.0)
        assert fired == ["x", "y"]


class TestAccounting:
    def test_send_and_receive_counted(self):
        transport = InprocTransport()
        transport.register(2, echo_handler)
        transport.register(1, lambda m: None)
        transport.send(Message(kind="echo", source=1, destination=2))
        assert transport.stats.load(1).sent == 1
        assert transport.stats.load(2).received == 1
        # The echo reply is also counted.
        assert transport.stats.load(2).sent == 1
        assert transport.stats.load(1).received == 1
