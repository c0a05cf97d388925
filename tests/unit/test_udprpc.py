"""Unit tests for the real-socket UDP RPC transport.

These exchange datagrams over 127.0.0.1 and use short real-time waits; they
are kept small and deterministic (single transport, few messages).
"""

import socket
import threading
import time

import pytest

from repro.errors import TransportError
from repro.sim.messages import Message, encode_message
from repro.sim.udprpc import UdpRpcTransport


def wait_until(predicate, timeout=3.0, interval=0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def transport():
    with UdpRpcTransport() as t:
        yield t


class TestDelivery:
    def test_send_between_local_nodes(self, transport):
        received: list[Message] = []
        transport.register(1, lambda m: None)
        transport.register(2, lambda m: received.append(m) or None)
        transport.send(Message(kind="hi", source=1, destination=2, payload={"v": 7}))
        assert wait_until(lambda: len(received) == 1)
        assert received[0].payload == {"v": 7}

    def test_unknown_destination_dropped(self, transport):
        transport.register(1, lambda m: None)
        transport.send(Message(kind="hi", source=1, destination=42))
        time.sleep(0.05)  # nothing to assert beyond "no crash"

    def test_rpc_roundtrip(self, transport):
        transport.register(1, lambda m: None)
        transport.register(2, lambda m: m.response(double=m.payload["x"] * 2))
        replies: list[int] = []
        transport.call(
            Message(kind="calc", source=1, destination=2, payload={"x": 21}),
            lambda reply: replies.append(reply.payload["double"]),
            timeout=3.0,
        )
        assert wait_until(lambda: replies == [42])

    def test_rpc_timeout(self, transport):
        transport.register(1, lambda m: None)
        timeouts: list[Message] = []
        transport.call(
            Message(kind="calc", source=1, destination=99),
            lambda reply: pytest.fail("no reply expected"),
            on_timeout=timeouts.append,
            timeout=0.2,
        )
        assert wait_until(lambda: len(timeouts) == 1)

    def test_handler_exception_does_not_kill_loop(self, transport):
        received: list[Message] = []

        def bad_handler(message: Message):
            raise RuntimeError("handler bug")

        transport.register(1, lambda m: None)
        transport.register(2, bad_handler)
        transport.register(3, lambda m: received.append(m) or None)
        transport.send(Message(kind="x", source=1, destination=2))
        transport.send(Message(kind="x", source=1, destination=3))
        assert wait_until(lambda: len(received) == 1)

    def test_stray_non_object_datagram_does_not_kill_loop(self, transport):
        transport.register(1, lambda m: None)
        transport.register(2, lambda m: m.response(double=m.payload["x"] * 2))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as stray:
            for data in (b"[1]", b"5", b"null", b'"x"'):
                stray.sendto(data, transport.address_of(2))
        replies: list[int] = []
        transport.call(
            Message(kind="calc", source=1, destination=2, payload={"x": 21}),
            lambda reply: replies.append(reply.payload["double"]),
            timeout=3.0,
        )
        assert wait_until(lambda: replies == [42])
        assert transport._thread.is_alive()


class TestTimeoutRetry:
    """The continuation-passing timeout/retry paths callers build on."""

    def test_late_reply_after_timeout_is_dropped(self, transport):
        """A response matched after the deadline must not fire on_reply."""
        replies: list[Message] = []
        timeouts: list[Message] = []

        def slow_handler(m: Message):
            # Reply well after the caller's deadline via a timer.
            transport.schedule(0.4, lambda: transport.send(m.response(ok=1)))
            return None

        transport.register(1, lambda m: None)
        transport.register(2, slow_handler)
        transport.call(
            Message(kind="q", source=1, destination=2),
            replies.append,
            on_timeout=timeouts.append,
            timeout=0.1,
        )
        assert wait_until(lambda: len(timeouts) == 1)
        time.sleep(0.5)  # let the late reply arrive
        assert replies == []
        assert transport.pending_calls() == 0

    def test_timeout_receives_original_message(self, transport):
        transport.register(1, lambda m: None)
        timeouts: list[Message] = []
        request = Message(kind="q", source=1, destination=99, payload={"x": 1})
        transport.call(
            request, lambda r: pytest.fail("unreachable"), timeouts.append, timeout=0.1
        )
        assert wait_until(lambda: timeouts == [request])

    def test_retry_after_timeout_succeeds(self, transport):
        """The caller-side retry idiom: re-issue the call from on_timeout."""
        transport.register(1, lambda m: None)
        replies: list[int] = []
        attempts: list[int] = []

        def attempt(n: int) -> None:
            attempts.append(n)
            if n == 2:  # destination comes up between attempts
                transport.register(2, lambda m: m.response(ok=n))
            transport.call(
                Message(kind="q", source=1, destination=2),
                lambda r: replies.append(r.payload["ok"]),
                on_timeout=lambda _m: attempt(n + 1),
                timeout=0.15,
            )

        attempt(1)
        assert wait_until(lambda: replies == [2])
        assert attempts == [1, 2]
        assert transport.pending_calls() == 0

    def test_timeout_without_callback_just_expires(self, transport):
        transport.register(1, lambda m: None)
        transport.call(
            Message(kind="q", source=1, destination=99),
            lambda r: pytest.fail("unreachable"),
            timeout=0.1,
        )
        assert wait_until(lambda: transport.pending_calls() == 0)

    def test_reply_cancels_timeout(self, transport):
        transport.register(1, lambda m: None)
        transport.register(2, lambda m: m.response(ok=1))
        replies: list[Message] = []
        timeouts: list[Message] = []
        transport.call(
            Message(kind="q", source=1, destination=2),
            replies.append,
            on_timeout=timeouts.append,
            timeout=0.3,
        )
        assert wait_until(lambda: len(replies) == 1)
        time.sleep(0.4)  # past the deadline: the cancelled timer must not fire
        assert timeouts == []

    def test_default_timeout_used_when_unspecified(self, transport):
        transport.default_timeout = 0.1
        transport.register(1, lambda m: None)
        timeouts: list[Message] = []
        transport.call(
            Message(kind="q", source=1, destination=99),
            lambda r: pytest.fail("unreachable"),
            on_timeout=timeouts.append,
        )
        assert wait_until(lambda: len(timeouts) == 1)


class TestNetLayerOverUdp:
    """RpcClient retransmission over real loopback sockets."""

    def test_loopback_retry_recovers_dropped_requests(self, transport):
        from repro.net import RetryPolicy, RpcClient

        calls: list[int] = []

        def drops_first_two(m: Message):
            calls.append(m.msg_id)
            if len(calls) <= 2:
                return None  # swallow the request: the datagram "was lost"
            return m.response(ok=len(calls))

        transport.register(1, lambda m: None)
        transport.register(2, drops_first_two)
        client = RpcClient(transport, 1)
        replies: list[Message] = []
        client.call(
            client.request("q", 2),
            replies.append,
            on_timeout=lambda m: pytest.fail("retries should recover"),
            policy=RetryPolicy(timeout=0.15, max_attempts=5),
        )
        assert wait_until(lambda: len(replies) == 1)
        assert replies[0].payload["ok"] == 3
        # Every attempt carried the same msg_id (UDP retransmit semantics).
        assert len(set(calls)) == 1
        assert wait_until(lambda: transport.pending_calls() == 0)

    def test_loopback_bounded_give_up(self, transport):
        from repro.net import RetryPolicy, RpcClient

        transport.register(1, lambda m: None)
        client = RpcClient(transport, 1)
        failures: list[Message] = []
        request = client.request("q", 99)
        client.call(
            request,
            lambda r: pytest.fail("unreachable destination"),
            on_timeout=failures.append,
            policy=RetryPolicy(timeout=0.1, max_attempts=3),
        )
        assert wait_until(lambda: failures == [request])
        assert transport.pending_calls() == 0


class TestRouting:
    def test_address_of_local(self, transport):
        transport.register(5, lambda m: None)
        host, port = transport.address_of(5)
        assert host == "127.0.0.1" and port > 0

    def test_address_of_unknown_raises(self, transport):
        with pytest.raises(TransportError):
            transport.address_of(77)

    def test_cross_transport_route(self):
        # Two transports = two independent "machines" on localhost.
        with UdpRpcTransport() as a, UdpRpcTransport() as b:
            received: list[Message] = []
            a.register(1, lambda m: None)
            b.register(2, lambda m: received.append(m) or None)
            host, port = b.address_of(2)
            a.add_route(2, host, port)
            a.send(Message(kind="x", source=1, destination=2))
            assert wait_until(lambda: len(received) == 1)

    @staticmethod
    def _misaddressed_then_exchange(transport, dst):
        """Send node 1's socket a datagram naming ``dst``, then a normal
        1 -> 2 call. The reply reaches node 1's socket after the stray
        datagram did, so once it lands the stray one has been handled."""
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as stray:
            stray.sendto(
                encode_message(Message(kind="stray", source=3, destination=dst)),
                transport.address_of(1),
            )
        replies: list[int] = []
        transport.call(
            Message(kind="calc", source=1, destination=2, payload={"x": 21}),
            lambda reply: replies.append(reply.payload["double"]),
            timeout=3.0,
        )
        assert wait_until(lambda: replies == [42])

    def test_datagram_naming_another_local_node_is_dropped(self, transport):
        kinds: list[str] = []

        def node2(message: Message):
            kinds.append(message.kind)
            return message.response(double=message.payload["x"] * 2)

        transport.register(1, lambda m: None)
        transport.register(2, node2)
        self._misaddressed_then_exchange(transport, dst=2)
        assert kinds == ["calc"]  # node 2's handler never saw the stray one

    def test_datagram_naming_an_unhosted_node_adds_no_phantom_load(self, transport):
        transport.register(1, lambda m: None)
        transport.register(2, lambda m: m.response(double=m.payload["x"] * 2))
        self._misaddressed_then_exchange(transport, dst=999)
        assert transport.stats.nodes() == {1, 2}
        assert transport.stats.load(999).received == 0

    def test_unregister_closes_socket(self, transport):
        transport.register(9, lambda m: None)
        transport.unregister(9)
        with pytest.raises(TransportError):
            transport.address_of(9)


class TestLifecycle:
    def test_timers_are_insertion_ordered(self):
        # Regression: timers were kept in a set, making the cancel-on-close
        # iteration order hash-dependent; the dict replacement preserves
        # scheduling order.
        with UdpRpcTransport() as transport:
            cancels = [
                transport.schedule(30.0 + i, lambda: None) for i in range(8)
            ]
            with transport._lock:
                delays = [t.interval for t in transport._timers]
            assert delays == sorted(delays)
            for cancel in cancels:
                cancel()
            with transport._lock:
                assert not transport._timers

    def test_schedule_after_close_is_noop(self):
        # A timer scheduled against a closed transport must not be retained
        # (it would be a leak close() can no longer cancel).
        transport = UdpRpcTransport()
        transport.close()
        cancel = transport.schedule(30.0, lambda: None)
        cancel()
        assert not transport._timers

    def test_register_racing_close_leaks_no_socket(self):
        # Regression: register() checked _closed before taking the lock, so
        # a close() landing between the check and the registration left a
        # bound socket behind on a closed transport.
        transport = UdpRpcTransport()
        refused: list[TransportError] = []

        def register() -> None:
            try:
                transport.register(5, lambda m: None)
            except TransportError as exc:
                refused.append(exc)

        with transport._lock:
            worker = threading.Thread(target=register)
            worker.start()
            worker.join(timeout=0.2)  # an unlocked check would pass by now
            transport.close()  # re-entrant: this thread holds the lock
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert len(refused) == 1
        assert not transport._sockets

    def test_close_idempotent(self):
        transport = UdpRpcTransport()
        transport.register(1, lambda m: None)
        transport.close()
        transport.close()

    def test_close_cancels_pending_calls(self):
        # Regression: close() used to cancel the raw timer objects but left
        # the pending-call table populated — the teardown path must cancel
        # in-flight calls exactly like Transport.unregister does, so neither
        # continuation fires and no timer survives the transport.
        transport = UdpRpcTransport()
        transport.register(1, lambda m: None)
        outcome: list[str] = []
        request = Message(kind="q", source=1, destination=999)  # unroutable
        transport.call(
            request,
            lambda reply: outcome.append("reply"),
            on_timeout=lambda msg: outcome.append("timeout"),
            timeout=0.2,
        )
        assert transport.pending_calls() == 1
        transport.close()
        assert transport.pending_calls() == 0
        assert not transport._timers
        time.sleep(0.3)  # past the call deadline: the expiry must not fire
        assert outcome == []

    def test_close_with_pending_call_cancels_via_unregister_path(self):
        # The cancelled entry's timer is removed through the same canceller
        # unregister uses, so repeated close()/cancel interleavings stay
        # idempotent.
        transport = UdpRpcTransport()
        transport.register(1, lambda m: None)
        transport.call(
            Message(kind="q", source=1, destination=999),
            lambda reply: None,
            timeout=30.0,
        )
        assert transport.cancel_all_calls() == 1  # manual cancel first
        transport.close()  # close finds nothing left to cancel
        assert transport.pending_calls() == 0

    def test_register_after_close_rejected(self):
        transport = UdpRpcTransport()
        transport.close()
        with pytest.raises(TransportError):
            transport.register(1, lambda m: None)

    def test_oversized_datagram_rejected(self, transport):
        transport.register(1, lambda m: None)
        transport.register(2, lambda m: None)
        huge = Message(
            kind="x", source=1, destination=2, payload={"blob": "a" * 70000}
        )
        with pytest.raises(TransportError):
            transport.send(huge)

    def test_timer_schedule_and_cancel(self, transport):
        fired: list[int] = []
        cancel = transport.schedule(0.05, lambda: fired.append(1))
        cancel()
        transport.schedule(0.05, lambda: fired.append(2))
        assert wait_until(lambda: fired == [2])
