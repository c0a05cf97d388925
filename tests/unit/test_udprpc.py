"""Unit tests for the real-socket UDP RPC transport.

These exchange datagrams over 127.0.0.1 and use short real-time waits; they
are kept small and deterministic (single transport, few messages).
"""

import logging
import socket
import threading
import time

import pytest

from repro import telemetry
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


class TestDropCounters:
    """Every datagram the transport drops is counted once under its reason,
    and a normal exchange follows each case. The dropped datagram reaches
    node 2's socket before the exchange's request does, and the receive
    loop is serial, so once the reply lands the drop has been counted."""

    REASONS = ("malformed", "misaddressed", "handler_error", "no_route", "send_error")

    @pytest.fixture
    def tel(self):
        with telemetry.enabled() as tel:
            yield tel

    @staticmethod
    def _dropped(tel) -> dict[str, float]:
        family = tel.counter("messages_dropped_total", labels=("reason",))
        counted = {reason: family.value(reason=reason) for reason in TestDropCounters.REASONS}
        return {reason: value for reason, value in counted.items() if value}

    @staticmethod
    def _exchange(transport) -> None:
        """A 1 -> 2 call that must complete; waits on its reply, not a clock."""
        replied = threading.Event()
        transport.call(
            Message(kind="calc", source=1, destination=2, payload={"x": 21}),
            lambda reply: replied.set() if reply.payload["double"] == 42 else None,
            timeout=3.0,
        )
        assert replied.wait(3.0)

    @pytest.fixture
    def pair(self, tel):
        def node2(message: Message):
            if message.kind == "boom":
                raise RuntimeError("handler bug")
            return message.response(double=message.payload["x"] * 2)

        with UdpRpcTransport() as transport:
            transport.register(1, lambda m: None)
            transport.register(2, node2)
            self._exchange(transport)  # the sockets work before any drop
            yield transport

    @staticmethod
    def _stray(transport, data: bytes, node: int) -> None:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as stray:
            stray.sendto(data, transport.address_of(node))

    def test_malformed(self, tel, pair):
        self._stray(pair, b"\xffnot a wire message", 2)
        self._exchange(pair)
        assert self._dropped(tel) == {"malformed": 1.0}

    def test_every_malformed_datagram_is_counted(self, tel, pair):
        push = encode_message(Message("agg_push", 1, 2, {"key": 3, "state": 2.5}))
        collect = encode_message(Message(
            "agg_collect", 1, 2, {"key": 3, "root": 4, "round_id": 5, "aggregate": "sum"}
        ))
        malformed = [
            push[:-1],  # truncated
            push + b"\x00",  # trailing bytes
            b"\x09" + push[1:],  # unknown version
            push[:1] + b"\xc8" + push[2:],  # unknown layout code
            push[:35] + b"\x07" + push[36:],  # bad state tag
            collect[:-3] + b"\xff" + collect[-2:],  # invalid UTF-8
            collect[:51] + b"\xff\x00" + collect[53:],  # a length past the end
        ]
        for data in malformed:
            self._stray(pair, data, 2)
        self._exchange(pair)
        assert self._dropped(tel) == {"malformed": float(len(malformed))}

    def test_misaddressed(self, tel, pair):
        stray = Message(kind="stray", source=3, destination=999)
        self._stray(pair, encode_message(stray), 2)
        self._exchange(pair)
        assert self._dropped(tel) == {"misaddressed": 1.0}

    def test_handler_error(self, tel, pair):
        pair.send(Message(kind="boom", source=1, destination=2))
        self._exchange(pair)
        assert self._dropped(tel) == {"handler_error": 1.0}

    def test_no_route(self, tel, pair):
        pair.send(Message(kind="hi", source=1, destination=42))
        assert self._dropped(tel) == {"no_route": 1.0}
        self._exchange(pair)
        assert self._dropped(tel) == {"no_route": 1.0}

    def test_send_error(self, tel, pair):
        pair.add_route(5, "127.0.0.1", 0)  # sendto port 0 fails with EINVAL
        pair.send(Message(kind="hi", source=1, destination=5))
        assert self._dropped(tel) == {"send_error": 1.0}
        self._exchange(pair)
        assert self._dropped(tel) == {"send_error": 1.0}

    def test_wakeups_and_the_success_path_count_nothing(self, tel, pair):
        for node in (6, 7):
            pair.register(node, lambda m: None)  # each register wakes the loop
        pair.unregister(7)
        for _ in range(3):
            self._exchange(pair)
        assert self._dropped(tel) == {}


class TestLifecycle:
    def test_timers_are_insertion_ordered(self):
        # Earlier deadlines fire first; equal deadlines fire in scheduling
        # order. The clock is held still while scheduling, so equal delays
        # are equal deadlines, and the lock keeps the loop from firing any
        # timer before all are queued.
        plan = [(0.06, "c1"), (0.02, "a"), (0.06, "c2"), (0.04, "b"), (0.06, "c3")]
        fired: list[str] = []
        done = threading.Event()
        with UdpRpcTransport() as transport:
            start = transport.now()
            with transport._lock:
                transport.now = lambda: start
                for delay, name in plan:
                    transport.schedule(delay, lambda name=name: fired.append(name))
                transport.schedule(0.06, done.set)
                del transport.now
            assert done.wait(3.0)
            # Cancelling on a live transport removes each timer from the queue.
            cancels = [
                transport.schedule(30.0 + i, lambda i=i: fired.append(f"far{i}"))
                for i in range(8)
            ]
            assert len(transport._timers) == 8
            for cancel in cancels:
                cancel()
            assert len(transport._timers) == 0
        assert fired == ["a", "b", "c1", "c2", "c3"]

    def test_schedule_after_close_is_noop(self):
        # A timer scheduled against a closed transport must not be retained
        # (it would be a leak close() can no longer cancel). Nothing retained
        # is what guarantees the callbacks never run: the loop has exited.
        transport = UdpRpcTransport()
        transport.close()
        fired: list[int] = []
        transport.schedule(0.0, lambda: fired.append(1))
        cancel = transport.schedule(30.0, lambda: fired.append(2))
        cancel()
        assert len(transport._timers) == 0
        assert fired == []

    def test_pending_timers_add_no_threads(self):
        # One thread per transport: pending timers wait on its receive loop.
        before = set(threading.enumerate())
        transport = UdpRpcTransport()
        for i in range(8):
            transport.schedule(30.0 + i, lambda: None)
        assert set(threading.enumerate()) - before == {transport._thread}
        transport.close()
        assert set(threading.enumerate()) - before == set()

    def test_raising_timer_does_not_kill_loop(self, transport, caplog):
        transport.register(1, lambda m: None)
        transport.register(2, lambda m: m.response(double=m.payload["x"] * 2))
        raised, fired, replied = threading.Event(), threading.Event(), threading.Event()

        def bad_timer() -> None:
            raised.set()
            raise RuntimeError("timer bug")

        with caplog.at_level(logging.ERROR, logger="repro.sim.udprpc"):
            transport.schedule(0.0, bad_timer)
            assert raised.wait(3.0)
            transport.schedule(0.0, fired.set)
            transport.call(
                Message(kind="calc", source=1, destination=2, payload={"x": 21}),
                lambda reply: replied.set() if reply.payload["double"] == 42 else None,
                timeout=3.0,
            )
            assert fired.wait(3.0)
            assert replied.wait(3.0)
        assert transport._thread.is_alive()
        [record] = caplog.records
        assert record.getMessage() == "timer callback failed"
        assert record.exc_info[0] is RuntimeError

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
        assert len(transport._timers) == 0
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
