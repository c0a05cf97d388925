"""Unit tests for the repro.net session layer.

Covers the retry/backoff policy (validation, deterministic jitter, the
retry-storm guard), RpcClient retransmission semantics over the in-process
and simulated transports, the envelope helpers (UpcallRegistry, error
replies, DeferredResponder), the fan-out primitives (gather, Batcher),
and transport-level teardown (unregister cancels pending calls).
"""

import math
import threading

import pytest

from repro.net import (
    BATCH_KIND,
    DEFAULT_POLICY,
    UNBOUNDED_POLICY,
    Batcher,
    DeferredResponder,
    RetryPolicy,
    RpcClient,
    UpcallRegistry,
    error_reply,
    gather,
    install_batch_unwrapper,
    is_error_reply,
)
from repro.sim.inproc import InprocTransport
from repro.sim.messages import MAX_DATAGRAM, Message
from repro.sim.simnet import SimTransport
from repro.sim.udprpc import UdpRpcTransport
from repro.util.rng import ensure_rng


# --------------------------------------------------------------------- #
# RetryPolicy
# --------------------------------------------------------------------- #


class TestRetryPolicy:
    def test_default_is_single_attempt_transport_deadline(self):
        assert DEFAULT_POLICY.max_attempts == 1
        assert DEFAULT_POLICY.timeout is None
        assert DEFAULT_POLICY.attempt_timeout(2.0) == 2.0
        assert not DEFAULT_POLICY.unbounded

    def test_unbounded_policy(self):
        assert UNBOUNDED_POLICY.unbounded
        assert math.isinf(UNBOUNDED_POLICY.attempt_timeout(2.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"max_attempts": 65},
            {"timeout": 0.0},
            {"timeout": -1.0},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
            {"backoff_max": -1.0},
            {"jitter": -0.1},
            {"jitter": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            max_attempts=8, backoff_base=1.0, backoff_factor=2.0, backoff_max=5.0
        )
        rng = ensure_rng(0)
        assert policy.schedule(rng) == [1.0, 2.0, 4.0, 5.0, 5.0, 5.0, 5.0]

    def test_zero_base_retries_immediately(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.schedule(ensure_rng(0)) == [0.0, 0.0]

    def test_retry_index_must_be_positive(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=2, backoff_base=1.0).backoff(0, ensure_rng(0))

    def test_jitter_schedule_is_deterministic(self):
        policy = RetryPolicy(
            max_attempts=6, backoff_base=0.5, jitter=0.3, backoff_max=10.0
        )
        assert policy.schedule(ensure_rng(7)) == policy.schedule(ensure_rng(7))
        assert policy.schedule(ensure_rng(7)) != policy.schedule(ensure_rng(8))

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(
            max_attempts=10, backoff_base=1.0, backoff_factor=1.0, jitter=0.25
        )
        for delay in policy.schedule(ensure_rng(42)):
            assert 0.75 <= delay <= 1.25

    def test_no_jitter_leaves_rng_untouched(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=1.0)
        rng = ensure_rng(9)
        policy.schedule(rng)
        assert rng.random() == ensure_rng(9).random()


# --------------------------------------------------------------------- #
# RpcClient over InprocTransport
# --------------------------------------------------------------------- #


class TestRpcClient:
    def _client(self, transport, ident=1):
        transport.register(ident, lambda m: None)
        return RpcClient(transport, ident)

    def test_default_policy_single_send_then_timeout(self):
        transport = InprocTransport()
        client = self._client(transport)
        timeouts: list[Message] = []
        request = client.request("q", 99)
        client.call(request, lambda r: pytest.fail("no reply expected"),
                    on_timeout=timeouts.append)
        assert transport.stats.load(1).sent == 1
        transport.advance(transport.default_timeout * 2)
        assert timeouts == [request]
        assert transport.pending_calls() == 0

    def test_gives_up_after_max_attempts(self):
        transport = InprocTransport()
        client = self._client(transport)
        timeouts: list[Message] = []
        request = client.request("q", 99)
        client.call(
            request,
            lambda r: pytest.fail("no reply expected"),
            on_timeout=timeouts.append,
            policy=RetryPolicy(timeout=1.0, max_attempts=3),
        )
        transport.advance(10.0)
        assert transport.stats.load(1).sent == 3
        assert timeouts == [request]  # on_timeout fires exactly once

    def test_retry_reuses_msg_id_and_reply_correlates(self):
        transport = InprocTransport()
        client = self._client(transport)
        seen: list[int] = []

        def flaky(message: Message) -> Message | None:
            seen.append(message.msg_id)
            if len(seen) == 1:
                return None  # drop the first attempt
            return message.response(ok=True)

        transport.register(2, flaky)
        replies: list[Message] = []
        request = client.request("q", 2)
        client.call(
            request, replies.append,
            policy=RetryPolicy(timeout=1.0, max_attempts=3),
        )
        assert replies == []
        transport.advance(1.5)
        assert seen == [request.msg_id, request.msg_id]
        assert len(replies) == 1 and replies[0].reply_to == request.msg_id
        # The retry's deadline was cancelled by the reply.
        transport.advance(10.0)
        assert transport.stats.load(1).sent == 2

    def test_backoff_spaces_retries(self):
        transport = InprocTransport()
        client = self._client(transport)
        arrivals: list[float] = []
        transport.register(3, lambda m: arrivals.append(transport.now()))
        client.call(
            client.request("q", 3),
            lambda r: None,
            policy=RetryPolicy(
                timeout=1.0, max_attempts=3, backoff_base=1.0, backoff_factor=2.0
            ),
        )
        transport.advance(20.0)
        # send at 0; expiry 1 + backoff 1 -> resend at 2; expiry 3 +
        # backoff 2 -> resend at 5.
        assert arrivals == [0.0, 2.0, 5.0]

    def test_error_reply_routed_to_on_error(self):
        transport = InprocTransport()
        client = self._client(transport)
        transport.register(2, lambda m: error_reply(m, "busy", "try later"))
        errors: list[Message] = []
        client.call(
            client.request("q", 2),
            lambda r: pytest.fail("error must not reach on_reply"),
            on_timeout=lambda m: pytest.fail("error must not reach on_timeout"),
            on_error=errors.append,
        )
        assert len(errors) == 1
        assert is_error_reply(errors[0])
        assert errors[0].payload["error"] == "busy"

    def test_error_reply_falls_back_to_on_timeout(self):
        transport = InprocTransport()
        client = self._client(transport)
        transport.register(2, lambda m: error_reply(m, "busy"))
        failures: list[Message] = []
        client.call(
            client.request("q", 2),
            lambda r: pytest.fail("error must not reach on_reply"),
            on_timeout=failures.append,
        )
        assert len(failures) == 1

    def test_send_override_used_for_every_attempt(self):
        transport = InprocTransport()
        client = self._client(transport)
        local: list[Message] = []
        client.call(
            client.request("q", 1),
            lambda r: None,
            policy=RetryPolicy(timeout=1.0, max_attempts=2),
            send=local.append,
        )
        transport.advance(5.0)
        assert len(local) == 2  # first attempt + one retry, both local
        assert transport.stats.load(1).sent == 0  # nothing hit the wire

    def test_cancel_all_silences_continuations(self):
        transport = InprocTransport()
        client = self._client(transport)
        client.call(
            client.request("q", 99),
            lambda r: pytest.fail("cancelled"),
            on_timeout=lambda m: pytest.fail("cancelled"),
        )
        assert transport.pending_calls() == 1
        client.cancel_all()
        assert transport.pending_calls() == 0
        transport.advance(10.0)  # the armed deadline is a no-op now

    def test_peer_round_trip(self):
        transport = InprocTransport()
        client = self._client(transport)
        transport.register(2, lambda m: m.response(echo=m.payload["x"]))
        peer = client.peer(2)
        request = peer.request("echo", x=5)
        assert request.source == 1 and request.destination == 2
        replies: list[object] = []
        peer.call("echo", {"x": 7}, lambda r: replies.append(r.payload["echo"]))
        assert replies == [7]


class TestRetryStormGuard:
    def test_total_loss_bounds_sends(self):
        """Under 100% loss a retrying call sends exactly max_attempts times."""
        transport = SimTransport(loss_rate=1.0, rng=1)
        transport.register(1, lambda m: None)
        transport.register(2, lambda m: m.response(ok=True))
        client = RpcClient(transport, 1)
        failures: list[Message] = []
        client.call(
            client.request("q", 2),
            lambda r: pytest.fail("nothing can arrive at 100% loss"),
            on_timeout=failures.append,
            policy=RetryPolicy(
                timeout=0.5, max_attempts=4, backoff_base=0.1, jitter=0.5
            ),
        )
        transport.run(until=120.0)
        assert transport.stats.load(1).sent == 4
        assert len(failures) == 1
        assert transport.pending_calls() == 0


# --------------------------------------------------------------------- #
# Envelopes
# --------------------------------------------------------------------- #


class TestUpcallRegistry:
    def test_mapping_surface(self):
        registry = UpcallRegistry()
        handler = lambda m: None  # noqa: E731
        registry["ping"] = handler
        assert registry["ping"] is handler
        assert registry.knows("ping") and not registry.knows("pong")
        assert list(registry) == ["ping"] and len(registry) == 1
        del registry["ping"]
        assert len(registry) == 0

    def test_dispatch_routes_by_kind(self):
        registry = UpcallRegistry()
        registry["echo"] = lambda m: m.response(ok=True)
        reply = registry.dispatch(Message(kind="echo", source=1, destination=2))
        assert reply is not None and reply.payload["ok"] is True

    def test_unknown_kind_dropped(self):
        assert UpcallRegistry().dispatch(
            Message(kind="mystery", source=1, destination=2)
        ) is None


class TestDeferredResponder:
    def _request(self):
        return Message(kind="agg_collect", source=1, destination=2)

    def test_first_begin_claims(self):
        transport = InprocTransport()
        responder = DeferredResponder(transport)
        assert responder.begin("k", self._request()) is True
        assert responder.pending() == 1

    def test_inflight_duplicate_dropped(self):
        transport = InprocTransport()
        responder = DeferredResponder(transport)
        request = self._request()
        assert responder.begin("k", request)
        assert responder.begin("k", request) is False
        assert transport.stats.load(2).sent == 0  # no reply sent yet

    def test_complete_sends_and_duplicate_replays(self):
        transport = InprocTransport()
        delivered: list[Message] = []
        transport.register(1, delivered.append)
        responder = DeferredResponder(transport)
        request = self._request()
        responder.begin("k", request)
        responder.complete("k", request.response(kind="agg_partial", state=3))
        assert responder.pending() == 0
        # A retransmission after completion re-sends the cached reply.
        assert responder.begin("k", request) is False
        assert transport.stats.load(2).sent == 2

    def test_abandon_releases_claim(self):
        responder = DeferredResponder(InprocTransport())
        request = self._request()
        responder.begin("k", request)
        responder.abandon("k")
        assert responder.pending() == 0
        assert responder.begin("k", request) is True

    def test_capacity_evicts_oldest(self):
        transport = InprocTransport()
        responder = DeferredResponder(transport, capacity=2)
        for key in ("a", "b", "c"):
            request = self._request()
            responder.begin(key, request)
            responder.complete(key, request.response(kind="r", key=key))
        # "a" was evicted: a late duplicate re-claims instead of replaying.
        assert responder.begin("a", self._request()) is True

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DeferredResponder(InprocTransport(), capacity=0)


# --------------------------------------------------------------------- #
# Fan-out
# --------------------------------------------------------------------- #


class TestGather:
    def test_empty_completes_synchronously(self):
        transport = InprocTransport()
        transport.register(1, lambda m: None)
        client = RpcClient(transport, 1)
        results: list[tuple[dict, list]] = []
        gather(client, [], lambda replies, failed: results.append((replies, failed)))
        assert results == [({}, [])]

    def test_all_reply(self):
        transport = InprocTransport()
        transport.register(1, lambda m: None)
        for node in (2, 3, 4):
            transport.register(node, lambda m: m.response(who=m.destination))
        client = RpcClient(transport, 1)
        results: list[tuple[dict, list]] = []
        gather(
            client,
            [client.request("q", n) for n in (2, 3, 4)],
            lambda replies, failed: results.append((replies, failed)),
        )
        assert len(results) == 1
        replies, failed = results[0]
        assert sorted(replies) == [2, 3, 4] and failed == []
        assert replies[3].payload["who"] == 3

    def test_mixed_replies_and_failures(self):
        transport = InprocTransport()
        transport.register(1, lambda m: None)
        transport.register(2, lambda m: m.response(ok=True))
        client = RpcClient(transport, 1)
        results: list[tuple[dict, list]] = []
        requests = [client.request("q", 2), client.request("q", 99)]
        gather(
            client,
            requests,
            lambda replies, failed: results.append((replies, failed)),
            policy=RetryPolicy(timeout=1.0, max_attempts=2),
        )
        assert results == []  # node 99 is still retrying
        transport.advance(10.0)
        assert len(results) == 1
        replies, failed = results[0]
        assert sorted(replies) == [2]
        assert failed == [requests[1]]


class TestBatcher:
    def _wired(self, window):
        transport = InprocTransport()
        delivered: list[Message] = []
        upcalls = UpcallRegistry()
        upcalls["agg_push"] = lambda m: delivered.append(m)
        install_batch_unwrapper(upcalls, lambda m: upcalls.dispatch(m))
        transport.register(5, upcalls.dispatch)
        return transport, Batcher(transport, window), delivered

    def _push(self, n):
        return Message(kind="agg_push", source=1, destination=5, payload={"n": n})

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            Batcher(InprocTransport(), -0.5)

    def test_zero_window_is_passthrough(self):
        transport, batcher, delivered = self._wired(0.0)
        batcher.enqueue(self._push(1))
        assert len(delivered) == 1 and batcher.pending() == 0
        assert delivered[0].kind == "agg_push"

    def test_window_coalesces_same_destination(self):
        transport, batcher, delivered = self._wired(1.0)
        for n in range(3):
            batcher.enqueue(self._push(n))
        assert delivered == [] and batcher.pending() == 3
        transport.advance(1.0)
        assert [m.payload["n"] for m in delivered] == [0, 1, 2]
        # One envelope on the wire, three logical messages delivered.
        assert transport.stats.load(1).sent == 1
        assert transport.stats.by_kind() == {}  # inproc doesn't tag kinds

    def test_single_queued_message_sent_unwrapped(self):
        transport, batcher, delivered = self._wired(1.0)
        batcher.enqueue(self._push(7))
        transport.advance(1.0)
        assert len(delivered) == 1 and delivered[0].payload["n"] == 7

    def test_flush_all_drains_now(self):
        transport, batcher, delivered = self._wired(5.0)
        batcher.enqueue(self._push(1))
        batcher.enqueue(self._push(2))
        batcher.flush_all()
        assert len(delivered) == 2 and batcher.pending() == 0
        transport.advance(10.0)  # the armed flush timer is a no-op
        assert len(delivered) == 2

    def test_close_flushes_and_degrades_to_passthrough(self):
        transport, batcher, delivered = self._wired(5.0)
        batcher.enqueue(self._push(1))
        batcher.close()
        assert len(delivered) == 1
        batcher.enqueue(self._push(2))
        assert len(delivered) == 2  # sent immediately after close

    def test_queue_over_the_datagram_budget_splits_and_all_arrive(self):
        # 3 000 pushes (a 44-byte layout each, plus a 4-byte frame length)
        # outgrow one 65 000-byte datagram. Over UDP an oversize envelope
        # raised inside the flush timer and the whole queue was lost.
        with UdpRpcTransport() as transport:
            delivered: list[int] = []
            done = threading.Event()

            def on_push(message: Message) -> None:
                delivered.append(message.payload["key"])
                if len(delivered) == 3000:
                    done.set()

            upcalls = UpcallRegistry()
            upcalls["agg_push"] = on_push
            install_batch_unwrapper(upcalls, lambda m: upcalls.dispatch(m))
            transport.register(5, upcalls.dispatch)
            transport.register(1, lambda m: None)
            envelopes: list[int] = []
            send = transport.send
            transport.send = lambda m: envelopes.append(m.encoded_size()) or send(m)  # type: ignore[method-assign]
            batcher = Batcher(transport, 0.05)
            for key in range(3000):
                batcher.enqueue(
                    Message(kind="agg_push", source=1, destination=5,
                            payload={"key": key, "state": 1.0})
                )
            assert done.wait(5.0)
        assert delivered == list(range(3000))
        assert len(envelopes) == 3 and max(envelopes) <= MAX_DATAGRAM

    def test_envelope_kind_on_wire(self):
        transport = InprocTransport()
        seen: list[Message] = []
        transport.register(5, lambda m: seen.append(m))
        batcher = Batcher(transport, 1.0)
        batcher.enqueue(self._push(1))
        batcher.enqueue(self._push(2))
        transport.advance(1.0)
        assert [m.kind for m in seen] == [BATCH_KIND]


# --------------------------------------------------------------------- #
# Teardown
# --------------------------------------------------------------------- #


class TestTeardown:
    def test_unregister_cancels_pending_calls(self):
        transport = InprocTransport()
        transport.register(1, lambda m: None)
        client = RpcClient(transport, 1)
        client.call(
            client.request("q", 99),
            lambda r: pytest.fail("node left"),
            on_timeout=lambda m: pytest.fail("node left"),
        )
        assert transport.pending_calls() == 1
        transport.unregister(1)
        assert transport.pending_calls() == 0
        transport.advance(10.0)

    def test_unregister_only_cancels_own_calls(self):
        transport = InprocTransport()
        transport.register(1, lambda m: None)
        transport.register(2, lambda m: None)
        for ident in (1, 2):
            client = RpcClient(transport, ident)
            client.call(client.request("q", 99), lambda r: None)
        transport.unregister(1)
        assert transport.pending_calls() == 1

    def test_host_rebuild_on_shared_transport(self):
        """Hosts/services can be torn down and rebuilt without leaks."""
        from repro.chord.idspace import IdSpace
        from repro.core.service import DatNodeService, StandaloneDatHost

        space = IdSpace(8)
        transport = InprocTransport()
        for _ in range(3):
            host = StandaloneDatHost(7, space, transport)
            service = DatNodeService(
                host,
                finger_provider=lambda: None,
                value_provider=lambda: 1.0,
                scheme="basic",
            )
            service.close()
            host.shutdown()
        assert transport.registered_nodes() == []
        assert transport.pending_calls() == 0
