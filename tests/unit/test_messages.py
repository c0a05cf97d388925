"""Unit tests for wire messages."""

import pytest

from repro.errors import TransportError
from repro.sim.messages import Message, decode_message, encode_message


class TestMessage:
    def test_unique_ids(self):
        a = Message(kind="x", source=1, destination=2)
        b = Message(kind="x", source=1, destination=2)
        assert a.msg_id != b.msg_id

    def test_response_swaps_endpoints(self):
        request = Message(kind="ping", source=1, destination=2)
        reply = request.response(alive=True)
        assert reply.source == 2 and reply.destination == 1
        assert reply.reply_to == request.msg_id
        assert reply.kind == "ping_reply"
        assert reply.payload == {"alive": True}

    def test_response_custom_kind(self):
        request = Message(kind="q", source=1, destination=2)
        assert request.response(kind="ans").kind == "ans"

    def test_is_response(self):
        request = Message(kind="q", source=1, destination=2)
        assert not request.is_response
        assert request.response().is_response


class TestWireCoding:
    def test_roundtrip(self):
        original = Message(
            kind="lookup",
            source=10,
            destination=20,
            payload={"key": 5, "path": [1, 2]},
        )
        decoded = decode_message(encode_message(original))
        assert decoded.kind == original.kind
        assert decoded.source == original.source
        assert decoded.destination == original.destination
        assert decoded.payload == original.payload
        assert decoded.msg_id == original.msg_id

    def test_reply_to_preserved(self):
        reply = Message(kind="r", source=1, destination=2, reply_to=77)
        assert decode_message(encode_message(reply)).reply_to == 77

    def test_encoded_size_positive(self):
        assert Message(kind="x", source=0, destination=0).encoded_size() > 0

    def test_unserializable_payload(self):
        bad = Message(kind="x", source=0, destination=1, payload={"f": object()})
        with pytest.raises(TransportError):
            encode_message(bad)

    def test_malformed_datagram(self):
        with pytest.raises(TransportError):
            decode_message(b"not json")
        with pytest.raises(TransportError):
            decode_message(b'{"kind": "x"}')  # missing fields

    @pytest.mark.parametrize("data", [b"[1]", b"5", b"null", b'"x"'])
    def test_valid_json_that_is_not_an_object(self, data):
        # Any of these used to escape as a TypeError, which the UDP receive
        # loop does not catch.
        with pytest.raises(TransportError, match="not an object"):
            decode_message(data)
