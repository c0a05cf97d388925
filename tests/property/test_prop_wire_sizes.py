"""Property tests for the binary wire codec.

``decode_message`` must invert ``encode_message``, and
``Message.encoded_size`` must equal ``len(encode_message(m))`` without
packing, for every :data:`~repro.sim.messages.WIRE_LAYOUTS` entry, for
payloads that take a JSON body, for wide (160-bit) ids, with and without
``reply_to`` and a ``_trace`` context. A JSON body is written by the C
encoder or, without the accelerator, by the pure-Python one; both are
checked. Every malformed datagram is a :class:`TransportError`.

``float_repr_lengths`` and ``int_digit_counts`` predict JSON numeral
lengths, which no wire size depends on any more; their edge values stay
checked while the frozen perf ledger still calls them.
"""

import json
import json.encoder
import struct
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import TransportError
from repro.sim.messages import (
    WIRE_LAYOUTS,
    Message,
    decode_message,
    encode_message,
    float_repr_lengths,
    int_digit_counts,
)

#: Values at the edges of the arithmetic shortcut: signed zeros, the 1e16
#: notation switch and its neighbours, the float64 integer limit, the
#: smallest subnormal, exponent-form wholes, and the non-finite values.
EDGE_VALUES = [
    0.0, -0.0, 1e16, 1e16 - 2, -1e16, -(1e16 - 2), 2.0**53, 2.0**53 + 2,
    5e-324, 1e22, 1e15, 1e15 - 1, float("inf"), float("-inf"), float("nan"),
    0.1, -0.5, 1.5e300, 123456789.125,
]


def reference_lengths(values):
    return [len(json.dumps(v)) for v in np.asarray(values, dtype=np.float64).tolist()]


class TestFloatReprLengths:
    def test_edge_values(self):
        values = np.array(EDGE_VALUES, dtype=np.float64)
        assert float_repr_lengths(values).tolist() == reference_lengths(values)

    def test_integer_valued_sums_up_to_a_64k_round(self):
        # A SUM round over 65 536 nodes reading 1..100 pushes whole values
        # up to 6 553 600: every digit-count class, both sides of each power
        # of ten in range, both signs.
        powers = [10**k for k in range(8)]
        whole = sorted(
            {0, 65536 * 100}
            | {p + d for p in powers for d in (-1, 0, 1)}
            | set(range(0, 65536 * 100, 9973))
        )
        values = np.array(whole + [-v for v in whole], dtype=np.float64)
        lengths = float_repr_lengths(values)
        assert lengths.dtype == np.int64
        assert lengths.tolist() == reference_lengths(values)

    def test_empty(self):
        assert float_repr_lengths(np.empty(0)).tolist() == []


class TestDigitCounts:
    @pytest.mark.parametrize("power", range(0, 19))
    def test_block_straddling_each_power_of_ten(self, power):
        boundary = 10**power
        start = max(0, boundary - 7)
        for count in (0, 1, 7, 8, 20):
            ids = np.arange(start, start + count, dtype=np.int64)
            expected = [len(str(i)) for i in ids.tolist()]
            assert int_digit_counts(ids).tolist() == expected

    def test_top_of_int64(self):
        top = np.iinfo(np.int64).max
        assert int_digit_counts(np.array([top])).tolist() == [19]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            int_digit_counts(np.array([3, -1]))


@contextmanager
def wire_encoder(accelerated: bool):
    """The JSON-body encoder with or without the C accelerator."""
    if accelerated:
        yield
        return
    with mock.patch.object(json.encoder, "c_make_encoder", None), mock.patch.object(
        json.encoder, "encode_basestring_ascii", json.encoder.py_encode_basestring_ascii
    ):
        yield


#: Ids of either width, with the width edges.
ids = (
    st.integers(0, 2**64 - 1)
    | st.integers(0, 2**160 - 1)
    | st.sampled_from([0, 2**64 - 1, 2**64, 2**160 - 1])
)
uints = st.integers(0, 2**64 - 1)
#: UTF-8-encodable text (a lone surrogate has no UTF-8 form).
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
numbers = st.floats(allow_nan=False) | st.integers(-(2**63), 2**63 - 1)


def _frame_messages():
    fixed = [code for code, (_, fields) in WIRE_LAYOUTS.items()
             if all(t != "frames" for _, t in fields)]
    return st.lists(st.sampled_from(fixed).flatmap(layout_message), max_size=3)


FIELD_VALUES = {
    "id": ids,
    "uint": uints,
    "bool": st.booleans(),
    "opt_id": st.none() | ids,
    "ids": st.lists(ids, max_size=4),
    "str": texts,
    "state": numbers | st.lists(numbers, max_size=4).map(tuple),
    "frames": st.deferred(_frame_messages),
}
traces = st.tuples(texts, texts, st.integers(0, 2**32 - 1)).map(list)


def envelope(kind, payload):
    return st.builds(
        Message,
        kind=st.just(kind),
        source=ids,
        destination=ids,
        payload=payload,
        msg_id=uints,
        reply_to=st.none() | uints,
    )


def with_trace(payload_strategy):
    return st.tuples(payload_strategy, st.none() | traces).map(
        lambda pair: pair[0] if pair[1] is None else {**pair[0], "_trace": pair[1]}
    )


def layout_message(code):
    kind, fields = WIRE_LAYOUTS[code]
    payload = st.fixed_dictionaries({name: FIELD_VALUES[t] for name, t in fields})
    return envelope(kind, with_trace(payload))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**80), 2**80)
    | st.floats(allow_nan=False) | texts,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(texts, children, max_size=3),
    max_leaves=8,
)
#: Payloads no layout takes: any kind with arbitrary fields, and a laid-out
#: kind whose payload has a value its layout's type does not hold.
misfits = st.sampled_from([
    ("agg_push", {"key": 3, "state": True}),
    ("agg_push", {"key": -1, "state": 1.0}),
    ("agg_push", {"key": 3, "state": 2**63}),
    ("agg_push", {"key": 3, "state": [1.0, [2]]}),
    ("agg_collect", {"key": 3, "root": 4, "round_id": 2**64, "aggregate": "sum"}),
    ("ping_reply", {"alive": 1}),
    ("lookup_result", {"result": 5, "path": [1, True]}),
    ("leave_notice", {"new_successor": 1, "new_predecessor": 2}),
    ("notify", {"candidate": 2**160}),
    ("agg_push", {"key": 3, "state": 1.0, "_trace": ["t", "p", -1]}),
])
json_messages = (
    st.tuples(
        st.sampled_from(sorted({kind for kind, _ in WIRE_LAYOUTS.values()})) | texts,
        st.dictionaries(texts, json_values, max_size=4),
    )
    | misfits
).flatmap(lambda pair: envelope(pair[0], with_trace(st.just(pair[1]))))
layout_messages = st.sampled_from(sorted(WIRE_LAYOUTS)).flatmap(layout_message)
wire_messages = layout_messages | json_messages


class TestMessageSize:
    @pytest.mark.parametrize("accelerated", [True, False], ids=["c", "pure"])
    @settings(max_examples=150, deadline=None)
    @given(message=wire_messages)
    @example(message=Message("agg_push", 7, 9, {"key": 3, "state": 2.0}, msg_id=11))
    @example(message=Message('q"\\é', 0, 2**65, {}, msg_id=0, reply_to=12345))
    def test_size_equals_encoded_length(self, accelerated, message):
        with wire_encoder(accelerated):
            assert message.encoded_size() == len(encode_message(message))

    @pytest.mark.parametrize("accelerated", [True, False], ids=["c", "pure"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Message("x", 0, 1, {"s": {1, 2}}),
            lambda: Message("x", 0, 1, {"o": object()}),
            lambda: Message("x", 0, 1, circular_payload()),
            lambda: Message("x", np.int64(3), 1, {}),
            lambda: Message("x", -1, 1, {}),
            lambda: Message("x", 0, 2**160, {}),
            lambda: Message("x", 0, 1, {}, msg_id=2**64),
            lambda: Message("x", 0, 1, {}, reply_to=True),
            lambda: Message("\ud800", 0, 1, {}),
            lambda: Message("net_batch", 0, 1, {"messages": [Message("x", -1, 1)]}),
        ],
        ids=[
            "set", "object", "circular", "np_int64_source", "negative_source",
            "id_beyond_160_bits", "msg_id_beyond_64_bits", "bool_reply_to",
            "surrogate_kind", "unencodable_frame",
        ],
    )
    def test_unencodable_raises_transport_error(self, accelerated, build):
        message = build()
        with wire_encoder(accelerated):
            with pytest.raises(TransportError):
                encode_message(message)
            with pytest.raises(TransportError):
                message.encoded_size()


def circular_payload() -> dict:
    payload: dict = {"state": 1.0}
    payload["self"] = payload
    return payload


class TestRoundTrip:
    @settings(max_examples=250, deadline=None)
    @given(message=wire_messages)
    def test_decode_inverts_encode(self, message):
        data = encode_message(message)
        assert decode_message(data) == message

    @settings(max_examples=150, deadline=None)
    @given(message=layout_messages)
    def test_a_fitting_payload_takes_its_layout(self, message):
        data = encode_message(message)
        kind, _ = WIRE_LAYOUTS[data[1]]
        assert kind == message.kind
        wide = any(
            isinstance(v, int) and not isinstance(v, bool) and v >= 2**64
            for v in (message.source, message.destination)
        )
        assert not wide or data[2] & 4

    def test_nan_state_round_trips_bit_for_bit(self):
        message = Message("agg_push", 1, 2, {"key": 3, "state": float("nan")})
        data = encode_message(message)
        assert encode_message(decode_message(data)) == data

    def test_wide_ids_take_twenty_bytes(self):
        narrow = Message("notify", 1, 2, {"candidate": 2**64 - 1}, msg_id=5)
        wide = Message("notify", 1, 2, {"candidate": 2**64}, msg_id=5)
        # Three ids (src, dst, candidate), 12 bytes wider each.
        assert len(encode_message(wide)) - len(encode_message(narrow)) == 3 * 12

    def test_fixed_layout_size_is_one_constant_per_width(self):
        sizes = {
            Message("agg_push", src, dst, {"key": key, "state": state}, msg_id=mid).encoded_size()
            for src, dst, key, state, mid in [
                (1, 2, 3, 0.5, 1), (2**63, 9, 2**60, -1e300, 2**64 - 1), (0, 0, 0, 7, 0),
            ]
        }
        assert len(sizes) == 1


def _agg_collect() -> bytes:
    return encode_message(Message(
        "agg_collect", 5, 6, {"key": 1, "root": 2, "round_id": 3, "aggregate": "sum"},
        msg_id=9,
    ))


def _agg_push() -> bytes:
    return encode_message(Message("agg_push", 5, 6, {"key": 1, "state": 2.5}, msg_id=9))


def _lookup_result() -> bytes:
    return encode_message(Message(
        "lookup_result", 5, 6, {"result": 7, "path": [1, 2]}, msg_id=9, reply_to=4,
    ))


def _batch() -> bytes:
    inner = Message("agg_push", 5, 6, {"key": 1, "state": 2.5}, msg_id=9)
    return encode_message(Message("net_batch", 5, 6, {"messages": [inner, inner]}, msg_id=10))


def _replace(data: bytes, at: int, new: bytes) -> bytes:
    return data[:at] + new + data[at + len(new):]


#: Header: version, layout, flags (3 B), src, dst, msg_id (8 B each).
HEADER = 27
MALFORMED = {
    "empty": b"",
    "unknown_version": _replace(_agg_push(), 0, b"\x02"),
    "unknown_layout": _replace(_agg_push(), 1, b"\xc8"),
    "unknown_flags": _replace(_agg_push(), 2, b"\x08"),
    "trailing_bytes": _agg_push() + b"\x00",
    "bad_state_tag": _replace(_agg_push(), HEADER + 8, b"\x07"),
    "bad_tuple_element_tag": encode_message(
        Message("agg_push", 5, 6, {"key": 1, "state": (1.0, 2)}, msg_id=9)
    )[:HEADER + 8 + 3] + b"\x02" + bytes(8) * 2,
    "invalid_utf8_field": _replace(_agg_collect(), len(_agg_collect()) - 3, b"\xff"),
    "invalid_utf8_kind": _replace(
        encode_message(Message("xyz", 5, 6, {}, msg_id=9)), HEADER + 2, b"\xff"
    ),
    "invalid_json_body": encode_message(Message("xyz", 5, 6, {}, msg_id=9))[:-1] + b"x",
    "str_length_past_end": _replace(_agg_collect(), HEADER + 24, struct.pack("<H", 4)),
    "ids_count_past_end": _replace(_lookup_result(), HEADER + 8 + 8, struct.pack("<H", 3)),
    "frame_length_past_end": _replace(_batch(), HEADER + 2, struct.pack("<I", 10**6)),
    "truncated_frame": _replace(_batch(), HEADER + 2, struct.pack("<I", 10)),
}


class TestMalformed:
    @pytest.mark.parametrize("data", list(MALFORMED.values()), ids=list(MALFORMED))
    def test_raises_transport_error(self, data):
        with pytest.raises(TransportError):
            decode_message(data)

    @settings(max_examples=60, deadline=None)
    @given(message=wire_messages)
    def test_every_truncation_raises(self, message):
        data = encode_message(message)
        for end in range(len(data)):
            with pytest.raises(TransportError):
                decode_message(data[:end])

    def test_the_unmangled_datagrams_decode(self):
        for data in (_agg_collect(), _agg_push(), _lookup_result(), _batch()):
            assert encode_message(decode_message(data)) == data
