"""Property tests for the slab path's vectorised wire-size arithmetic.

``float_repr_lengths`` claims the JSON numeral length of a float64 without
encoding it whenever the value is whole and below 1e16, and
``int_digit_counts`` the digit count of an int64 by comparison against the
powers of ten. Both must equal the per-element reference for *every*
input: a single wrong byte breaks the slab/oracle byte accounting
identity. The reference (``len(json.dumps(v))`` — the wire is
JSON, which spells the non-finite values ``Infinity`` / ``-Infinity`` /
``NaN``, not as ``repr`` does — and ``len(str(i))``) lives here, in the
test.

``Message.encoded_size`` likewise claims ``len(encode_message(m))``
without encoding the envelope; it is checked against the full encoding
for arbitrary messages, with and without the C JSON accelerator.
"""

import json
import json.encoder
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import TransportError
from repro.sim import messages
from repro.sim.messages import (
    Message,
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
        # up to 6 553 600: every digit-count class the benchmark exercises,
        # both sides of each power of ten in range, both signs.
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

    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(0, 64),
            elements=st.one_of(
                st.floats(allow_nan=True, allow_infinity=True, width=64),
                st.integers(-(2**60), 2**60).map(float),
                st.sampled_from(EDGE_VALUES),
            ),
        )
    )
    @example(np.array(EDGE_VALUES, dtype=np.float64))
    def test_matches_repr_elementwise(self, values):
        assert float_repr_lengths(values).tolist() == reference_lengths(values)


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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**18), st.integers(0, 3000))
    def test_block_equals_per_element(self, start, count):
        ids = start + np.arange(count, dtype=np.int64)
        assert int_digit_counts(ids).tolist() == [len(str(i)) for i in ids.tolist()]


@contextmanager
def wire_encoder(accelerated: bool):
    """The wire encoder as built with or without the C accelerator."""
    if accelerated:
        yield
        return
    with mock.patch.object(json.encoder, "c_make_encoder", None), mock.patch.object(
        json.encoder, "encode_basestring_ascii", json.encoder.py_encode_basestring_ascii
    ):
        chunker = messages._wire_chunker()
        assert chunker == messages._WIRE_JSON.iterencode
        with mock.patch.object(messages, "_wire_chunks", chunker):
            yield


#: Strings the encoder must escape: quotes, backslashes, controls, non-ASCII
#: (astral and a lone surrogate included).
AWKWARD_TEXT = ['"', "\\", '\\"', "\x00\n\t", "é", "日本語", " ", "\U0001f600", "\ud800"]
texts = st.text() | st.sampled_from(AWKWARD_TEXT)
#: Envelope numerals: negative, beyond 2^64 both ways, plus booleans, which
#: are ints but not plain ints (the full-encode path).
numerals = (
    st.integers()
    | st.integers(-(2**80), 2**80)
    | st.sampled_from([2**64, 2**64 + 1, -(2**64) - 1, 10**30])
    | st.booleans()
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**80), 2**80)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, float("inf"), float("-inf"), float("nan"), 1e16, 5e-324])
    | texts,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(texts, children, max_size=4),
    max_leaves=12,
)
message_strategy = st.builds(
    Message,
    kind=texts,
    source=numerals,
    destination=numerals,
    payload=st.dictionaries(texts, json_values, max_size=5),
    msg_id=st.integers(min_value=0, max_value=2**70) | st.integers(),
    reply_to=st.none() | numerals,
)


def circular_payload() -> dict:
    payload: dict = {"state": 1.0}
    payload["self"] = payload
    return payload


class TestMessageSize:
    @pytest.mark.parametrize("accelerated", [True, False], ids=["c", "pure"])
    @settings(max_examples=300, deadline=None)
    @given(message=message_strategy)
    @example(message=Message("agg_push", 7, 9, {"key": 3, "state": 2.0}, msg_id=11))
    @example(message=Message('q"\\é', -1, 2**65, {}, msg_id=0, reply_to=12345))
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
        ],
        ids=["set", "object", "circular", "np_int64_source"],
    )
    def test_unencodable_raises_transport_error(self, accelerated, build):
        message = build()
        with wire_encoder(accelerated):
            with pytest.raises(TransportError):
                encode_message(message)
            with pytest.raises(TransportError):
                message.encoded_size()
