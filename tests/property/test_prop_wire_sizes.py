"""Property tests for the slab path's vectorised wire-size arithmetic.

``float_repr_lengths`` claims the JSON numeral length of a float64 without
encoding it whenever the value is whole and below 1e16, and
``block_digit_counts`` claims the digit counts of a contiguous id block
without materialising the ids. Both must equal the per-element reference
for *every* input: a single wrong byte breaks the slab/oracle byte
accounting identity. The reference (``len(json.dumps(v))`` — the wire is
JSON, which spells the non-finite values ``Infinity`` / ``-Infinity`` /
``NaN``, not as ``repr`` does — and ``len(str(i))``) lives here, in the
test.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sim.messages import (
    block_digit_counts,
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
            assert block_digit_counts(start, count).tolist() == expected
            assert int_digit_counts(ids).tolist() == expected

    def test_block_spanning_several_boundaries(self):
        ids = np.arange(0, 100_500, dtype=np.int64)
        expected = int_digit_counts(ids)
        got = block_digit_counts(0, len(ids))
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_top_of_int64(self):
        top = np.iinfo(np.int64).max
        assert block_digit_counts(top - 3, 3).tolist() == [19, 19, 19]
        assert int_digit_counts(np.array([top])).tolist() == [19]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            block_digit_counts(-1, 4)
        with pytest.raises(ValueError):
            block_digit_counts(4, -1)
        with pytest.raises(ValueError):
            int_digit_counts(np.array([3, -1]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**18), st.integers(0, 3000))
    def test_block_equals_per_element(self, start, count):
        ids = start + np.arange(count, dtype=np.int64)
        assert np.array_equal(block_digit_counts(start, count), int_digit_counts(ids))
        assert int_digit_counts(ids).tolist() == [len(str(i)) for i in ids.tolist()]
