"""Property-based tests for the finger limiting function g(x)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.limiting import (
    FingerLimiter,
    ceil_log2_fraction,
    finger_limit,
    parent_slots,
)
from repro.util.bits import ceil_div

POSITIVE_FRACTIONS = st.fractions(
    min_value=Fraction(1, 10**6), max_value=Fraction(10**9)
)


class TestCeilLog2Fraction:
    @given(POSITIVE_FRACTIONS)
    def test_defining_inequality(self, value):
        k = ceil_log2_fraction(value)
        assert Fraction(2) ** k >= min(value, max(value, 1)) or value <= 1
        if value > 1:
            assert Fraction(2) ** k >= value
            assert Fraction(2) ** (k - 1) < value

    @given(st.integers(min_value=0, max_value=200))
    def test_matches_integer_ceil_log2(self, exponent):
        from repro.util.bits import ceil_log2

        value = (1 << exponent) + 1
        assert ceil_log2_fraction(Fraction(value)) == ceil_log2(value)


class TestFingerLimit:
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.fractions(min_value=Fraction(1, 4), max_value=Fraction(10**6)),
    )
    def test_non_negative(self, x, d0):
        assert finger_limit(x, d0) >= 0

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.fractions(min_value=Fraction(1, 4), max_value=Fraction(100)),
    )
    def test_monotone_in_x(self, x, d0):
        assert finger_limit(x, d0) <= finger_limit(x + 1, d0)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_limit_allows_progress(self, x):
        # 2^{g(x)} >= (x+2)/3 > x/4 for d0=1: the allowed jump shrinks at
        # most geometrically, so routes stay O(log) even when limited.
        g = finger_limit(x, 1)
        assert (1 << g) * 4 >= x

    @given(st.integers(min_value=1, max_value=10**6))
    def test_limit_never_reaches_past_root(self, x):
        # The largest allowed finger offset never exceeds the distance to
        # the root by more than the derivation's slack factor.
        g = finger_limit(x, 1)
        assert (1 << g) <= max(2 * (x + 2) // 3, 1)


class TestFingerLimiterConsistency:
    @given(
        st.integers(min_value=4, max_value=24),
        st.integers(min_value=1, max_value=512),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_for_ring_matches_manual_fraction(self, bits, n, x):
        limiter = FingerLimiter.for_ring(bits, n)
        assert limiter(x) == finger_limit(x, Fraction(1 << bits, n))


def reference_limit(x: int, d0: float | Fraction) -> int:
    """``g(x)`` in rationals, as ``finger_limit`` computed it before the
    integer form: the reference the integer form must reproduce."""
    gap = d0 if isinstance(d0, Fraction) else Fraction(d0).limit_denominator(10**12)
    return ceil_log2_fraction((x + 2 * gap) / 3)


DISTANCES = st.integers(min_value=0, max_value=2**160)
#: Float gaps from a millionth of a typical gap to a 2^160 space over a
#: handful of nodes, most with no short binary expansion.
FLOAT_GAPS = st.floats(
    min_value=1e-3, max_value=2.0**150, allow_nan=False, allow_infinity=False
)
RATIONAL_GAPS = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=2**170),
    st.integers(min_value=1, max_value=10**12),
)
RING_GAPS = st.builds(
    lambda bits, n: Fraction(2**bits, n),
    st.integers(min_value=1, max_value=160),
    st.integers(min_value=1, max_value=2**40),
)


class TestIntegerFormMatchesRationalReference:
    @given(DISTANCES, st.one_of(FLOAT_GAPS, RATIONAL_GAPS, RING_GAPS))
    @settings(max_examples=500)
    def test_scalar_forms_agree(self, x, d0):
        expected = reference_limit(x, d0)
        assert FingerLimiter.for_gap(d0)(x) == expected
        assert finger_limit(x, d0) == expected

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**62),
                st.integers(min_value=0, max_value=2**53 - 1),
            ),
            min_size=1,
            max_size=32,
        ),
        st.one_of(
            st.floats(min_value=1e-3, max_value=2.0**40),
            st.builds(
                Fraction,
                st.integers(min_value=1, max_value=2**40),
                st.integers(min_value=1, max_value=10**12),
            ),
        ),
    )
    def test_block_limits_agree_elementwise(self, pairs, d0):
        # The array form is parent_slots: min(floor(log2 reach), g(x)).
        x = np.array([x for x, _ in pairs], dtype=np.int64)
        reach = np.array([r for _, r in pairs], dtype=np.int64)
        assert parent_slots(reach, x, d0).tolist() == [
            min(r.bit_length() - 1, reference_limit(x, d0)) for x, r in pairs
        ]

    def test_short_float_gaps_are_exact_and_long_ones_reduced(self):
        # A dyadic float keeps its exact value; one whose denominator
        # exceeds 10**12 is reduced, as the rational form reduced it.
        assert FingerLimiter.for_gap(0.375).d0 == Fraction(3, 8)
        third = 1 / 3
        assert Fraction(third).denominator > 10**12
        assert FingerLimiter.for_gap(third).d0 == Fraction(third).limit_denominator(
            10**12
        )


#: Rationals with odd denominators: ``c = ceil(2*d0)`` rounds a fraction up.
ODD_GAPS = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=2**50),
    st.integers(min_value=0, max_value=5 * 10**11).map(lambda k: 2 * k + 1),
)
#: Float gaps; most have a denominator past ``10**12`` and are reduced.
WIDE_FLOAT_GAPS = st.one_of(
    st.floats(min_value=1e-3, max_value=2.0**48),
    st.sampled_from([1 / 3, 2.0**32 / 3, 2.0**48 / 65535, 3.0000000001]),
)
FAST_DISTANCES = st.integers(min_value=0, max_value=2**48 - 1)
REACHES = st.integers(min_value=1, max_value=2**53 - 1)


def inline_limit(x: int, bits: int, n: int) -> int:
    """``DatUpdateEngine._patch_trees``' inline form, verbatim."""
    c_plus_2 = ceil_div(2 * (1 << bits), n) + 2
    return ((x + c_plus_2) // 3 - 1).bit_length()


class TestOneIntegerG:
    """Every evaluator of ``g(x)`` equals ``ceil_log2_fraction((x + 2*d0)/3)``."""

    @given(FAST_DISTANCES, REACHES, st.one_of(ODD_GAPS, WIDE_FLOAT_GAPS))
    @example(0, 1, Fraction(1, 3))
    @example(2**48 - 1, 2**53 - 1, Fraction(2**48, 65535))
    @example(2**48 - 1, 2**47, 1 / 3)
    @settings(max_examples=400)
    def test_limiter_and_parent_slots(self, x, reach, d0):
        expected = reference_limit(x, d0)
        assert FingerLimiter.for_gap(d0)(x) == expected
        floor_reach = reach.bit_length() - 1
        xs, reaches = np.array([x], dtype=np.int64), np.array([reach], dtype=np.int64)
        assert parent_slots(reaches, xs, None).tolist() == [floor_reach]
        assert parent_slots(reaches, xs, d0).tolist() == [min(floor_reach, expected)]

    @given(
        FAST_DISTANCES,
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=1, max_value=2**20),
    )
    @example(0, 48, 1)
    @example(2**48 - 1, 48, 2**16 - 1)
    @settings(max_examples=300)
    def test_incremental_inline_form(self, x, bits, n):
        d0 = Fraction(1 << bits, n)
        expected = ceil_log2_fraction((x + 2 * d0) / 3)
        assert inline_limit(x, bits, n) == expected
        assert FingerLimiter.for_ring(bits, n)(x) == expected

    @pytest.mark.parametrize("gap", [0, 0.0, Fraction(0)])
    def test_zero_gap_raises(self, gap):
        with pytest.raises(ValueError):
            FingerLimiter.for_gap(gap)
        with pytest.raises(ValueError):
            parent_slots(np.array([4]), np.array([4]), gap)
