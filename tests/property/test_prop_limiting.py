"""Property-based tests for the finger limiting function g(x)."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.limiting import (
    FingerLimiter,
    _balanced_limits,
    ceil_log2_fraction,
    finger_limit,
)

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
        st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=32),
        st.one_of(
            st.floats(min_value=1e-3, max_value=2.0**40),
            st.builds(
                Fraction,
                st.integers(min_value=1, max_value=2**40),
                st.integers(min_value=1, max_value=10**12),
            ),
        ),
    )
    def test_block_limits_agree_elementwise(self, xs, d0):
        limits = _balanced_limits(np.array(xs, dtype=np.int64), d0)
        assert limits.tolist() == [reference_limit(x, d0) for x in xs]

    def test_short_float_gaps_are_exact_and_long_ones_reduced(self):
        # A dyadic float keeps its exact value; one whose denominator
        # exceeds 10**12 is reduced, as the rational form reduced it.
        assert FingerLimiter.for_gap(0.375).d0 == Fraction(3, 8)
        third = 1 / 3
        assert Fraction(third).denominator > 10**12
        assert FingerLimiter.for_gap(third).d0 == Fraction(third).limit_denominator(
            10**12
        )
