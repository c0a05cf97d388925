"""Unit tests for the finger limiting function g(x) (paper Sec. 3.4)."""

from fractions import Fraction

import pytest

from repro.core.limiting import FingerLimiter, ceil_log2_fraction


class TestCeilLog2Fraction:
    def test_integers(self):
        assert ceil_log2_fraction(Fraction(1)) == 0
        assert ceil_log2_fraction(Fraction(2)) == 1
        assert ceil_log2_fraction(Fraction(3)) == 2
        assert ceil_log2_fraction(Fraction(8)) == 3

    def test_fractions(self):
        assert ceil_log2_fraction(Fraction(5, 2)) == 2  # 2.5 -> 2
        assert ceil_log2_fraction(Fraction(9, 2)) == 3  # 4.5 -> 3
        assert ceil_log2_fraction(Fraction(4, 1)) == 2

    def test_below_one_floors_at_zero(self):
        assert ceil_log2_fraction(Fraction(2, 3)) == 0
        assert ceil_log2_fraction(Fraction(1, 100)) == 0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ceil_log2_fraction(Fraction(0))

    def test_huge_values_exact(self):
        assert ceil_log2_fraction(Fraction((1 << 200) + 1)) == 201


class TestFingerLimit:
    def test_paper_example_n8(self):
        # Fig. 5: node N8, root N0, d0 = 1: g(8) = ceil(log2(10/3)) = 2.
        assert FingerLimiter.for_gap(1)(8) == 2

    def test_adjacent_node(self):
        # x = 1, d0 = 1: g = ceil(log2(1)) = 0 -> only the successor finger.
        assert FingerLimiter.for_gap(1)(1) == 0

    def test_grows_logarithmically(self):
        values = [FingerLimiter.for_gap(1)(x) for x in (1, 2, 4, 8, 16, 32, 64)]
        assert values == sorted(values)
        assert values[-1] - values[0] <= 7

    def test_d0_scaling(self):
        # Doubling d0 shifts the limit by at most one slot.
        for x in (10, 100, 1000):
            assert abs(FingerLimiter.for_gap(2)(x) - FingerLimiter.for_gap(1)(x)) <= 1

    def test_fraction_d0_exact(self):
        assert FingerLimiter.for_gap(Fraction(1))(8) == 2

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            FingerLimiter.for_gap(1)(-1)
        with pytest.raises(ValueError):
            FingerLimiter.for_gap(0)(5)


class TestFingerLimiter:
    def test_for_ring(self):
        limiter = FingerLimiter.for_ring(bits=4, n_nodes=16)
        assert limiter.d0 == 1
        assert limiter(8) == 2

    def test_for_gap_accepts_float(self):
        limiter = FingerLimiter.for_gap(1.0)
        assert limiter(8) == 2

    def test_rejects_bad_ring(self):
        with pytest.raises(ValueError):
            FingerLimiter.for_ring(bits=4, n_nodes=0)
        with pytest.raises(ValueError):
            FingerLimiter.for_gap(0)

    def test_inbound_finger_cases_from_proof(self):
        # Sec. 3.5 cases (3) and (4): for d = cw(i, r) and
        # j = ceil(log2(d+2)), the nodes at i - 2^{j-1} and i - 2^j pick i.
        # Equivalently: g(d + 2^{j-1}) == j - 1 and g(d + 2^j) == j.
        from repro.util.bits import ceil_log2

        for d in range(1, 200):
            j = ceil_log2(d + 2)
            assert FingerLimiter.for_gap(1)(d + (1 << (j - 1))) == j - 1, d
            assert FingerLimiter.for_gap(1)(d + (1 << j)) == j, d
