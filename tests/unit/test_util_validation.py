"""Unit tests for argument validation helpers."""

import pytest

from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("x", 0.1)
        check_positive("x", 5)

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)
        with pytest.raises(ValueError):
            check_positive("x", -1)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        check_non_negative("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -0.001)


class TestCheckProbability:
    def test_accepts_bounds(self):
        check_probability("p", 0.0)
        check_probability("p", 1.0)
        check_probability("p", 0.5)

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            check_probability("p", -0.1)
        with pytest.raises(ValueError):
            check_probability("p", 1.1)
