"""Unit tests for the circular identifier space."""

import pytest

from repro.chord.idspace import IdSpace
from repro.errors import IdentifierError


class TestConstruction:
    def test_size_and_max(self):
        space = IdSpace(4)
        assert space.size == 16
        assert space.max_id == 15

    def test_rejects_bad_bits(self):
        with pytest.raises(IdentifierError):
            IdSpace(0)
        with pytest.raises(IdentifierError):
            IdSpace(1000)

    def test_sha1_width_supported(self):
        assert IdSpace(160).size == 1 << 160


class TestValidation:
    def test_contains(self):
        space = IdSpace(4)
        assert space.validate(0) == 0
        assert space.validate(15) == 15
        for outside in (16, -1, 3.0):
            with pytest.raises(IdentifierError):
                space.validate(outside)

    def test_validate_returns_value(self):
        assert IdSpace(4).validate(7) == 7

    def test_validate_raises(self):
        with pytest.raises(IdentifierError):
            IdSpace(4).validate(16)

    def test_wrap(self):
        space = IdSpace(4)
        assert space.wrap(16) == 0
        assert space.wrap(17) == 1
        assert space.wrap(-1) == 15


class TestDistances:
    def test_cw_basic(self):
        space = IdSpace(4)
        assert space.cw(1, 5) == 4
        assert space.cw(5, 1) == 12  # wraps around
        assert space.cw(7, 7) == 0

    def test_cw_paper_example(self):
        # Algorithm 1 example: x = cw(8, 0) = 8 in a 4-bit space.
        assert IdSpace(4).cw(8, 0) == 8

    def test_cw_plus_reverse_is_ring_size(self):
        space = IdSpace(6)
        for a, b in [(3, 50), (0, 63), (10, 11)]:
            assert space.cw(a, b) + space.cw(b, a) == space.size



class TestIntervals:
    def test_in_open(self):
        space = IdSpace(4)
        assert space.in_open(5, 3, 8)
        assert not space.in_open(3, 3, 8)
        assert not space.in_open(8, 3, 8)
        # wrapping interval (14, 2)
        assert space.in_open(15, 14, 2)
        assert space.in_open(0, 14, 2)
        assert not space.in_open(2, 14, 2)

    def test_in_open_degenerate_full_circle(self):
        space = IdSpace(4)
        assert space.in_open(5, 3, 3)
        assert not space.in_open(3, 3, 3)

    def test_in_half_open_right(self):
        space = IdSpace(4)
        assert space.in_half_open_right(8, 3, 8)
        assert not space.in_half_open_right(3, 3, 8)
        # a == b means whole circle (one-node ring successor test)
        assert space.in_half_open_right(11, 4, 4)


class TestFingerOffsets:
    def test_finger_start(self):
        space = IdSpace(4)
        assert space.finger_start(8, 0) == 9
        assert space.finger_start(8, 3) == 0  # 8 + 8 wraps

    def test_rejects_bad_index(self):
        space = IdSpace(4)
        with pytest.raises(IdentifierError):
            space.finger_start(0, 4)
        with pytest.raises(IdentifierError):
            space.finger_start(0, -1)
