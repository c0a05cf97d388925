"""Unit tests for identifier probing (Sec. 3.5 / Adler et al.)."""

import numpy as np
import pytest

from repro.chord.idspace import IdSpace
from repro.chord.probing import (
    default_probe_count,
    probe_neighbors,
    probe_split_identifier,
)
from repro.chord.ring import StaticRing
from repro.util.bits import ceil_log2


class TestDefaultProbeCount:
    def test_scales_with_log(self):
        assert default_probe_count(2) == 2
        assert default_probe_count(1024) == 20  # 2 * log2(1024)

    def test_minimum_one(self):
        assert default_probe_count(1) == 1

    def test_multiplier(self):
        assert default_probe_count(1024, multiplier=1.0) == 10

    @pytest.mark.parametrize("multiplier", [0.5, 1.0, 2.0, 2.5])
    def test_equals_the_numpy_expression_it_replaced(self, multiplier):
        # math.ceil on the same float product; the count only moves at powers
        # of two, so those and their neighbours cover every k <= 2^20.
        for exponent in range(21):
            for k in (2**exponent - 1, 2**exponent, 2**exponent + 1):
                if 2 <= k <= 2**20:
                    old = max(1, int(np.ceil(multiplier * ceil_log2(max(k, 2)))))
                    assert default_probe_count(k, multiplier) == old


class TestProbeNeighbors:
    def test_walks_clockwise(self, space4):
        ring = StaticRing(space4, [2, 5, 9, 14])
        assert probe_neighbors(ring, 3, 3) == [5, 9, 14]

    def test_wraps(self, space4):
        ring = StaticRing(space4, [2, 5, 9, 14])
        assert probe_neighbors(ring, 15, 2) == [2, 5]

    def test_count_clamped_to_ring_size(self, space4):
        ring = StaticRing(space4, [2, 5])
        assert probe_neighbors(ring, 0, 10) == [2, 5]

    def test_rejects_non_positive_count(self, space4):
        ring = StaticRing(space4, [2])
        with pytest.raises(ValueError):
            probe_neighbors(ring, 0, 0)


class TestProbeSplitIdentifier:
    def test_empty_ring_gets_random_id(self, space16):
        ring = StaticRing(space16)
        ident = probe_split_identifier(ring, rng=3)
        assert space16.contains(ident)

    def test_splits_largest_probed_gap(self, space4):
        # Nodes at 0 and 1: the gap before 0 (from 1, size 15) dominates.
        ring = StaticRing(space4, [0, 1])
        ident = probe_split_identifier(ring, rng=5)
        # Midpoint of (1, 0]: 1 + 15//2 = 8.
        assert ident == 8

    def test_never_collides(self, space16):
        ring = StaticRing(space16, [7])
        for seed in range(30):
            ident = probe_split_identifier(ring, rng=seed)
            assert ident not in ring
            ring.add(ident)

    def test_bounds_gap_ratio(self):
        # The headline property: after n probing joins the max/min gap
        # ratio is a small constant, vs O(log n) for random ids.
        space = IdSpace(32)
        ring = StaticRing(space)
        import numpy as np

        rng = np.random.default_rng(42)
        for _ in range(512):
            ring.add(probe_split_identifier(ring, rng=rng))
        assert ring.gap_ratio() <= 8.0
