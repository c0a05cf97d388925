"""Unit tests for the closed-form DAT analysis (paper Sec. 3.3/3.5)."""

import pytest

from repro.chord.idgen import UniformIdAssigner
from repro.chord.idspace import IdSpace
from repro.core.analysis import (
    compare_measured_to_theory,
    imbalance_factor,
    theoretical_balanced_height_bound,
    theoretical_balanced_max_branching,
    theoretical_basic_branching,
    theoretical_max_branching_basic,
)
from tests.oracles import build_basic_dat, load_distribution


class TestTheoreticalBasicBranching:
    def test_root_has_log_n_children(self):
        # d = 0 -> B = log2(n).
        assert theoretical_basic_branching(0, 16, 4) == 4
        assert theoretical_basic_branching(0, 1024, 32) == 10

    def test_far_half_has_no_children(self):
        # Case (2) of the proof: d >= 2^{b-1} -> B = 0.
        assert theoretical_basic_branching(8, 16, 4) == 0
        assert theoretical_basic_branching(15, 16, 4) == 0

    def test_fig2_match(self):
        # Full 16-node ring, root 0: check against the measured Fig. 2 tree.
        space = IdSpace(4)
        from repro.chord.ring import StaticRing

        ring = StaticRing(space, range(16))
        tree = build_basic_dat(ring, key=0)
        comparison = compare_measured_to_theory(tree, bits=4)
        for node, (measured, predicted) in comparison.items():
            assert measured == predicted, f"node {node}"

    def test_exact_on_larger_uniform_ring(self):
        space = IdSpace(10)
        ring = UniformIdAssigner().build_ring(space, 256)
        tree = build_basic_dat(ring, key=0)
        comparison = compare_measured_to_theory(tree, bits=10)
        mismatches = [
            node for node, (m, p) in comparison.items() if m != p
        ]
        assert not mismatches

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            theoretical_basic_branching(1, 100, 32)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            theoretical_basic_branching(-1, 16, 4)
        with pytest.raises(ValueError):
            theoretical_basic_branching(1, 0, 4)


class TestTheoreticalDepth:
    def test_fig2_node_n1(self):
        # N1: d = 15 = 0b1111 -> depth 4 (route <1, 9, 13, 15, 0>).
        from repro.core.analysis import theoretical_basic_depth

        assert theoretical_basic_depth(15, 16, 4) == 4

    def test_root_depth_zero(self):
        from repro.core.analysis import theoretical_basic_depth

        assert theoretical_basic_depth(0, 16, 4) == 0

    def test_power_of_two_distance_is_one_hop(self):
        from repro.core.analysis import theoretical_basic_depth

        for d in (1, 2, 4, 8):
            assert theoretical_basic_depth(d, 16, 4) == 1

    def test_matches_measured_everywhere(self):
        from repro.core.analysis import compare_depths_to_theory

        space = IdSpace(10)
        ring = UniformIdAssigner().build_ring(space, 128)
        tree = build_basic_dat(ring, key=0)
        for node, (measured, predicted) in compare_depths_to_theory(
            tree, bits=10
        ).items():
            assert measured == predicted, node

    def test_scaled_gap(self):
        # 256-id space with 16 nodes: gap 16; distance 48 = 3 gaps = 0b11.
        from repro.core.analysis import theoretical_basic_depth

        assert theoretical_basic_depth(48, 16, 8) == 2

    def test_rejects_misaligned_distance(self):
        from repro.core.analysis import theoretical_basic_depth

        with pytest.raises(ValueError):
            theoretical_basic_depth(3, 16, 8)  # not a multiple of gap 16

    def test_rejects_non_power_of_two(self):
        from repro.core.analysis import theoretical_basic_depth

        with pytest.raises(ValueError):
            theoretical_basic_depth(0, 100, 10)


class TestInternalCountAndAvgBranching:
    def test_internal_count_half(self):
        from repro.core.analysis import theoretical_basic_internal_count

        assert theoretical_basic_internal_count(16) == 8
        assert theoretical_basic_internal_count(1024) == 512

    def test_avg_branching_formula(self):
        from repro.core.analysis import theoretical_basic_avg_branching

        assert theoretical_basic_avg_branching(16) == pytest.approx(1.875)

    def test_matches_measured(self):
        from repro.core.analysis import (
            theoretical_basic_avg_branching,
            theoretical_basic_internal_count,
        )

        space = IdSpace(12)
        ring = UniformIdAssigner().build_ring(space, 256)
        tree = build_basic_dat(ring, key=0)
        stats = tree.stats()
        assert stats.n_internal == theoretical_basic_internal_count(256)
        assert stats.avg_branching == pytest.approx(
            theoretical_basic_avg_branching(256)
        )


class TestBoundsHelpers:
    def test_max_branching_basic(self):
        assert theoretical_max_branching_basic(8192) == 13

    def test_balanced_constants(self):
        assert theoretical_balanced_max_branching() == 2
        assert theoretical_balanced_height_bound(256) == 8

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            theoretical_max_branching_basic(0)
        with pytest.raises(ValueError):
            theoretical_balanced_height_bound(0)


class TestImbalanceFactor:
    def test_uniform_loads_are_one(self):
        assert imbalance_factor([3, 3, 3]) == 1.0

    def test_skewed(self):
        assert imbalance_factor([10, 0, 0, 0, 0]) == 5.0

    def test_mapping_input(self):
        assert imbalance_factor({1: 4, 2: 0}) == 2.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            imbalance_factor([])

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            imbalance_factor([0, 0])


class TestLoadDistribution:
    def test_descending_order(self):
        dist = load_distribution({1: 5, 2: 9, 3: 1})
        assert [load for _n, load in dist] == [9, 5, 1]

    def test_ties_broken_by_node(self):
        dist = load_distribution({5: 2, 3: 2})
        assert dist == [(3, 2), (5, 2)]
