"""Unit tests for the closed-form DAT analysis (paper Sec. 3.3/3.5)."""

import pytest

from repro.chord.idgen import UniformIdAssigner
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.core.analysis import (
    compare_depths_to_theory,
    compare_measured_to_theory,
    imbalance_factor,
    theoretical_basic_avg_branching,
)
from tests.oracles import build_basic_dat, load_distribution


def _full_ring4_tree():
    """The paper's Fig. 2 tree: the full 16-node 4-bit ring, root 0."""
    return build_basic_dat(StaticRing(IdSpace(4), range(16)), key=0)


class TestTheoreticalBasicBranching:
    def test_root_has_log_n_children(self):
        # d = 0 -> B = log2(n).
        assert compare_measured_to_theory(_full_ring4_tree(), bits=4)[0] == (4, 4)

    def test_far_half_has_no_children(self):
        # Case (2) of the proof: d >= 2^{b-1} -> B = 0 (node 8: d = 8,
        # node 1: d = 15).
        comparison = compare_measured_to_theory(_full_ring4_tree(), bits=4)
        assert comparison[8] == comparison[1] == (0, 0)

    def test_fig2_match(self):
        # Full 16-node ring, root 0: check against the measured Fig. 2 tree.
        comparison = compare_measured_to_theory(_full_ring4_tree(), bits=4)
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
        tree = build_basic_dat(StaticRing(IdSpace(4), range(6)), key=0)
        with pytest.raises(ValueError):
            compare_measured_to_theory(tree, bits=4)


class TestTheoreticalDepth:
    def test_fig2_node_n1(self):
        # N1: d = 15 = 0b1111 -> depth 4 (route <1, 9, 13, 15, 0>).
        assert compare_depths_to_theory(_full_ring4_tree(), bits=4)[1] == (4, 4)

    def test_root_depth_zero(self):
        assert compare_depths_to_theory(_full_ring4_tree(), bits=4)[0] == (0, 0)

    def test_power_of_two_distance_is_one_hop(self):
        comparison = compare_depths_to_theory(_full_ring4_tree(), bits=4)
        for node in (15, 14, 12, 8):  # d = 1, 2, 4, 8
            assert comparison[node] == (1, 1)

    def test_matches_measured_everywhere(self):
        space = IdSpace(10)
        ring = UniformIdAssigner().build_ring(space, 128)
        tree = build_basic_dat(ring, key=0)
        for node, (measured, predicted) in compare_depths_to_theory(
            tree, bits=10
        ).items():
            assert measured == predicted, node

    def test_scaled_gap(self):
        # 256-id space with 16 nodes: gap 16; node 208 is at distance
        # 48 = 3 gaps = 0b11 from root 0.
        tree = build_basic_dat(StaticRing(IdSpace(8), range(0, 256, 16)), key=0)
        assert compare_depths_to_theory(tree, bits=8)[208] == (2, 2)

    def test_rejects_misaligned_distance(self):
        # Node 3 sits off the gap-16 grid of a 16-node 8-bit ring.
        idents = [3, *range(16, 256, 16)]
        tree = build_basic_dat(StaticRing(IdSpace(8), idents), key=0)
        with pytest.raises(ValueError):
            compare_depths_to_theory(tree, bits=8)

    def test_rejects_non_power_of_two(self):
        tree = build_basic_dat(StaticRing(IdSpace(4), range(6)), key=0)
        with pytest.raises(ValueError):
            compare_depths_to_theory(tree, bits=4)


class TestInternalCountAndAvgBranching:
    def test_avg_branching_formula(self):
        assert theoretical_basic_avg_branching(16) == pytest.approx(1.875)

    def test_matches_measured(self):
        space = IdSpace(12)
        ring = UniformIdAssigner().build_ring(space, 256)
        tree = build_basic_dat(ring, key=0)
        stats = tree.stats()
        assert stats.n_internal == 256 // 2
        assert stats.avg_branching == pytest.approx(
            theoretical_basic_avg_branching(256)
        )


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
