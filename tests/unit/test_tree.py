"""Unit tests for the DatTree structure and metrics."""

import pytest

from repro.core.tree import DatTree
from repro.errors import TreeError


def chain_tree() -> DatTree:
    """0 <- 1 <- 2 <- 3 (a path)."""
    return DatTree(root=0, parent={1: 0, 2: 1, 3: 2})


def star_tree() -> DatTree:
    """Root 0 with children 1..4."""
    return DatTree(root=0, parent={i: 0 for i in range(1, 5)})


def binary_tree() -> DatTree:
    """Complete binary tree over 7 nodes."""
    return DatTree(root=1, parent={2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3})


class TestConstruction:
    def test_root_with_parent_rejected(self):
        with pytest.raises(TreeError):
            DatTree(root=0, parent={0: 1})

    def test_n_nodes(self):
        assert chain_tree().n_nodes == 4
        assert DatTree(root=5, parent={}).n_nodes == 1


class TestStructure:
    def test_children(self):
        tree = binary_tree()
        assert tree.children(1) == [2, 3]
        assert tree.children(7) == []

    def test_branching_factor(self):
        assert star_tree().branching_factor(0) == 4
        assert star_tree().branching_factor(3) == 0

    def test_depths(self):
        tree = binary_tree()
        depths = tree.depths()
        assert depths[1] == 0
        assert depths[2] == depths[3] == 1
        assert depths[7] == 2

    def test_path_to_root(self):
        assert chain_tree().path_to_root(3) == [3, 2, 1, 0]
        assert chain_tree().path_to_root(0) == [0]

    def test_cycle_detected(self):
        tree = DatTree(root=0, parent={1: 2, 2: 1})
        with pytest.raises(TreeError):
            tree.depths()

    def test_path_from_dangling_parent(self):
        tree = DatTree(root=0, parent={1: 99})
        with pytest.raises(TreeError):
            tree.path_to_root(1)

    def test_validate_ok(self):
        binary_tree().validate()

    def test_validate_self_parent(self):
        # Self-parent is both a cycle and an explicit failure mode.
        tree = DatTree(root=0, parent={1: 1})
        with pytest.raises(TreeError):
            tree.validate()


class TestMetrics:
    def test_height(self):
        assert chain_tree().height == 3
        assert star_tree().height == 1
        assert binary_tree().height == 2
        assert DatTree(root=9, parent={}).height == 0

    def test_branching_factors_map(self):
        factors = binary_tree().branching_factors()
        assert factors[1] == 2 and factors[4] == 0

    def test_leaves_and_internal(self):
        tree = binary_tree()
        assert tree.leaves() == [4, 5, 6, 7]
        assert tree.internal_nodes() == [1, 2, 3]

    def test_stats_binary(self):
        stats = binary_tree().stats()
        assert stats.n_nodes == 7
        assert stats.height == 2
        assert stats.max_branching == 2
        assert stats.avg_branching == 2.0
        assert stats.n_leaves == 4
        assert stats.n_internal == 3

    def test_stats_avg_over_internal_only(self):
        # Star: one internal node with 4 children -> avg branching 4.
        assert star_tree().stats().avg_branching == 4.0

    def test_stats_single_node(self):
        stats = DatTree(root=3, parent={}).stats()
        assert stats.max_branching == 0
        assert stats.avg_branching == 0.0

    def test_subtree_sizes(self):
        sizes = binary_tree().subtree_sizes()
        assert sizes[1] == 7
        assert sizes[2] == 3
        assert sizes[7] == 1

    def test_message_loads(self):
        # Each non-root sends 1; each node receives its branching factor.
        tree = binary_tree()
        loads = tree.message_loads()
        assert loads[1] == 2      # root: receives 2, sends 0
        assert loads[2] == 3      # internal: receives 2, sends 1
        assert loads[7] == 1      # leaf: sends 1
        assert sum(loads.values()) == 2 * (tree.n_nodes - 1)
