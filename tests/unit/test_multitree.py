"""Unit tests for multi-tree forests (the Sec. 3.2 multi-tree claim)."""

import pytest

from repro.chord.idgen import ProbingIdAssigner
from repro.chord.idspace import IdSpace
from repro.core.multitree import DatForest

ATTRIBUTES = [f"attr-{i}" for i in range(16)]


@pytest.fixture
def forest() -> DatForest:
    ring = ProbingIdAssigner().build_ring(IdSpace(32), 128, rng=13)
    return DatForest(ring, ATTRIBUTES)


class TestConstruction:
    def test_one_tree_per_attribute(self, forest):
        assert set(forest.trees) == set(ATTRIBUTES)

    def test_trees_are_valid(self, forest):
        for tree in forest.trees.values():
            tree.validate()
            assert tree.n_nodes == 128

    def test_tree_lookup(self, forest):
        assert forest.tree("attr-0").root == forest.roots()["attr-0"]
        with pytest.raises(KeyError):
            forest.tree("nope")

    def test_rejects_bad_attribute_lists(self, forest):
        with pytest.raises(ValueError):
            DatForest(forest.ring, [])
        with pytest.raises(ValueError):
            DatForest(forest.ring, ["a", "a"])


class TestRootSpreading:
    def test_roots_mostly_distinct(self, forest):
        # Consistent hashing spreads rendezvous keys over the overlay.
        roots = set(forest.roots().values())
        assert len(roots) >= 12  # of 16 trees on 128 nodes

    def test_no_node_hoards_roots(self, forest):
        report = forest.load_report()
        assert report.max_root_roles <= 3


class TestCombinedLoad:
    def test_load_conservation(self, forest):
        report = forest.load_report()
        assert sum(report.combined_loads.values()) == 16 * 2 * 127

    def test_combined_imbalance_stays_low(self, forest):
        # The multi-tree claim: many trees together spread load evenly —
        # the combined imbalance is *lower* than a single tree's because
        # different roots/interior sets average out.
        report = forest.load_report()
        single = forest.tree("attr-0")
        from repro.core.analysis import imbalance_factor

        assert report.combined_imbalance < imbalance_factor(single.message_loads())
        assert report.combined_imbalance < 2.5

    def test_report_row(self, forest):
        row = forest.load_report().as_row()
        assert row["n_trees"] == 16 and row["n_nodes"] == 128
