"""Unit tests for the static (converged) Chord ring."""

import pytest

from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.errors import DuplicateNodeError, EmptyRingError, UnknownNodeError


class TestConstruction:
    def test_sorted_and_sized(self, space4):
        ring = StaticRing(space4, [5, 1, 9])
        assert ring.nodes == [1, 5, 9]
        assert len(ring) == 3

    def test_rejects_duplicates(self, space4):
        with pytest.raises(DuplicateNodeError):
            StaticRing(space4, [3, 3])

    def test_membership(self, space4):
        ring = StaticRing(space4, [2, 8])
        assert 2 in ring and 8 in ring and 5 not in ring

    def test_iteration_order(self, space4):
        ring = StaticRing(space4, [9, 0, 4])
        assert list(ring) == [0, 4, 9]


class TestMembershipChanges:
    def test_add_and_remove(self, space4):
        ring = StaticRing(space4, [4])
        ring.add(10)
        assert ring.nodes == [4, 10]
        ring.remove(4)
        assert ring.nodes == [10]

    def test_add_duplicate_raises(self, space4):
        ring = StaticRing(space4, [4])
        with pytest.raises(DuplicateNodeError):
            ring.add(4)

    def test_remove_unknown_raises(self, space4):
        ring = StaticRing(space4, [4])
        with pytest.raises(UnknownNodeError):
            ring.remove(5)


class TestConsistentHashing:
    def test_successor_basic(self, space4):
        ring = StaticRing(space4, [2, 8, 14])
        assert ring.successor(3) == 8
        assert ring.successor(8) == 8  # exact hit
        assert ring.successor(15) == 2  # wraps

    def test_predecessor_basic(self, space4):
        ring = StaticRing(space4, [2, 8, 14])
        assert ring.predecessor(3) == 2
        assert ring.predecessor(2) == 14  # strict precedence wraps
        assert ring.predecessor(0) == 14

    def test_empty_ring_raises(self, space4):
        ring = StaticRing(space4)
        with pytest.raises(EmptyRingError):
            ring.successor(0)

    def test_successor_of_node(self, space4):
        ring = StaticRing(space4, [2, 8, 14])
        assert ring.successor_of_node(2) == 8
        assert ring.successor_of_node(14) == 2

    def test_predecessor_of_node(self, space4):
        ring = StaticRing(space4, [2, 8, 14])
        assert ring.predecessor_of_node(2) == 14
        assert ring.predecessor_of_node(8) == 2

    def test_neighbor_queries_require_membership(self, space4):
        ring = StaticRing(space4, [2, 8])
        with pytest.raises(UnknownNodeError):
            ring.successor_of_node(3)

    def test_every_key_has_an_owner(self, space4):
        ring = StaticRing(space4, [3, 7, 12])
        for key in range(space4.size):
            owner = ring.successor(key)
            assert owner in ring
            if owner == key:
                continue  # exact hit: (key, owner) is degenerate
            # No other node lies in (key, owner).
            for node in ring:
                assert not space4.in_open(node, key, owner) or node == owner


class TestGaps:
    def test_gap_before(self, space4):
        ring = StaticRing(space4, [2, 8, 14])
        assert ring.gap_before(8) == 6
        assert ring.gap_before(2) == 4  # wraps from 14

    def test_gaps_sum_to_space(self, space4):
        ring = StaticRing(space4, [1, 5, 6, 13])
        assert sum(ring.gaps().values()) == space4.size

    def test_single_node_owns_everything(self, space4):
        ring = StaticRing(space4, [9])
        assert ring.gap_before(9) == space4.size

    def test_mean_gap(self, space4):
        ring = StaticRing(space4, [0, 8])
        assert ring.mean_gap() == 8.0

    def test_gap_ratio_uniform_is_one(self, uniform_ring):
        assert uniform_ring.gap_ratio() == 1.0


class TestFingerTables:
    def test_matches_paper_example(self, full_ring4):
        assert full_ring4.finger_entries(8) == [9, 10, 12, 0]
        assert full_ring4.finger_entries(1) == [2, 3, 5, 9]

    def test_finger_table_object(self, full_ring4):
        table = full_ring4.finger_table(0)
        assert table.owner == 0
        assert table.successor == 1

    def test_unknown_node_raises(self, space4):
        sparse = StaticRing(space4, [1, 2])
        with pytest.raises(UnknownNodeError):
            sparse.finger_entries(5)

    def test_all_finger_tables_complete(self, full_ring4):
        tables = full_ring4.all_finger_tables()
        assert set(tables) == set(range(16))
        for owner, table in tables.items():
            assert table.owner == owner

    def test_sparse_ring_fingers(self, space4):
        ring = StaticRing(space4, [0, 3, 9])
        # successor(0+1)=3, successor(0+2)=3, successor(0+4)=9, successor(0+8)=9
        assert ring.finger_entries(0) == [3, 3, 9, 9]
