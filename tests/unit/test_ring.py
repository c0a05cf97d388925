"""Unit tests for the static (converged) Chord ring."""

import sys

import numpy as np
import pytest

from repro.chord.idgen import make_assigner
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
        assert ring.gaps()[8] == 6
        assert ring.gaps()[2] == 4  # wraps from 14

    def test_gaps_sum_to_space(self, space4):
        ring = StaticRing(space4, [1, 5, 6, 13])
        assert sum(ring.gaps().values()) == space4.size

    def test_single_node_owns_everything(self, space4):
        ring = StaticRing(space4, [9])
        assert ring.gaps() == {9: space4.size}

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


def _calls(run) -> int:
    """Calls (Python and builtin) made while ``run()`` runs, ``run``'s own
    frame and the ``setprofile`` that ends the count excluded."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return count - 2


class TestFingerTableCost:
    """What object-path set-up costs, counted rather than timed.

    ``all_finger_tables()`` at n = 4096, bits = 32, every call made --
    Python or builtin -- divided by the members. A table fills the slots up
    to its successor without a query, bisects each other slot inline and
    is trusted: about 21 calls a node. A ``successor`` call per slot and a
    constructor that validates the entries again made 525. A key query is
    one frame, an ``isinstance`` check and the bisect.
    """

    N_NODES = 4096
    MAX_CALLS_PER_NODE = 48
    MAX_CALLS_PER_QUERY = 3

    @pytest.mark.parametrize("strategy", ["probing", "uniform"])
    def test_all_finger_tables_call_count(self, strategy):
        ring = make_assigner(strategy).build_ring(IdSpace(32), self.N_NODES, rng=2007)
        assert len(ring.nodes) == self.N_NODES  # the list view, built before the count
        per_node = _calls(ring.all_finger_tables) / self.N_NODES
        assert per_node < self.MAX_CALLS_PER_NODE

    def test_successor_call_count(self):
        space = IdSpace(32)
        ring = make_assigner("probing").build_ring(space, self.N_NODES, rng=2007)
        keys = [int(k) for k in np.random.default_rng(1).integers(0, space.size, 1000)]
        keys += [0, ring.nodes[0], ring.nodes[-1], space.max_id]  # both ends, the wrap

        def query_all():
            for key in keys:
                ring.successor(key)

        assert _calls(query_all) <= self.MAX_CALLS_PER_QUERY * len(keys)
