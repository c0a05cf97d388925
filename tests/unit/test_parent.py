"""Unit tests for parent-selection rules (paper Sec. 3.2/3.4)."""

from repro.core.limiting import FingerLimiter
from repro.core.parent import select_parent_balanced
from tests.oracles import select_parent_basic


class TestSelectParentBasic:
    def test_paper_fig2_parents(self, full_ring4):
        # Fig. 2: N0's children are N8, N12, N14, N15; route of N1 goes via N9.
        tables = full_ring4.all_finger_tables()
        assert select_parent_basic(tables[8], 0) == 0
        assert select_parent_basic(tables[12], 0) == 0
        assert select_parent_basic(tables[14], 0) == 0
        assert select_parent_basic(tables[15], 0) == 0
        assert select_parent_basic(tables[1], 0) == 9
        assert select_parent_basic(tables[9], 0) == 13
        assert select_parent_basic(tables[13], 0) == 15

    def test_root_has_no_parent(self, full_ring4):
        tables = full_ring4.all_finger_tables()
        assert select_parent_basic(tables[0], 0) is None

    def test_parent_strictly_closer_to_root(self, full_ring4):
        space = full_ring4.space
        tables = full_ring4.all_finger_tables()
        for node in full_ring4:
            if node == 0:
                continue
            parent = select_parent_basic(tables[node], 0)
            assert space.cw(parent, 0) < space.cw(node, 0)

    def test_sparse_ring(self, space4):
        from repro.chord.ring import StaticRing

        ring = StaticRing(space4, [1, 6, 11])
        tables = ring.all_finger_tables()
        root = 1
        for node in (6, 11):
            parent = select_parent_basic(tables[node], root)
            assert parent in ring


class TestSelectParentBalanced:
    def test_paper_fig5_n8_uses_limited_finger(self, full_ring4):
        # With g(8)=2, N8 may not take the +8 jump straight to N0; the
        # closest eligible preceding finger is N12.
        tables = full_ring4.all_finger_tables()
        limiter = FingerLimiter.for_ring(4, 16)
        assert select_parent_balanced(tables[8], 0, limiter) == 12

    def test_root_children_are_adjacent_inbound_fingers(self, full_ring4):
        # Sec. 3.5: the root's children are its j-th and j+1-th inbound
        # fingers — N14 and N15 for root N0 on the full 4-bit ring.
        tables = full_ring4.all_finger_tables()
        limiter = FingerLimiter.for_ring(4, 16)
        children = [
            node
            for node in full_ring4
            if node != 0 and select_parent_balanced(tables[node], 0, limiter) == 0
        ]
        assert children == [14, 15]

    def test_root_has_no_parent(self, full_ring4):
        tables = full_ring4.all_finger_tables()
        limiter = FingerLimiter.for_ring(4, 16)
        assert select_parent_balanced(tables[0], 0, limiter) is None

    def test_progress_toward_root(self, full_ring4):
        space = full_ring4.space
        tables = full_ring4.all_finger_tables()
        limiter = FingerLimiter.for_ring(4, 16)
        for node in full_ring4:
            if node == 0:
                continue
            parent = select_parent_balanced(tables[node], 0, limiter)
            assert space.cw(parent, 0) < space.cw(node, 0)

    def test_limit_respected(self, full_ring4):
        # The chosen parent is never farther than 2^{g(x)} from the node,
        # whenever any finger within the limit exists (exact ring case).
        space = full_ring4.space
        tables = full_ring4.all_finger_tables()
        limiter = FingerLimiter.for_ring(4, 16)
        for node in full_ring4:
            if node == 0:
                continue
            x = space.cw(node, 0)
            parent = select_parent_balanced(tables[node], 0, limiter)
            assert space.cw(node, parent) <= 1 << limiter(x)
