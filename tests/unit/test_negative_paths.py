"""Negative-path robustness tests: corrupted state must fail loudly or heal.

The happy paths are covered module-by-module; these tests aim at the
failure modes a long-lived deployment actually hits — corrupted finger
tables, lookups into dead space, unresolvable queries — and pin the
library's contract for each: a typed exception or a documented graceful
fallback, never silent wrong answers.
"""

import pytest

from repro.chord.fingers import FingerTable
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.chord.routing import finger_route
from repro.core.tree import DatTree
from repro.errors import RoutingError, TreeError
from tests.oracles import select_parent_basic


class TestCorruptedFingerTables:
    def test_parent_selection_raises_on_empty_horizon(self):
        # A table whose every entry is the owner (impossible on a converged
        # multi-node ring) must raise, not return a bogus parent.
        space = IdSpace(4)
        table = FingerTable(space=space, owner=5, entries=[5, 5, 5, 5])
        with pytest.raises(TreeError):
            select_parent_basic(table, root=0)

    def test_overshooting_table_falls_back_to_successor_walk(self):
        # Every finger points past the key: FingerTable's own no-overshoot
        # guard rejects them all and routing degrades to the (correct, if
        # slow) successor walk — never a wrong destination.
        space = IdSpace(4)
        ring = StaticRing(space, [0, 4, 8, 12])
        bogus = {
            node: FingerTable(space=space, owner=node, entries=[12, 12, 12, 12])
            for node in ring
        }
        route = finger_route(ring, 0, 6, tables=bogus)
        assert route.destination == 8  # successor(6), despite the bad tables

    def test_routing_detects_overshooting_hop(self):
        # A table whose closest_preceding VIOLATES the no-overshoot
        # contract (a protocol bug) must be caught by the router's guard,
        # not silently produce a wrong path.
        space = IdSpace(4)
        ring = StaticRing(space, [0, 8, 12])

        class PingPong(FingerTable):
            def closest_preceding(self, key, max_slot=None):
                return 12 if self.owner == 8 else 8

        tables = {
            node: PingPong(space=space, owner=node, entries=ring.finger_entries(node))
            for node in ring
        }
        # Key 13 -> destination 0; the 8 <-> 12 ping-pong either overshoots
        # (guard) or exhausts the hop budget. Both are RoutingError.
        with pytest.raises(RoutingError):
            finger_route(ring, 8, 13, tables=tables)


class TestCorruptedTrees:
    def test_forest_of_disconnected_components(self):
        tree = DatTree(root=0, parent={1: 2, 2: 1, 3: 0})
        with pytest.raises(TreeError):
            tree.validate()

    def test_depth_query_on_unreachable_node(self):
        tree = DatTree(root=0, parent={5: 99})
        with pytest.raises(TreeError):
            tree.depth(5)

    def test_long_cycle_detected(self):
        n = 50
        parent = {i: (i % n) + 1 for i in range(1, n + 1)}  # 1->2->...->n->1
        tree = DatTree(root=0, parent=parent)
        with pytest.raises(TreeError):
            tree.validate()


class TestDegenerateInputs:
    def test_single_node_everything(self):
        space = IdSpace(8)
        ring = StaticRing(space, [42])
        assert ring.successor(0) == 42
        assert ring.gaps() == {42: space.size}
        route = finger_route(ring, 42, 17)
        assert route.path == (42,)
        from tests.oracles import build_balanced_dat

        tree = build_balanced_dat(ring, 17)
        assert tree.root == 42 and tree.parent == {}
        assert tree.stats().height == 0

    def test_two_node_ring_trees(self):
        space = IdSpace(8)
        ring = StaticRing(space, [10, 200])
        from tests.oracles import build_balanced_dat, build_basic_dat

        for build in (build_basic_dat, build_balanced_dat):
            tree = build(ring, 15)
            tree.validate()
            assert tree.n_nodes == 2
            assert tree.height == 1

    def test_ring_with_adjacent_identifiers(self):
        # Minimal gaps: parents must still strictly approach the root.
        space = IdSpace(8)
        ring = StaticRing(space, [0, 1, 2, 3, 4])
        from tests.oracles import build_balanced_dat

        tree = build_balanced_dat(ring, 0)
        tree.validate()
        for child, parent in tree.parent.items():
            assert space.cw(parent, 0) < space.cw(child, 0)
