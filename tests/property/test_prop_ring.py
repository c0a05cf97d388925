"""Property-based tests for ring invariants."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chord.fingers import FingerTable
from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.errors import UnknownNodeError
from tests.oracles import finger_entries_by_slot


@st.composite
def rings(draw, min_nodes: int = 1, max_nodes: int = 40):
    bits = draw(st.integers(min_value=8, max_value=20))
    space = IdSpace(bits)
    count = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    idents = draw(
        st.sets(
            st.integers(min_value=0, max_value=space.max_id),
            min_size=count,
            max_size=count,
        )
    )
    return StaticRing(space, idents)


class TestConsistentHashingLaws:
    @given(rings(), st.data())
    def test_successor_is_first_at_or_after(self, ring, data):
        key = data.draw(st.integers(min_value=0, max_value=ring.space.max_id))
        owner = ring.successor(key)
        # No member lies strictly between key and owner (clockwise).
        for node in ring:
            assert not ring.space.in_open(node, key, owner) or owner == key

    @given(rings(min_nodes=2))
    def test_successor_predecessor_inverse(self, ring):
        for node in ring:
            assert ring.predecessor_of_node(ring.successor_of_node(node)) == node
            assert ring.successor_of_node(ring.predecessor_of_node(node)) == node

    @given(rings())
    def test_successor_of_member_is_itself(self, ring):
        for node in ring:
            assert ring.successor(node) == node

    @given(rings())
    def test_gaps_partition_space(self, ring):
        assert sum(ring.gaps().values()) == ring.space.size

    @given(rings(min_nodes=2))
    def test_walking_successors_visits_everyone_once(self, ring):
        start = ring.nodes[0]
        seen = [start]
        current = start
        for _ in range(len(ring) - 1):
            current = ring.successor_of_node(current)
            seen.append(current)
        assert sorted(seen) == ring.nodes
        assert ring.successor_of_node(current) == start


class TestFingerLaws:
    @given(rings())
    def test_fingers_are_members_and_ordered(self, ring):
        space = ring.space
        for node in list(ring)[:10]:
            entries = ring.finger_entries(node)
            distances = [space.cw(node, entry) or space.size for entry in entries]
            for entry in entries:
                assert entry in ring
            # Finger distance is non-decreasing in the slot index.
            assert distances == sorted(distances)

    @given(rings())
    def test_finger_j_covers_offset(self, ring):
        # Finger j is at clockwise distance >= 2^j (or the owner itself on
        # a 1-ring).
        space = ring.space
        node = ring.nodes[0]
        for j, entry in enumerate(ring.finger_entries(node)):
            if entry != node:
                assert space.cw(node, entry) >= 1 << j


def _tables_equal_the_oracle(ring: StaticRing) -> None:
    """Every member's table equals the per-slot definition; a non-member's
    query raises."""
    space = ring.space
    for node in ring:
        entries = finger_entries_by_slot(ring, node)
        assert ring.finger_entries(node) == entries
        assert ring.finger_table(node) == FingerTable(space, node, entries)
    outsider = next((key for key in range(space.size) if key not in ring), None)
    if outsider is None:  # a full ring
        return
    for build in (ring.finger_entries, ring.finger_table):
        with pytest.raises(UnknownNodeError):
            build(outsider)


class TestFingerTablesEqualTheOracle:
    """``StaticRing.finger_entries`` fills the slots up to the successor
    without a query and bisects the rest; ``finger_table`` trusts them.
    Both must equal one successor query per slot, on every member."""

    @pytest.mark.parametrize("nodes", [[0], [9], [3, 12], [0, 1, 15]])
    def test_one_two_and_three_nodes(self, space4, nodes):
        _tables_equal_the_oracle(StaticRing(space4, nodes))

    def test_full_4bit_ring(self, full_ring4):
        _tables_equal_the_oracle(full_ring4)

    @pytest.mark.parametrize("bits", [8, 32, 64])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_successor_gap_at_a_power_of_two(self, bits, extra):
        # Node ``v``'s successor sits exactly ``2^j`` or ``2^j + 1`` on: the
        # two sides of the boundary between the slots that hold it without
        # a query and the first slot that bisects. Other members sit beyond.
        space = IdSpace(bits)
        rng = np.random.default_rng(bits * 2 + extra)
        for j in range(0, bits - 1, max(1, bits // 16)):
            v = space.wrap(int(rng.integers(0, 2**62)))
            gap = (1 << j) + extra
            succ = space.wrap(v + gap)
            rest = {space.wrap(succ + 1 + int(d)) for d in rng.integers(0, 2**62, 5)}
            members = {v, succ} | {r for r in rest if not space.in_open(r, v, succ)}
            ring = StaticRing(space, members)
            assert ring.successor_of_node(v) == succ
            assert ring.finger_entries(v) == finger_entries_by_slot(ring, v)
            assert ring.finger_entries(v)[: gap.bit_length()] == [succ] * gap.bit_length()

    @pytest.mark.parametrize(
        ("strategy", "bits", "n_nodes"),
        [
            ("uniform", 8, 100),
            ("uniform", 32, 500),
            ("uniform", 64, 500),
            ("probing", 8, 100),
            ("probing", 32, 500),
            # The probing generator draws ``int64`` points: 63 bits is the
            # widest space it places nodes in.
            ("probing", 63, 500),
        ],
    )
    @pytest.mark.parametrize("seed", [1, 2007])
    def test_seeded_rings(self, strategy, bits, n_nodes, seed):
        ring = make_assigner(strategy).build_ring(IdSpace(bits), n_nodes, rng=seed)
        _tables_equal_the_oracle(ring)
