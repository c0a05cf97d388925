"""Property-based tests for the Chord broadcast primitive."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.broadcast import broadcast_tree
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.util.bits import ceil_log2


@st.composite
def ring_and_initiator(draw):
    bits = draw(st.integers(min_value=6, max_value=18))
    space = IdSpace(bits)
    count = draw(st.integers(min_value=1, max_value=40))
    idents = draw(
        st.sets(
            st.integers(min_value=0, max_value=space.max_id),
            min_size=count,
            max_size=count,
        )
    )
    ring = StaticRing(space, idents)
    initiator = draw(st.sampled_from(ring.nodes))
    return ring, initiator


class TestBroadcastProperties:
    @settings(max_examples=50)
    @given(ring_and_initiator())
    def test_exactly_once_coverage(self, args):
        # Every node appears exactly once in the dissemination tree.
        ring, initiator = args
        tree = broadcast_tree(ring, initiator)
        tree.validate()
        assert set(tree.nodes()) == set(ring)
        assert tree.n_nodes == len(ring)

    @settings(max_examples=50)
    @given(ring_and_initiator())
    def test_message_count_is_n_minus_one(self, args):
        ring, initiator = args
        tree = broadcast_tree(ring, initiator)
        assert len(tree.parent) == len(ring) - 1

    @settings(max_examples=50)
    @given(ring_and_initiator())
    def test_depth_logarithmic(self, args):
        # Finger-range dissemination: depth bounded by ~2 log2(n) + slack.
        ring, initiator = args
        tree = broadcast_tree(ring, initiator)
        bound = 2 * ceil_log2(max(len(ring), 2)) + 2
        assert tree.height <= bound

    @settings(max_examples=50)
    @given(ring_and_initiator())
    def test_children_stay_in_delegated_arc(self, args):
        # Every child lies clockwise between its parent and the initiator
        # (no delegation ever reaches "past" the responsibility boundary
        # back around the ring to the initiator).
        ring, initiator = args
        tree = broadcast_tree(ring, initiator)
        space = ring.space
        for child, parent in tree.parent.items():
            assert space.cw(initiator, child) >= space.cw(initiator, parent)


class TestFastbuildHypothesis:
    @settings(max_examples=40)
    @given(ring_and_initiator(), st.integers(min_value=0, max_value=2**18 - 1))
    def test_fast_equals_scalar_on_random_rings(self, args, raw_key):
        from repro.chord.fastbuild import fast_tree_arrays
        from tests.oracles import build_balanced_dat, build_basic_dat

        ring, _initiator = args
        if len(ring) < 2:
            return
        key = raw_key % ring.space.size
        basic = fast_tree_arrays(ring, key, "basic").parent_map()
        assert basic == build_basic_dat(ring, key).parent
        balanced = fast_tree_arrays(ring, key, "balanced").parent_map()
        assert balanced == build_balanced_dat(ring, key).parent
