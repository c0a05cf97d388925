"""Property-based tests for DAT structural invariants (paper Sec. 3)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.util.bits import ceil_log2
from tests.oracles import build_balanced_dat, build_basic_dat


@st.composite
def ring_and_key(draw, min_nodes: int = 2, max_nodes: int = 48):
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
    key = draw(st.integers(min_value=0, max_value=space.max_id))
    return StaticRing(space, idents), key


@st.composite
def uniform_ring_and_key(draw):
    exponent = draw(st.integers(min_value=2, max_value=7))
    n = 1 << exponent
    bits = draw(st.integers(min_value=exponent, max_value=exponent + 10))
    space = IdSpace(bits)
    ring = StaticRing(space, [(i * space.size) // n for i in range(n)])
    key = draw(st.integers(min_value=0, max_value=space.max_id))
    return ring, key


class TestUniversalInvariants:
    """Hold for BOTH schemes on ANY ring (paper Sec. 3.2 properties)."""

    @settings(max_examples=40)
    @given(ring_and_key())
    def test_basic_tree_well_formed(self, args):
        ring, key = args
        tree = build_basic_dat(ring, key)
        tree.validate()
        assert tree.root == ring.successor(key)
        assert set(tree.nodes()) == set(ring)

    @settings(max_examples=40)
    @given(ring_and_key())
    def test_balanced_tree_well_formed(self, args):
        ring, key = args
        tree = build_balanced_dat(ring, key)
        tree.validate()
        assert tree.root == ring.successor(key)
        assert set(tree.nodes()) == set(ring)

    @settings(max_examples=40)
    @given(ring_and_key())
    def test_parents_strictly_approach_root(self, args):
        # Loop-freedom argument: every hop strictly reduces cw-distance to
        # the root, for both schemes.
        ring, key = args
        space = ring.space
        for build in (build_basic_dat, build_balanced_dat):
            tree = build(ring, key)
            for child, parent in tree.parent.items():
                assert space.cw(parent, tree.root) < space.cw(child, tree.root)

    @settings(max_examples=40)
    @given(ring_and_key())
    def test_message_load_conservation(self, args):
        ring, key = args
        tree = build_balanced_dat(ring, key)
        loads = tree.message_loads()
        assert sum(loads.values()) == 2 * (len(ring) - 1)

    @settings(max_examples=30)
    @given(ring_and_key())
    def test_balanced_never_wider_than_basic_at_root(self, args):
        # The balanced scheme exists to cap the root's fan-in.
        ring, key = args
        basic = build_basic_dat(ring, key)
        balanced = build_balanced_dat(ring, key)
        assert balanced.branching_factor(balanced.root) <= max(
            basic.branching_factor(basic.root), 2
        )


class TestBalancedTheorems:
    """The Sec. 3.5 theorems, exact on evenly spaced power-of-two rings."""

    @settings(max_examples=40)
    @given(uniform_ring_and_key())
    def test_branching_at_most_two(self, args):
        ring, key = args
        tree = build_balanced_dat(ring, key)
        assert tree.stats().max_branching <= 2

    @settings(max_examples=40)
    @given(uniform_ring_and_key())
    def test_height_at_most_log_n(self, args):
        ring, key = args
        tree = build_balanced_dat(ring, key)
        assert tree.height <= ceil_log2(len(ring))

    @settings(max_examples=40)
    @given(uniform_ring_and_key())
    def test_basic_root_branching_is_log_n(self, args):
        ring, key = args
        tree = build_basic_dat(ring, key)
        assert tree.branching_factor(tree.root) == ceil_log2(len(ring))


class TestSubtreeLaws:
    @settings(max_examples=30)
    @given(ring_and_key())
    def test_subtree_sizes_consistent(self, args):
        ring, key = args
        tree = build_balanced_dat(ring, key)
        sizes = tree.subtree_sizes()
        assert sizes[tree.root] == tree.n_nodes
        children = tree.children_map()
        for node, kids in children.items():
            assert sizes[node] == 1 + sum(sizes[k] for k in kids)

    @settings(max_examples=30)
    @given(ring_and_key())
    def test_depth_matches_path_length(self, args):
        ring, key = args
        tree = build_basic_dat(ring, key)
        for node in list(tree.parent)[:10]:
            assert tree.depth(node) == len(tree.path_to_root(node)) - 1
