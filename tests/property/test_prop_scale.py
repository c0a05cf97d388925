"""Property tests for the array-native scale pipeline.

The 10^5-10^6-node pipeline (array-backed rings, ``fast_probing_ids``,
:class:`~repro.chord.fastbuild.DatTreeArrays`) claims *identity* with the
object-based reference implementations, not mere statistical agreement.
These tests assert that identity element-wise on randomly drawn
configurations: every parent edge, branching count, depth, message load,
and subtree size equals the *scalar* builders' result
(:func:`~repro.core.builder.build_basic_dat` /
:func:`~repro.core.builder.build_balanced_dat` over explicit finger tables —
``DatTreeBuilder.build`` routes through the array kernel itself, so it is no
oracle), for both schemes, random and probing identifier strategies, at sizes
up to 2048.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.fastbuild import fast_finger_matrix, fast_tree_arrays
from repro.chord.idgen import ProbingIdAssigner, make_assigner
from repro.chord.idspace import IdSpace
from repro.chord.probing import probe_split_identifier
from repro.chord.ring import StaticRing
from repro.chord.ringarray import fast_probing_ids
from repro.core.builder import (
    DatScheme,
    DatTreeBuilder,
    build_balanced_dat,
    build_basic_dat,
)

SCHEMES = [DatScheme.BASIC, DatScheme.BALANCED]


def _build_ring(id_strategy: str, n_nodes: int, bits: int, seed: int):
    space = IdSpace(bits)
    return make_assigner(id_strategy).build_ring(space, n_nodes, rng=seed)


def _assert_arrays_match_object_tree(ring, key, scheme):
    """Element-wise identity of DatTreeArrays vs the scalar-built tree."""
    scalar_build = build_basic_dat if scheme is DatScheme.BASIC else build_balanced_dat
    tree = scalar_build(ring, key, tables=ring.all_finger_tables())
    arrays = fast_tree_arrays(ring, key, scheme=scheme)

    nodes = list(arrays.nodes)
    assert nodes == sorted(ring.nodes)
    assert arrays.root == tree.root

    # Parent edges: identical for every non-root node; root self-loops.
    parent_index = arrays.parent_index
    for i, node in enumerate(nodes):
        if node == tree.root:
            assert int(parent_index[i]) == i
        else:
            assert nodes[int(parent_index[i])] == tree.parent[node]

    # Branching counts, depths, message loads, subtree sizes: element-wise.
    branching = tree.branching_factors()
    depths = tree.depths()
    loads = tree.message_loads()
    subtrees = tree.subtree_sizes()
    counts = arrays.branching_counts()
    depth_arr = arrays.depth_array()
    load_arr = arrays.message_load_array()
    size_arr = arrays.subtree_size_array()
    for i, node in enumerate(nodes):
        assert int(counts[i]) == branching[node], node
        assert int(depth_arr[i]) == depths[node], node
        assert int(load_arr[i]) == loads[node], node
        assert int(size_arr[i]) == subtrees[node], node

    # Aggregate stats are equal as values — including the float mean,
    # which both paths compute with the same IEEE operation sequence.
    assert arrays.stats() == tree.stats()
    assert DatTreeBuilder(ring, scheme=scheme).tree_stats(key) == tree.stats()


class TestTreeArraysIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        n_nodes=st.integers(min_value=2, max_value=160),
        bits=st.integers(min_value=10, max_value=32),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        key=st.integers(min_value=0, max_value=2**32 - 1),
        scheme=st.sampled_from(SCHEMES),
        id_strategy=st.sampled_from(["random", "probing"]),
    )
    def test_random_configurations(
        self, n_nodes, bits, seed, key, scheme, id_strategy
    ):
        ring = _build_ring(id_strategy, n_nodes, bits, seed)
        _assert_arrays_match_object_tree(ring, ring.space.wrap(key), scheme)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("id_strategy", ["random", "probing"])
    def test_at_2048_nodes(self, scheme, id_strategy):
        # The ISSUE's identity bound: n <= 2048, both schemes/strategies.
        ring = _build_ring(id_strategy, 2048, 32, 2007)
        _assert_arrays_match_object_tree(ring, 0xA5A5A5, scheme)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_shared_matrix_equals_per_call_matrix(self, scheme):
        ring = _build_ring("probing", 300, 24, 11)
        matrix = fast_finger_matrix(ring)
        a = fast_tree_arrays(ring, 1234, scheme=scheme, matrix=matrix)
        b = fast_tree_arrays(ring, 1234, scheme=scheme)
        assert np.array_equal(a.parent_index, b.parent_index)
        assert a.stats() == b.stats()

    def test_single_node_ring(self):
        ring = StaticRing(IdSpace(16), [42])
        arrays = fast_tree_arrays(ring, 7, scheme=DatScheme.BASIC)
        assert arrays.root == 42
        assert arrays.height() == 0
        assert list(arrays.message_load_array()) == [0]
        assert list(arrays.subtree_size_array()) == [1]


def _joined_one_by_one(space, n_nodes, seed):
    """The reference: ``n_nodes`` single joins through ``chord.probing``."""
    rng = np.random.default_rng(seed)
    ring = StaticRing(space)
    for _ in range(n_nodes):
        ring.add(probe_split_identifier(ring, rng))
    return ring.nodes


class TestFastProbingIdentity:
    @settings(max_examples=20, deadline=None)
    @given(
        n_nodes=st.integers(min_value=0, max_value=220),
        bits=st.integers(min_value=9, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_membership_identity(self, n_nodes, bits, seed):
        # Bisect-based generator is bit-identical to joining one node at a
        # time on a ring object: same RNG consumption, same tie-breaking.
        space = IdSpace(bits)
        fast = fast_probing_ids(space, n_nodes, rng=seed)
        assert fast == _joined_one_by_one(space, n_nodes, seed)
        assert fast == ProbingIdAssigner().build_ring(space, n_nodes, rng=seed).nodes

    def test_membership_identity_at_2048(self):
        space = IdSpace(32)
        assert fast_probing_ids(space, 2048, rng=2007) == _joined_one_by_one(space, 2048, 2007)

    def test_membership_identity_at_4100(self):
        space = IdSpace(32)
        assert fast_probing_ids(space, 4100, rng=11) == _joined_one_by_one(space, 4100, 11)


class TestStorageModeEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        bits=st.integers(min_value=8, max_value=40),
        data=st.data(),
    )
    def test_array_and_object_rings_answer_identically(self, bits, data):
        space = IdSpace(bits)
        idents = data.draw(
            st.sets(
                st.integers(min_value=0, max_value=space.max_id),
                min_size=1,
                max_size=64,
            )
        )
        obj = StaticRing(space, idents)
        arr = StaticRing.from_sorted_ids(space, sorted(idents))
        assert obj.nodes == arr.nodes

        keys = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=space.max_id),
                min_size=1,
                max_size=16,
            )
        )
        for key in keys:
            assert obj.successor(key) == arr.successor(key)
            assert obj.predecessor(key) == arr.predecessor(key)
        lo, hi = keys[0], keys[-1]
        assert obj.nodes_in_interval(lo, hi) == arr.nodes_in_interval(lo, hi)
        for ident in obj.nodes[:8]:
            assert obj.gap_before(ident) == arr.gap_before(ident)
            assert obj.successor_of_node(ident) == arr.successor_of_node(ident)
