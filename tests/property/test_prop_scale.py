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

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord import ringarray
from repro.chord.fastbuild import fast_finger_matrix, fast_tree_arrays
from repro.chord.idgen import ProbingIdAssigner, make_assigner
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.chord.ringarray import fast_probing_ids
from repro.core.builder import DatScheme, DatTreeBuilder
from tests.oracles import build_balanced_dat, build_basic_dat, probe_split_identifier

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

    # Depths, message loads (children + the send to the parent), subtree
    # sizes: element-wise.
    depths = tree.depths()
    loads = tree.message_loads()
    subtrees = tree.subtree_sizes()
    depth_arr = arrays.depth_array()
    load_arr = arrays.message_load_array()
    size_arr = arrays.subtree_size_array()
    for i, node in enumerate(nodes):
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


_SATURATED = "saturated"


def _joined_one_by_one(space, n_nodes, seed, probe_multiplier=2.0):
    """The reference: ``n_nodes`` single joins through ``chord.probing``.

    Returns the membership and the generator's next draw after the build, or
    ``_SATURATED`` when a join finds no free identifier.
    """
    rng = np.random.default_rng(seed)
    ring = StaticRing(space)
    try:
        for _ in range(n_nodes):
            ring.add(probe_split_identifier(ring, rng, probe_multiplier))
    except RuntimeError:
        return _SATURATED
    return ring.nodes, int(rng.integers(0, 2**62))


def _built_at_once(
    space, n_nodes, seed, probe_multiplier=2.0, round_min=None, chunk=None
):
    """``fast_probing_ids`` in the same shape, optionally with joins in rounds
    from ``round_min`` joins a round on and tiny draw chunks."""
    rng = np.random.default_rng(seed)
    with (
        mock.patch.object(ringarray, "_ROUND_MIN", round_min or ringarray._ROUND_MIN),
        mock.patch.object(ringarray, "_DRAW_CHUNK", chunk or ringarray._DRAW_CHUNK),
    ):
        try:
            ids = fast_probing_ids(space, n_nodes, rng, probe_multiplier)
        except RuntimeError:
            return _SATURATED
    return ids, int(rng.integers(0, 2**62))


class TestFastProbingIdentity:
    @settings(max_examples=20, deadline=None)
    @given(
        n_nodes=st.integers(min_value=0, max_value=220),
        bits=st.integers(min_value=9, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_membership_identity(self, n_nodes, bits, seed):
        # The generator is bit-identical to joining one node at a
        # time on a ring object: same RNG consumption (callers keep drawing
        # from the generator afterwards), same tie-breaking.
        space = IdSpace(bits)
        reference = _joined_one_by_one(space, n_nodes, seed)
        assert _built_at_once(space, n_nodes, seed) == reference
        assigned = ProbingIdAssigner().build_ring(space, n_nodes, rng=seed)
        assert assigned.nodes == reference[0]

    @settings(max_examples=40, deadline=None)
    @given(
        n_nodes=st.integers(min_value=0, max_value=220),
        bits=st.integers(min_value=9, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        round_min=st.integers(min_value=1, max_value=4),
        chunk=st.integers(min_value=1, max_value=9),
        multiplier=st.sampled_from([0.5, 1.0, 2.0, 2.5]),
    )
    def test_identity_across_block_and_chunk_boundaries(
        self, n_nodes, bits, seed, round_min, chunk, multiplier
    ):
        # Rounds from a few joins on: windows wrap past the top of the ring,
        # neighbouring joins wait a round or several, rounds cross a power
        # of two. Tiny chunks: the draw buffer refills mid-round.
        space = IdSpace(bits)
        fast = _built_at_once(space, n_nodes, seed, multiplier, round_min, chunk)
        assert fast == _joined_one_by_one(space, n_nodes, seed, multiplier)

    @settings(max_examples=60, deadline=None)
    @given(
        bits=st.integers(min_value=3, max_value=6),
        fill=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        round_min=st.sampled_from([None, 1, 2, 3]),
        chunk=st.sampled_from([None, 1, 3]),
        multiplier=st.sampled_from([0.5, 2.0]),
    )
    def test_identity_in_nearly_full_spaces(
        self, bits, fill, seed, round_min, chunk, multiplier
    ):
        # Gaps of 1 take the ``best_gap < 2`` fallback (64 redraws); where the
        # reference gives up with "saturated", so does the fast routine. In
        # rounds, a window of gaps below 2 restores the generator and replays
        # the ring join by join.
        space = IdSpace(bits)
        n_nodes = round(fill * space.size)
        fast = _built_at_once(space, n_nodes, seed, multiplier, round_min, chunk)
        assert fast == _joined_one_by_one(space, n_nodes, seed, multiplier)

    @pytest.mark.parametrize(
        ("multiplier", "bits", "seed"),
        [
            # A fallback join leaves an odd gap that a later probe splits:
            # G//2 goes to the new node, G - G//2 stays with the old owner.
            (0.5, 5, 60),
            (0.5, 6, 9),
            # The 64th and last redraw is the one that finds a free identifier.
            (2.0, 5, 65),
            (2.0, 6, 135),
        ],
    )
    def test_full_space_cases_an_off_by_one_would_change(self, multiplier, bits, seed):
        space = IdSpace(bits)
        reference = _joined_one_by_one(space, space.size, seed, multiplier)
        for round_min in (None, 1):
            fast = _built_at_once(space, space.size, seed, multiplier, round_min)
            assert fast == reference

    def test_fallback_and_saturation_are_reached(self):
        # The property above is vacuous unless both outcomes occur.
        space = IdSpace(6)
        reference = [_joined_one_by_one(space, 64, seed) for seed in range(12)]
        for round_min in (None, 1):
            built = [_built_at_once(space, 64, seed, 2.0, round_min) for seed in range(12)]
            assert built == reference
        assert _SATURATED in reference
        assert any(outcome != _SATURATED for outcome in reference)

    @pytest.mark.parametrize(
        ("bits", "n_nodes", "multiplier", "replayed"),
        [(32, 200, 2.0, False), (32, 200, 0.5, False), (5, 30, 0.5, True)],
    )
    def test_rounds_and_replay_are_reached(self, bits, n_nodes, multiplier, replayed):
        # Joins one at a time bisect once each (plus once per redraw); joins in
        # rounds never do. So a build in rounds bisects fewer times than it
        # joins, and a build whose rounds saturate and replay more.
        space = IdSpace(bits)
        with mock.patch.object(
            ringarray, "bisect_left", wraps=ringarray.bisect_left
        ) as bisect:
            fast = _built_at_once(space, n_nodes, 7, multiplier, round_min=1)
        assert fast == _joined_one_by_one(space, n_nodes, 7, multiplier)
        assert (bisect.call_count >= n_nodes) is replayed

    def test_wrap_gap_winner_goes_to_tail_or_head(self):
        # Splitting the gap before ids[0] yields the new largest identifier
        # when the midpoint stays short of 0 and the new smallest when it
        # passes 0; both must occur and both must match the reference.
        space = IdSpace(6)
        seen = set()
        for seed in range(60):
            for n_nodes in range(2, 12):
                before, _ = _built_at_once(space, n_nodes - 1, seed, 0.5, 1)
                after, _ = _built_at_once(space, n_nodes, seed, 0.5, 1)
                assert after == _joined_one_by_one(space, n_nodes, seed, 0.5)[0]
                (joined,) = set(after) - set(before)
                if joined > before[-1]:
                    seen.add("tail")
                elif joined < before[0]:
                    seen.add("head")
        assert seen == {"tail", "head"}

    def test_membership_identity_at_2048(self):
        space = IdSpace(32)
        assert _built_at_once(space, 2048, 2007) == _joined_one_by_one(space, 2048, 2007)

    def test_membership_identity_at_4100(self):
        # Joins in rounds from 2304 members on, across one full-size draw chunk.
        space = IdSpace(32)
        assert _built_at_once(space, 4100, 11) == _joined_one_by_one(space, 4100, 11)


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
        assert obj.gaps() == arr.gaps()
        for ident in obj.nodes[:8]:
            assert obj.successor_of_node(ident) == arr.successor_of_node(ident)
