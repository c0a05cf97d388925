"""Unit tests for the ring's array view and StaticRing's two views of one membership."""

import hashlib

import numpy as np
import pytest

from repro.chord.block import ChordNodeBlock
from repro.chord.fastbuild import fast_tree_arrays
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.chord.ringarray import ARRAY_MAX_BITS, RingArray, fast_probing_ids
from repro.core.builder import DatTreeBuilder
from repro.errors import (
    DuplicateNodeError,
    EmptyRingError,
    IdentifierError,
    UnknownNodeError,
)

SPACE = IdSpace(8)  # identifiers 0..255


def make(ids):
    return RingArray(SPACE, np.array(ids, dtype=np.int64))


class TestConstruction:
    def test_rejects_wide_spaces(self):
        with pytest.raises(IdentifierError):
            RingArray(IdSpace(ARRAY_MAX_BITS + 1), np.array([], dtype=np.int64))

    def test_rejects_unsorted(self):
        with pytest.raises(DuplicateNodeError):
            make([5, 3, 9])

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicateNodeError):
            make([3, 3, 9])

    def test_rejects_out_of_space(self):
        with pytest.raises(IdentifierError):
            make([0, 300])

    def test_rejects_2d(self):
        with pytest.raises(IdentifierError):
            RingArray(SPACE, np.zeros((2, 2), dtype=np.int64))

    def test_empty_ok(self):
        ring = make([])
        assert len(ring) == 0
        with pytest.raises(EmptyRingError):
            ring.successor_index(0)


class TestQueries:
    def test_successor_wraps(self):
        ring = make([10, 40, 200])
        assert ring.successor_index(10) == 0  # inclusive
        assert ring.successor_index(11) == 1
        assert ring.successor_index(201) == 0  # wraps past the top
        assert ring.successor_index(250) == 0
        with pytest.raises(IdentifierError):
            ring.successor_index(256)

    def test_gaps(self):
        ring = make([10, 40, 200])
        assert list(ring.gaps()) == [66, 30, 160]  # 10+256-200 = 66
        assert list(make([7]).gaps()) == [256]  # sole member owns the space


class TestStaticRingViews:
    def test_both_constructions_answer_identically(self):
        space = IdSpace(16)
        idents = [5, 99, 1000, 40000, 65000]
        listed = StaticRing(space, reversed(idents))
        adopted = StaticRing.from_sorted_ids(space, np.array(idents))
        assert len(listed) == len(adopted) == 5
        for key in [0, 5, 6, 64999, 65001, 65535]:
            assert listed.successor(key) == adopted.successor(key)
            assert listed.predecessor(key) == adopted.predecessor(key)
        assert listed.nodes == adopted.nodes == idents
        assert listed.id_index().ids.tolist() == adopted.id_index().ids.tolist()
        assert listed.gaps() == adopted.gaps()
        for ident in idents:
            assert listed.successor_of_node(ident) == adopted.successor_of_node(ident)
            assert listed.finger_entries(ident) == adopted.finger_entries(ident)
        for ring in (listed, adopted):
            with pytest.raises(UnknownNodeError):
                ring.successor_of_node(6)
            with pytest.raises(IdentifierError):
                ring.successor(65536)

    def test_id_index_view_is_cached_and_version_aware(self):
        ring = StaticRing(IdSpace(16), [1, 2, 3])
        first = ring.id_index()
        assert first is ring.id_index()  # cached until membership changes
        ring.add(7)
        assert ring.version == 1
        second = ring.id_index()
        assert second is not first
        assert list(first.ids) == [1, 2, 3]  # a held vector is a snapshot
        assert list(second.ids) == [1, 2, 3, 7]

    def test_adopted_vector_survives_add_and_remove(self):
        vector = np.array([10, 20, 30], dtype=np.int64)
        ring = StaticRing.from_sorted_ids(IdSpace(16), vector)
        assert ring.id_index().ids is vector  # adopted as-is, no copy
        ring.add(25)
        ring.remove(10)
        assert ring.version == 2
        assert ring.nodes == [20, 25, 30]
        assert ring.id_index().ids.tolist() == [20, 25, 30]
        assert ring.successor(26) == 30
        assert 25 in ring and 10 not in ring
        assert vector.tolist() == [10, 20, 30]
        with pytest.raises(DuplicateNodeError):
            ring.add(25)
        with pytest.raises(UnknownNodeError):
            ring.remove(10)

    def test_wide_space_has_no_array_view(self):
        space = IdSpace(128)
        for ring in (
            StaticRing(space, range(64)),
            StaticRing.from_sorted_ids(space, [3, 2**100, 2**127]),
        ):
            assert ring.successor(2**127 + 1) == ring.nodes[0]
            assert ring.gap_ratio() >= 1.0
            with pytest.raises(IdentifierError):
                ring.id_index()

    def test_from_sorted_ids_rejects_bad_input(self):
        with pytest.raises(DuplicateNodeError):
            StaticRing.from_sorted_ids(IdSpace(16), [3, 2])
        with pytest.raises(DuplicateNodeError):
            StaticRing.from_sorted_ids(IdSpace(16), [3, 3])
        with pytest.raises(IdentifierError):
            StaticRing.from_sorted_ids(IdSpace(8), [0, 256])
        with pytest.raises(DuplicateNodeError):
            StaticRing.from_sorted_ids(IdSpace(128), [3, 2])
        with pytest.raises(IdentifierError):
            StaticRing.from_sorted_ids(IdSpace(128), [0, 2**128])

    def test_empty_ring_has_no_gaps(self):
        space = IdSpace(16)
        emptied = StaticRing(space, [9])
        emptied.remove(9)
        for ring in (StaticRing(space), StaticRing.from_sorted_ids(space, []), emptied):
            assert len(ring) == 0
            assert ring.gaps() == {}
            with pytest.raises(EmptyRingError):
                ring.gap_ratio()

    def test_vector_pipeline_never_builds_the_list(self):
        # The 10^6-node memory property, pinned without a 10^6-node run: a
        # ring adopted as a vector feeds the whole array pipeline without
        # ever boxing its members into a Python list.
        space = IdSpace(32)
        ids = np.arange(2**17, dtype=np.int64) * 32749 + 11
        ring = StaticRing.from_sorted_ids(space, ids)
        assert len(ring) == 2**17
        assert ring.id_index().ids is ids
        assert ring.id_index().gaps().sum() == space.size
        assert ring.gap_ratio() > 1.0
        assert len(fast_tree_arrays(ring, 12345)) == 2**17
        assert len(ChordNodeBlock.from_ring(ring)) == 2**17
        assert DatTreeBuilder(ring).tree_stats(12345).n_nodes == 2**17
        assert ring._nodes is None
        assert ring.successor(12) == 32749 + 11  # a scalar query builds it
        assert ring._nodes is not None


class TestFastProbingIds:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fast_probing_ids(SPACE, -1)

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            fast_probing_ids(IdSpace(3), 9)

    def test_sorted_unique_within_space(self):
        ids = fast_probing_ids(IdSpace(20), 500, rng=3)
        assert ids == sorted(set(ids))
        assert 0 <= ids[0] and ids[-1] < 2**20

    def test_deterministic_per_seed(self):
        a = fast_probing_ids(IdSpace(24), 200, rng=9)
        b = fast_probing_ids(IdSpace(24), 200, rng=9)
        c = fast_probing_ids(IdSpace(24), 200, rng=10)
        assert a == b
        assert a != c

    def test_zero_one_and_two_nodes(self):
        space = IdSpace(16)
        assert fast_probing_ids(space, 0, rng=5) == []
        first = int(np.random.default_rng(5).integers(0, space.size))
        assert fast_probing_ids(space, 1, rng=5) == [first]
        # The second node splits the whole space opposite the first.
        assert fast_probing_ids(space, 2, rng=5) == sorted(
            [first, (first + space.size // 2) % space.size]
        )

    def test_second_node_lands_above_or_below_the_first(self):
        # The lone member's gap wraps 0: the midpoint is the new largest id
        # when the first id is in the lower half, the new smallest otherwise.
        space = IdSpace(16)
        sides = set()
        for seed in range(8):
            first = int(np.random.default_rng(seed).integers(0, space.size))
            low, high = fast_probing_ids(space, 2, rng=seed)
            assert high - low == space.size // 2
            sides.add("tail" if low == first else "head")
        assert sides == {"tail", "head"}

    @pytest.mark.parametrize(
        ("bits", "n_nodes", "seed", "digest", "next_draw"),
        [
            (32, 65536, 2007, "b27ae65c217679e6", 1449900054),
            (32, 4096, 2007, "192421dfdd98bdb1", 399583395),
            (20, 500, 3, "680c9627e175cdcb", 3176560526),
            # Joins in rounds meet gaps below 2: the ring is replayed join by
            # join, redraws included.
            (14, 12000, 2007, "f9974744ba818189", 2538614926),
        ],
    )
    def test_pinned_rings(self, bits, n_nodes, seed, digest, next_draw):
        # Computed with an earlier generator (the first three before the
        # blocked rewrite, the 14-bit ring before rounds): every ring, hence
        # every seeded digest in the repo, rests on these staying put — and on
        # the generator being left where the join-by-join loop leaves it.
        rng = np.random.default_rng(seed)
        ids = fast_probing_ids(IdSpace(bits), n_nodes, rng=rng)
        packed = np.asarray(ids, np.int64).tobytes()
        assert hashlib.sha256(packed).hexdigest()[:16] == digest
        assert int(rng.integers(0, 2**32)) == next_draw
