"""``RingArray.successor_indices`` equals ``np.searchsorted`` wrapped to 0.

The vector successor query reads each target's cell off a cached grid of
cell starts and finishes with a lower-bound search inside the cell. The
binary search it replaces in ``fast_tree_arrays`` is the reference here:
over probing, uniform and full rings, a ring whose members all share one
grid cell (so every halving round of the in-cell search runs — visible in
the result, not in a counter), rings of one, two and three members, the
narrowest and the widest identifier spaces, and targets on, just before and
just after every member, on every cell boundary, at both ends of the space
and at random.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chord.idgen import ProbingIdAssigner
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.chord.ringarray import ARRAY_MAX_BITS, RingArray
from repro.errors import EmptyRingError, IdentifierError


def _reference(ids, targets):
    found = np.searchsorted(ids, targets, side="left")
    found[found == ids.size] = 0
    return found


def _edge_targets(index, rng):
    """Every member, member +- 1, both ends, every cell boundary, and random."""
    space, ids = index.space, index.ids
    shift, _rounds, starts = index._successor_grid()
    cells = np.arange(min(starts.size - 1, 4096), dtype=np.int64) << shift
    random = rng.integers(0, space.size, size=64, dtype=np.int64)
    targets = np.concatenate(
        [ids, ids - 1, ids + 1, cells, cells - 1, random, [0, space.max_id]]
    )
    return targets & np.int64(space.max_id)


def _assert_matches_searchsorted(index, rng):
    targets = _edge_targets(index, rng)
    got = index.successor_indices(targets)
    assert got.dtype == np.intp
    assert got.tolist() == _reference(index.ids, targets).tolist()


@st.composite
def _uniform_rings(draw):
    bits = draw(st.integers(min_value=3, max_value=ARRAY_MAX_BITS))
    space = IdSpace(bits)
    n = draw(st.integers(min_value=1, max_value=min(600, space.size)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    if n > space.size // 2:  # dense: choose the members directly
        ids = np.sort(rng.choice(space.size, size=n, replace=False))
    else:
        ids = np.unique(rng.integers(0, space.size, size=n, dtype=np.int64))
    return RingArray(space, ids), rng


class TestEqualsSearchsorted:
    @settings(max_examples=80, deadline=None)
    @given(ring=_uniform_rings())
    def test_uniform_rings(self, ring):
        _assert_matches_searchsorted(*ring)

    @settings(max_examples=25, deadline=None)
    @given(
        bits=st.sampled_from([16, 32, 48, ARRAY_MAX_BITS]),
        n=st.integers(min_value=1, max_value=400),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_probing_rings(self, bits, n, seed):
        ring = ProbingIdAssigner().build_ring(IdSpace(bits), n, rng=seed)
        _assert_matches_searchsorted(ring.id_index(), np.random.default_rng(seed))

    @pytest.mark.parametrize("bits", [3, 4, 8, 11])
    def test_full_ring(self, bits):
        space = IdSpace(bits)
        index = RingArray(space, np.arange(space.size, dtype=np.int64))
        _assert_matches_searchsorted(index, np.random.default_rng(bits))

    @settings(max_examples=40, deadline=None)
    @given(
        bits=st.integers(min_value=20, max_value=ARRAY_MAX_BITS),
        n=st.integers(min_value=2, max_value=300),
        where=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @example(bits=57, n=2, where=1.0, seed=0)
    def test_every_member_in_one_cell(self, bits, n, where, seed):
        # n consecutive identifiers somewhere inside one cell: the grid
        # narrows nothing, and only the full in-cell search can tell member
        # k from member k + 1 — every one of its rounds is in the result.
        space = IdSpace(bits)
        cell_width = space.size >> (2 * n - 1).bit_length()
        assert cell_width >= n
        cell = int(where * (space.size // cell_width - 1))
        # Clamped: above 2^53 the float product can round past the cell.
        base = cell * cell_width + min(int(where * (cell_width - n)), cell_width - n)
        index = RingArray(space, base + np.arange(n, dtype=np.int64))
        shift, rounds, _starts = index._successor_grid()
        assert np.unique(index.ids >> shift).size == 1
        assert rounds == n.bit_length()
        assert index.successor_indices(index.ids).tolist() == list(range(n))
        _assert_matches_searchsorted(index, np.random.default_rng(seed))

    @pytest.mark.parametrize("bits", [3, 8, 31, 32, 33, ARRAY_MAX_BITS])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_rings(self, bits, n):
        space = IdSpace(bits)
        rng = np.random.default_rng(bits * 10 + n)
        for ids in (
            np.arange(n, dtype=np.int64),  # bottom of the space
            space.max_id - np.arange(n, dtype=np.int64)[::-1],  # top
            np.sort(rng.choice(min(space.size, 2**40), size=n, replace=False)),
        ):
            _assert_matches_searchsorted(RingArray(space, ids), rng)


class TestQueryContract:
    def test_empty_targets(self):
        index = RingArray(IdSpace(8), np.array([3, 90, 200], dtype=np.int64))
        got = index.successor_indices(np.array([], dtype=np.int64))
        assert got.size == 0 and got.dtype == np.intp

    def test_targets_are_not_modified(self):
        index = RingArray(IdSpace(8), np.array([3, 90, 200], dtype=np.int64))
        targets = np.array([0, 4, 201, 255], dtype=np.int64)
        assert index.successor_indices(targets).tolist() == [0, 1, 0, 0]
        assert targets.tolist() == [0, 4, 201, 255]

    def test_agrees_with_the_scalar_query(self):
        index = RingArray(IdSpace(8), np.array([3, 90, 200], dtype=np.int64))
        keys = list(range(256))
        assert index.successor_indices(np.array(keys)).tolist() == [
            index.successor_index(k) for k in keys
        ]

    @pytest.mark.parametrize("bad", [[-1], [256], [5, 1 << 40]])
    def test_rejects_targets_outside_the_space(self, bad):
        index = RingArray(IdSpace(8), np.array([3, 90, 200], dtype=np.int64))
        with pytest.raises(IdentifierError):
            index.successor_indices(np.array(bad, dtype=np.int64))

    def test_empty_ring(self):
        index = RingArray(IdSpace(8), np.array([], dtype=np.int64))
        with pytest.raises(EmptyRingError):
            index.successor_indices(np.array([1], dtype=np.int64))


class TestGridLifetime:
    def test_built_once_per_ring_array(self):
        ring = ProbingIdAssigner().build_ring(IdSpace(32), 300, rng=5)
        index = ring.id_index()
        assert index._grid is None  # lazy: nothing until the first query
        index.successor_indices(index.ids)
        grid = index._grid
        index.successor_indices((index.ids + 1) & np.int64(index.space.max_id))
        assert index._grid is grid
        assert ring.id_index() is index

    def test_grid_shape_is_fixed_by_n_and_bits(self):
        for bits, n in [(32, 1), (32, 2), (32, 300), (32, 512), (8, 200), (3, 8)]:
            ids = np.sort(
                np.random.default_rng(n).choice(1 << bits, size=n, replace=False)
            )
            shift, _rounds, starts = RingArray(IdSpace(bits), ids)._successor_grid()
            cells = starts.size - 1
            assert cells == 1 << (bits - shift)
            assert cells == min(1 << bits, 1 << (2 * n - 1).bit_length())
            assert cells == 1 << bits or 2 * n <= cells < 4 * n
            assert starts.dtype == np.min_scalar_type(n)
            assert int(starts[0]) == 0 and int(starts[-1]) == n

    def test_membership_change_never_sees_a_stale_grid(self):
        space = IdSpace(16)
        ring = StaticRing(space, [10, 400, 9000, 30000])
        targets = np.array([0, 11, 401, 8999, 30001, 65535], dtype=np.int64)
        assert ring.id_index().successor_indices(targets).tolist() == [0, 1, 2, 2, 0, 0]
        before = ring.id_index()
        ring.add(8999)
        after = ring.id_index()
        assert after is not before and after._grid is None
        assert after.successor_indices(targets).tolist() == [0, 1, 2, 2, 0, 0]
        assert after.ids[2] == 8999
        ring.remove(10)
        assert ring.id_index().successor_indices(targets).tolist() == [0, 0, 1, 1, 0, 0]
        # The view taken before the change still answers for its own vector.
        assert before.successor_indices(targets).tolist() == [0, 1, 2, 2, 0, 0]
