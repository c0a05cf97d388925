"""The closed-form parent slot equals the ``n x bits`` eligibility scan.

``chord.fastbuild`` used to find every node's parent toward
``r = successor(key)`` by materialising the ``(n, bits)`` finger matrix and
taking, per row, the highest slot whose finger lands in ``(i, r]`` (and, for
Algorithm 1, does not exceed ``g(x)``). The kernel now computes that slot as
``min(floor(log2 x), g(x))`` without looking at a finger. The scan lives on
here, written out as the reference: slot for slot and parent for parent, over
random and probing rings, full rings, keys on / one past / wrapping past a
member, and distances that are exactly 1 or a power of two.

``DatTreeArrays.depth_array`` used to chase every node's parent pointer to
the root one edge per pass; it now doubles the pointers instead. The chase
lives on here the same way (``_chase_depths``), compared against the kernel
on DATs of both schemes over the same ring families and on parent arrays
that are not DATs at all: random recursive trees, chains, stars, one node.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.fastbuild import DatTreeArrays, fast_finger_matrix, fast_tree_arrays
from repro.chord.idgen import ProbingIdAssigner
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.core.builder import DatScheme
from repro.core.limiting import FingerLimiter, parent_slots

BITS = [4, 8, 16, 32, 48]
SCHEMES = [DatScheme.BASIC, DatScheme.BALANCED]


def _scan_best_slots(ring, root, scheme):
    """The old kernel: highest eligible slot per node, ``-1`` where none is."""
    space = ring.space
    mask = np.int64(space.max_id)
    ids = ring.id_index().ids
    fingers = fast_finger_matrix(ring)  # (n, bits): checked against the scalar tables
    finger_dist = (fingers - ids[:, np.newaxis]) & mask
    x = (np.int64(root) - ids) & mask
    eligible = (finger_dist <= x[:, np.newaxis]) & (finger_dist > 0)
    slots = np.arange(space.bits, dtype=np.int64)[np.newaxis, :]
    if scheme is DatScheme.BALANCED:
        limiter = FingerLimiter.for_ring(space.bits, len(ring))  # Python ints
        limits = np.array([limiter(int(v)) for v in x], dtype=np.int64)
        eligible &= slots <= limits[:, np.newaxis]
    return fingers, np.where(eligible, slots, -1).max(axis=1)


def _assert_closed_form_matches_scan(ring, key, scheme):
    ids = ring.id_index().ids
    root = ring.successor(key)
    fingers, best = _scan_best_slots(ring, root, scheme)
    is_root = ids == root
    assert (best[~is_root] >= 0).all()
    assert best[is_root].tolist() == [-1]

    x = (np.int64(root) - ids) & np.int64(ring.space.max_id)
    gap = Fraction(ring.space.size, len(ring))
    closed = parent_slots(x, x, gap if scheme is DatScheme.BALANCED else None)
    assert closed.tolist() == best.tolist()

    arrays = fast_tree_arrays(ring, key, scheme=scheme)
    assert arrays.root == root
    chosen = fingers[np.arange(ids.size), np.maximum(best, 0)]
    chosen[is_root] = root
    assert ids[arrays.parent_index].tolist() == chosen.tolist()


def _chase_depths(parent_index, root_index):
    """The old ``depth_array``: advance every chase one edge per pass and
    count the ones not yet at the root — ``height`` passes."""
    n = parent_index.size
    depth = (np.arange(n) != root_index).astype(np.int64)
    cur = parent_index
    for _ in range(n + 1):
        alive = cur != root_index
        if not alive.any():
            return depth
        depth += alive
        cur = parent_index[cur]
    raise AssertionError("reference chase did not converge: not a tree")


def _assert_depths_match_chase(arrays):
    expected = _chase_depths(arrays.parent_index, arrays.root_index)
    depths = arrays.depth_array()
    assert depths.dtype == np.int64
    assert depths.tolist() == expected.tolist()
    assert arrays.height() == int(expected.max())
    assert arrays.depth_array() is depths  # cached


def _forest(parent_index, root_index):
    """A ``DatTreeArrays`` over an arbitrary parent array (ids are positions)."""
    parent_index = np.asarray(parent_index, dtype=np.int64)
    nodes = np.arange(parent_index.size, dtype=np.int64)
    return DatTreeArrays(nodes, parent_index, root_index, 0, DatScheme.BASIC)


def _probe_keys(ring, extra):
    """Keys on a member, one past a member, past the top id, plus ``extra``."""
    space = ring.space
    nodes = ring.nodes
    keys = {
        nodes[0],
        space.wrap(nodes[0] + 1),
        nodes[-1],
        space.wrap(nodes[-1] + 1),  # wraps to the lowest member
        space.max_id,
        0,
        space.wrap(extra),
    }
    return sorted(keys)


@st.composite
def _rings(draw):
    bits = draw(st.sampled_from(BITS))
    space = IdSpace(bits)
    n = draw(st.integers(min_value=2, max_value=min(2048, space.size)))
    if bits >= 16 and draw(st.booleans()):
        seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
        return ProbingIdAssigner().build_ring(space, min(n, 512), rng=seed)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    if n > space.size // 2:  # dense: choose the members directly
        ids = rng.choice(space.size, size=n, replace=False)
    else:
        ids = np.unique(rng.integers(0, space.size, size=n, dtype=np.int64))
        if ids.size < 2:
            ids = np.array([0, space.max_id], dtype=np.int64)
    return StaticRing(space, sorted(int(v) for v in ids))


class TestClosedFormEqualsScan:
    @settings(max_examples=60, deadline=None)
    @given(
        ring=_rings(),
        extra=st.integers(min_value=0, max_value=2**48 - 1),
        scheme=st.sampled_from(SCHEMES),
    )
    def test_random_and_probing_rings(self, ring, extra, scheme):
        for key in _probe_keys(ring, extra):
            _assert_closed_form_matches_scan(ring, key, scheme)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("bits", [4, 8, 11])
    def test_full_ring(self, bits, scheme):
        space = IdSpace(bits)
        ring = StaticRing(space, range(space.size))
        for key in (0, 1, space.size // 3, space.max_id):
            _assert_closed_form_matches_scan(ring, key, scheme)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("bits", BITS)
    def test_distances_exactly_one_and_powers_of_two(self, bits, scheme):
        # Members at x = 1, 2^k, 2^k +- 1 from the root; the root sits low in
        # the space, so most of them lie past zero, wrapped.
        space = IdSpace(bits)
        root = 5
        distances = {1}
        for k in range(1, bits):
            distances.update({(1 << k) - 1, 1 << k, (1 << k) + 1})
        members = {root} | {space.wrap(root - d) for d in distances if d < space.size}
        ring = StaticRing(space, sorted(members))
        _assert_closed_form_matches_scan(ring, root, scheme)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_two_node_ring(self, scheme):
        ring = StaticRing(IdSpace(32), [7, 2**31 + 7])
        for key in (0, 7, 8, 2**31 + 7, 2**31 + 8):
            _assert_closed_form_matches_scan(ring, key, scheme)


class TestDepthDoublingEqualsChase:
    @settings(max_examples=40, deadline=None)
    @given(
        ring=_rings(),
        extra=st.integers(min_value=0, max_value=2**48 - 1),
        scheme=st.sampled_from(SCHEMES),
    )
    def test_dats_on_random_and_probing_rings(self, ring, extra, scheme):
        for key in _probe_keys(ring, extra):
            _assert_depths_match_chase(fast_tree_arrays(ring, key, scheme=scheme))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("bits", [4, 8, 11])
    def test_dats_on_full_rings(self, bits, scheme):
        space = IdSpace(bits)
        ring = StaticRing(space, range(space.size))
        for key in (0, 1, space.size // 3, space.max_id):
            _assert_depths_match_chase(fast_tree_arrays(ring, key, scheme=scheme))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=700),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_recursive_trees(self, n, seed):
        # Node k > 0 hangs off a uniformly chosen earlier node; a random
        # relabelling then puts the root and every edge anywhere.
        rng = np.random.default_rng(seed)
        parent = np.zeros(n, dtype=np.int64)
        parent[1:] = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
        label = rng.permutation(n)
        relabelled = np.empty(n, dtype=np.int64)
        relabelled[label] = label[parent]
        _assert_depths_match_chase(_forest(relabelled, int(label[0])))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 63, 64, 65, 1000])
    def test_chains_and_stars(self, n):
        up = np.maximum(np.arange(n) - 1, 0)  # 0 <- 1 <- 2 ... : height n - 1
        _assert_depths_match_chase(_forest(up, 0))
        assert _forest(up, 0).depth_array().tolist() == list(range(n))
        down = np.minimum(np.arange(n) + 1, n - 1)  # rooted at the far end
        _assert_depths_match_chase(_forest(down, n - 1))
        for root in {0, n // 2, n - 1}:
            star = _forest(np.full(n, root), root)
            _assert_depths_match_chase(star)
            assert star.height() == min(n - 1, 1)
