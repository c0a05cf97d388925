"""Equivalence tests: vectorized fast path vs scalar reference builders."""

from fractions import Fraction

import numpy as np
import pytest

from repro.chord.fastbuild import (
    FAST_PATH_MAX_BITS,
    DatTreeArrays,
    fast_finger_matrix,
    fast_tree_arrays,
)
from repro.chord.idgen import ProbingIdAssigner, RandomIdAssigner, UniformIdAssigner
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.core.builder import (
    DatScheme,
    DatTreeBuilder,
    build_balanced_dat,
    build_basic_dat,
    build_dat,
)
from repro.core.limiting import _balanced_limits
from repro.errors import TreeError


RING_CASES = [
    ("full4", IdSpace(4), lambda s: StaticRing(s, range(16))),
    ("uniform", IdSpace(16), lambda s: UniformIdAssigner().build_ring(s, 64)),
    ("random", IdSpace(32), lambda s: RandomIdAssigner().build_ring(s, 200, rng=3)),
    ("probing", IdSpace(32), lambda s: ProbingIdAssigner().build_ring(s, 150, rng=4)),
    ("sparse", IdSpace(20), lambda s: StaticRing(s, [5, 1000, 99999, 524287])),
    # Fingers that wrap past the top of the space, and the smallest rings.
    ("two", IdSpace(8), lambda s: StaticRing(s, [3, 200])),
    ("ends", IdSpace(8), lambda s: StaticRing(s, [0, 255])),
    ("top-run", IdSpace(6), lambda s: StaticRing(s, [1, 2, 3, 60, 61, 62, 63])),
    ("one", IdSpace(8), lambda s: StaticRing(s, [42])),
]


@pytest.mark.parametrize("name,space,factory", RING_CASES)
class TestEquivalence:
    def test_finger_matrix_matches_scalar(self, name, space, factory):
        ring = factory(space)
        matrix = fast_finger_matrix(ring)
        for i, node in enumerate(ring.nodes):
            assert list(matrix[i]) == ring.finger_entries(node), node

    def test_basic_parents_match(self, name, space, factory):
        ring = factory(space)
        for key in (0, space.size // 3, space.max_id):
            scalar = build_basic_dat(ring, key).parent
            assert fast_tree_arrays(ring, key, "basic").parent_map() == scalar, key

    def test_balanced_parents_match(self, name, space, factory):
        ring = factory(space)
        for key in (0, space.size // 3, space.max_id):
            scalar = build_balanced_dat(ring, key).parent
            assert fast_tree_arrays(ring, key, "balanced").parent_map() == scalar, key

    def test_build_dat_fast_trees_identical(self, name, space, factory):
        ring = factory(space)
        scalar_builders = {"basic": build_basic_dat, "balanced": build_balanced_dat}
        for scheme, scalar in scalar_builders.items():
            fast = build_dat(ring, 7 % space.size, scheme=scheme)
            slow = scalar(ring, 7 % space.size)
            assert fast.root == slow.root
            assert fast.parent == slow.parent
            assert fast.height == slow.height  # computed on first read


class TestFallbacksAndLimits:
    def test_wide_space_falls_back(self):
        space = IdSpace(160)
        ring = StaticRing(space, [1, 2**100, 2**150])
        tree = build_dat(ring, 5)
        assert tree.n_nodes == 3  # scalar fallback worked

    def test_direct_call_on_wide_space_rejected(self):
        space = IdSpace(160)
        ring = StaticRing(space, [1, 2**100])
        with pytest.raises(TreeError):
            fast_finger_matrix(ring)

    def test_empty_ring_rejected(self):
        with pytest.raises(TreeError):
            fast_finger_matrix(StaticRing(IdSpace(8)))

    def test_single_node_fast_build(self):
        ring = StaticRing(IdSpace(8), [42])
        tree = build_dat(ring, 0)
        assert tree.root == 42 and tree.parent == {}

    def test_max_bits_boundary(self):
        space = IdSpace(FAST_PATH_MAX_BITS)
        ring = RandomIdAssigner().build_ring(space, 50, rng=5)
        scalar = build_balanced_dat(ring, 12345).parent
        assert fast_tree_arrays(ring, 12345).parent_map() == scalar


class TestVectorizedCeilLog2:
    def test_exact_on_powers_and_neighbors(self):
        from repro.core.limiting import _vectorized_ceil_log2
        from repro.util.bits import ceil_log2

        values = []
        for k in range(1, 50):
            values.extend([(1 << k) - 1, 1 << k, (1 << k) + 1])
        arr = np.array(values, dtype=np.int64)
        expected = np.array([ceil_log2(int(v)) for v in values])
        assert np.array_equal(_vectorized_ceil_log2(arr), expected)


class TestExactCeilQ:
    """``g(x) = ceil_log2(max(1, q))``, ``q = ceil((x*n + 2*size) / (3n))``:
    the kernel's array form is ``_balanced_limits`` with ``d0 = size/n``."""

    @staticmethod
    def _expected(x, n, size):
        from repro.util.bits import ceil_div, ceil_log2

        return [
            ceil_log2(max(1, ceil_div(int(v) * n + 2 * size, 3 * n))) for v in x
        ]

    def test_matches_ceil_div_in_vector_range(self):
        x = np.array([0, 1, 2, 5, 1000, 2**20, 2**30], dtype=np.int64)
        n, size = 4096, 2**32
        got = _balanced_limits(x, Fraction(size, n))
        assert got.tolist() == self._expected(x, n, size)

    def test_overflow_branch_stays_exact(self):
        # x*q + 2p >= 2^62 (q = n: odd, so size/n does not reduce) forces
        # the arbitrary-precision fallback.
        size = 2**48
        n = 2**16 - 1
        x = np.array([size - 1, size - 2, size // 2], dtype=np.int64)
        assert int(x.max()) * n + 2 * size >= 2**62
        got = _balanced_limits(x, Fraction(size, n))
        assert got.tolist() == self._expected(x, n, size)

    def test_empty_input(self):
        empty = np.array([], dtype=np.int64)
        assert _balanced_limits(empty, Fraction(256, 8)).size == 0


class TestSharedMatrix:
    """``fast_tree_arrays`` still takes a ``matrix`` (a frozen positional
    caller passes one); it is shape-checked and otherwise ignored."""

    def test_supplied_matrix_used_across_keys(self):
        space = IdSpace(16)
        ring = UniformIdAssigner().build_ring(space, 64)
        matrix = fast_finger_matrix(ring)
        for key in (0, 1234, space.max_id):
            for scheme in ("balanced", "basic"):
                with_shared = fast_tree_arrays(ring, key, scheme, matrix)
                fresh = fast_tree_arrays(ring, key, scheme)
                assert with_shared.parent_map() == fresh.parent_map()

    def test_wrong_shape_matrix_rejected(self):
        space = IdSpace(16)
        ring = UniformIdAssigner().build_ring(space, 32)
        bad = np.zeros((3, space.bits), dtype=np.int64)
        with pytest.raises(TreeError):
            fast_tree_arrays(ring, 0, matrix=bad)


class TestMatrixFreeBuild:
    """Counts and bytes, no wall-clock: a tree and its statistics allocate
    O(n), never an ``(n, bits)`` temporary, and never ask for the finger
    matrix; the successor grid the ring caches is O(n) too."""

    @pytest.mark.parametrize("scheme", ["basic", "balanced"])
    def test_peak_allocation_is_linear(self, scheme):
        import tracemalloc

        n, bits = 16384, 32
        ring = ProbingIdAssigner().build_ring(IdSpace(bits), n, rng=3)
        # The sorted id vector and its successor grid are the ring's, built
        # once, not the build's.
        index = ring.id_index()
        index.successor_indices(index.ids[:1])
        tracemalloc.start()
        try:
            stats = fast_tree_arrays(ring, 0xA5A5A5, scheme=scheme).stats()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.n_nodes == n
        # One (n, bits) int64 temporary alone is 32 * n * 8 bytes.
        assert peak < 16 * n * 8, peak

    @pytest.mark.parametrize("n", [1, 1000, 16384, 16385])
    def test_cached_successor_grid_is_linear(self, n):
        index = ProbingIdAssigner().build_ring(IdSpace(32), n, rng=3).id_index()
        index.successor_indices(index.ids)
        _shift, _rounds, starts = index._grid
        assert starts.nbytes <= 4 * n * 8, starts.nbytes

    def test_tree_stats_never_builds_a_finger_matrix(self, monkeypatch):
        import repro.chord.fastbuild as fastbuild

        def refuse(ring):
            raise AssertionError("tree statistics must not build a finger matrix")

        monkeypatch.setattr(fastbuild, "fast_finger_matrix", refuse)
        ring = ProbingIdAssigner().build_ring(IdSpace(32), 512, rng=3)
        for scheme in ("basic", "balanced"):
            stats = DatTreeBuilder(ring, scheme).tree_stats(777)
            assert stats.n_nodes == 512
            assert build_dat(ring, 777, scheme=scheme).stats() == stats
        assert fastbuild.fast_centralized_load_array(ring, 777).size == 512


class TestColumnBuiltMatrix:
    """``fast_finger_matrix`` fills its ``(n, bits)`` result one column at a
    time, so nothing else of that size is allocated (``RING_CASES`` holds
    it equal to the scalar tables), and tree statistics stay O(n) beside a
    builder whose ``finger_matrix`` was read."""

    def test_traced_peak_is_the_result_plus_vectors(self):
        import tracemalloc

        n, bits = 65536, 32
        ring = ProbingIdAssigner().build_ring(IdSpace(bits), n, rng=3)
        index = ring.id_index()
        index.successor_indices(index.ids[:1])  # the ring's grid, not the build's
        tracemalloc.start()
        try:
            matrix = fast_finger_matrix(ring)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrix.nbytes == n * bits * 8  # 256 B/node of result
        # Measured ~297 B/node; the two-pass build it replaced read 768
        # (the result plus two temporaries of its shape).
        assert peak / n <= 320, peak / n

    @pytest.mark.parametrize("scheme", ["basic", "balanced"])
    def test_builder_tree_stats_traced_peak_is_linear(self, scheme):
        import tracemalloc

        n = 65536
        ring = ProbingIdAssigner().build_ring(IdSpace(32), n, rng=3)
        builder = DatTreeBuilder(ring, scheme)
        builder.finger_matrix  # noqa: B018  (read and dropped: the builder keeps none)
        tracemalloc.start()
        try:
            stats = builder.tree_stats(0xA5A5A5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.n_nodes == n
        # Measured ~60 B/node, the ring's successor grid included; one
        # (n, 32) int64 matrix alone is 256.
        assert peak / n <= 96, peak / n


class TestDepthDoubling:
    """``depth_array`` takes ``log2 height`` rounds on a tree and gives up
    after ``log2 n`` on anything else (the chase it replaced made ``n + 1``
    full-width passes before it raised: O(n^2), minutes at this size)."""

    N = 1 << 17

    def _arrays(self, parent_index, root_index=0):
        nodes = np.arange(self.N, dtype=np.int64)
        return DatTreeArrays(nodes, parent_index, root_index, 0, DatScheme.BASIC)

    def _star(self):
        return np.zeros(self.N, dtype=np.int64)

    def test_two_cycle_off_the_root_raises(self):
        parent = self._star()
        parent[[5, 9]] = [9, 5]
        with pytest.raises(TreeError, match="cycle"):
            self._arrays(parent).depth_array()

    def test_self_loop_off_the_root_raises(self):
        parent = self._star()
        parent[77] = 77
        parent[78] = 77  # and a node hanging off the loop
        with pytest.raises(TreeError, match="cycle"):
            self._arrays(parent).height()

    def test_whole_ring_cycle_raises(self):
        parent = (np.arange(self.N, dtype=np.int64) + 1) % self.N
        with pytest.raises(TreeError, match="cycle"):
            self._arrays(parent).stats()

    def test_chain_is_exact(self):
        # Height n - 1: the most rounds a tree can need, one short of the cap.
        parent = np.maximum(np.arange(self.N, dtype=np.int64) - 1, 0)
        arrays = self._arrays(parent)
        assert np.array_equal(arrays.depth_array(), np.arange(self.N))
        assert arrays.height() == self.N - 1

    def test_star_is_exact(self):
        arrays = self._arrays(self._star())
        depths = arrays.depth_array()
        assert int(depths[0]) == 0 and bool((depths[1:] == 1).all())
        stats = arrays.stats()
        assert (stats.height, stats.max_branching) == (1, self.N - 1)
        assert (stats.n_internal, stats.avg_branching) == (1, float(self.N - 1))


class TestScaleIdentity:
    def test_fast_path_identical_at_4096(self):
        space = IdSpace(32)
        ring = ProbingIdAssigner().build_ring(space, 4096, rng=9)
        fast = build_dat(ring, 777, scheme="balanced")
        slow = build_balanced_dat(ring, 777)
        assert fast.parent == slow.parent
