"""Unit tests for DAT construction (paper Fig. 2/5 + Algorithm 1)."""

from fractions import Fraction

import pytest

import repro.chord.fastbuild as fastbuild
from repro.chord.fastbuild import FAST_PATH_MAX_BITS
from repro.chord.idgen import ProbingIdAssigner, RandomIdAssigner, UniformIdAssigner
from repro.chord.idspace import IdSpace
from repro.chord.incremental import DatUpdateEngine
from repro.chord.ring import StaticRing
from repro.core.builder import DatScheme, DatTreeBuilder, build_dat
from repro.errors import TreeError
from repro.util.bits import ceil_log2
from tests.oracles import build_balanced_dat, build_basic_dat


class TestBuildBasicDat:
    def test_reproduces_paper_fig2(self, full_ring4):
        tree = build_basic_dat(full_ring4, key=0)
        assert tree.root == 0
        assert tree.children(0) == [8, 12, 14, 15]
        assert tree.path_to_root(1) == [1, 9, 13, 15, 0]
        assert tree.stats().max_branching == 4  # log2(16)
        tree.validate()

    def test_root_is_successor_of_key(self, full_ring4):
        from repro.chord.ring import StaticRing

        ring = StaticRing(full_ring4.space, [2, 8, 14])
        assert build_basic_dat(ring, key=5).root == 8
        assert build_basic_dat(ring, key=15).root == 2  # wraps

    def test_all_nodes_present(self, full_ring4):
        tree = build_basic_dat(full_ring4, key=3)
        assert set(tree.nodes()) == set(full_ring4)

    def test_height_is_longest_route(self, full_ring4):
        # Sec. 3.3: tree height == length of the longest finger route.
        from repro.chord.routing import route_lengths

        tree = build_basic_dat(full_ring4, key=0)
        assert tree.height == max(route_lengths(full_ring4, 0).values())

    def test_prebuilt_tables_equivalent(self, full_ring4):
        tables = full_ring4.all_finger_tables()
        a = build_basic_dat(full_ring4, key=0)
        b = build_basic_dat(full_ring4, key=0, tables=tables)
        assert a.parent == b.parent


class TestBuildBalancedDat:
    def test_reproduces_paper_fig5(self, full_ring4):
        tree = build_balanced_dat(full_ring4, key=0)
        assert tree.root == 0
        assert tree.children(0) == [14, 15]
        assert tree.parent[8] == 12
        assert tree.stats().max_branching == 2
        tree.validate()

    def test_height_bound_on_power_of_two_ring(self):
        # Sec. 3.5: height <= log2(n) on evenly distributed identifiers.
        for bits, n in ((6, 64), (8, 256)):
            space = IdSpace(bits)
            ring = UniformIdAssigner().build_ring(space, n)
            tree = build_balanced_dat(ring, key=0)
            assert tree.height <= ceil_log2(n)
            assert tree.stats().max_branching <= 2

    def test_explicit_d0(self, full_ring4):
        a = build_balanced_dat(full_ring4, key=0)
        b = build_balanced_dat(full_ring4, key=0, d0=1.0)
        assert a.parent == b.parent

    def test_random_ring_valid(self):
        space = IdSpace(32)
        ring = RandomIdAssigner().build_ring(space, 200, rng=4)
        tree = build_balanced_dat(ring, key=999)
        tree.validate()
        assert tree.n_nodes == 200


class TestBuildDat:
    def test_scheme_dispatch(self, full_ring4):
        basic = build_dat(full_ring4, 0, scheme="basic")
        balanced = build_dat(full_ring4, 0, scheme=DatScheme.BALANCED)
        assert basic.parent == build_basic_dat(full_ring4, 0).parent
        assert balanced.parent == build_balanced_dat(full_ring4, 0).parent

    def test_rejects_unknown_scheme(self, full_ring4):
        with pytest.raises(ValueError):
            build_dat(full_ring4, 0, scheme="fancy")


@pytest.fixture
def kernel_calls(monkeypatch):
    """Spy on the array kernel: the list grows by one per call."""
    calls = []
    real = fastbuild.fast_tree_arrays

    def spy(ring, key, *args, **kwargs):
        calls.append(key)
        return real(ring, key, *args, **kwargs)

    monkeypatch.setattr(fastbuild, "fast_tree_arrays", spy)
    return calls


WIDE_ENTRYPOINTS = {
    "build_dat": lambda ring: build_dat(ring, 5),
    "builder_build": lambda ring: DatTreeBuilder(ring).build(5),
    "builder_tree_stats": lambda ring: DatTreeBuilder(ring).tree_stats(5),
    "engine_track": lambda ring: DatUpdateEngine(ring).track(5),
}


class TestBuildDatDispatch:
    """``build_dat`` runs the array kernel on every ring; the finger-table
    scans in ``tests/oracles.py`` are the reference."""

    SCALAR = {"basic": build_basic_dat, "balanced": build_balanced_dat}

    @pytest.fixture
    def ring(self):
        return ProbingIdAssigner().build_ring(IdSpace(24), 64, rng=2)

    def test_default_takes_array_kernel(self, ring, kernel_calls):
        for scheme, scalar in self.SCALAR.items():
            tree = build_dat(ring, 123, scheme=scheme)
            reference = scalar(ring, 123)
            assert tree.root == reference.root
            assert tree.parent == reference.parent
        assert kernel_calls == [123, 123]

    def test_explicit_d0_matches_the_oracle(self, ring, kernel_calls):
        gap = ring.space.size / len(ring)
        estimates = [gap * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)]
        estimates.append(Fraction(ring.space.size, len(ring)) * 3)
        for d0 in estimates:
            custom = build_dat(ring, 123, d0=d0)
            assert custom.parent == build_balanced_dat(ring, 123, d0=d0).parent, d0
        assert kernel_calls == [123] * len(estimates)
        # A doubled d0 genuinely changes the balanced tree.
        assert build_dat(ring, 123, d0=gap * 2).parent != build_dat(ring, 123).parent

    @pytest.mark.parametrize("entrypoint", sorted(WIDE_ENTRYPOINTS))
    def test_wide_space_is_rejected(self, entrypoint):
        ring = StaticRing(IdSpace(160), [1, 2**100, 2**150, 2**159])
        with pytest.raises(TreeError, match=f"at most {FAST_PATH_MAX_BITS} bits") as err:
            WIDE_ENTRYPOINTS[entrypoint](ring)
        assert "scalar" not in str(err.value)

    def test_single_node_ring_takes_the_kernel(self, kernel_calls):
        tree = build_dat(StaticRing(IdSpace(8), [42]), 0)
        assert kernel_calls == [0]
        assert tree.root == 42 and tree.parent == {}
        assert tree.stats().n_nodes == 1 and tree.height == 0

    def test_builder_dispatches_the_same_way(self, ring, kernel_calls):
        builder = DatTreeBuilder(ring)
        assert builder.build(123).parent == build_balanced_dat(ring, 123).parent
        assert kernel_calls == [123]


class TestDatTreeBuilder:
    def test_build_many_trees(self, full_ring4):
        builder = DatTreeBuilder(full_ring4, scheme="balanced")
        trees = builder.build_many([0, 5, 11])
        assert set(trees) == {0, 5, 11}
        roots = {trees[k].root for k in trees}
        assert roots == {0, 5, 11}  # distinct keys -> distinct roots here

    def test_build_reads_the_current_membership(self, full_ring4):
        builder = DatTreeBuilder(full_ring4)
        builder.build(0)
        full_ring4.remove(7)
        tree = builder.build(0)
        assert 7 not in tree.nodes()

    def test_multiple_trees_load_balanced_roots(self):
        # Consistent hashing spreads rendezvous keys over distinct roots
        # (the paper's argument for multi-tree load balance, Sec. 3.2).
        from repro.chord.hashing import sha1_id

        space = IdSpace(32)
        ring = RandomIdAssigner().build_ring(space, 128, rng=8)
        builder = DatTreeBuilder(ring)
        keys = [sha1_id(f"attr-{i}", space) for i in range(32)]
        roots = {builder.build(k).root for k in keys}
        assert len(roots) >= 20  # overwhelmingly distinct
