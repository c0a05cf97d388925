"""ChordNodeBlock — exact equivalence with the object path.

The block is the protocol path's shared routing state; every query it
answers must match the scalar :class:`~repro.chord.fingers.FingerTable`
machinery bit for bit. These tests assert that identity over full rings:
``key_parents`` against the scalar key-addressed rule of
``DatNodeService.parent_toward_key``, and the balanced limits of
:func:`~repro.core.limiting.parent_slots` against the exact scalar
:class:`~repro.core.limiting.FingerLimiter`.
"""

import tracemalloc

import numpy as np
import pytest

from repro.chord.block import ChordNodeBlock
from repro.chord.fastbuild import fast_finger_matrix
from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.core.limiting import FingerLimiter, parent_slots
from repro.core.slab import run_protocol_slab
from repro.errors import IdentifierError, TreeError


def build_ring(n, bits=16, seed=11, strategy="random"):
    space = IdSpace(bits)
    return make_assigner(strategy).build_ring(space, n, rng=seed)


def scalar_parent_toward_key(table, key, scheme, d0):
    """The key-addressed rule exactly as DatNodeService.parent_toward_key."""
    space = table.space
    if scheme == "balanced":
        x = space.cw(table.owner, key)
        max_slot = FingerLimiter.for_gap(d0)(x)
    else:
        max_slot = None
    parent = table.closest_preceding(key, max_slot=max_slot)
    if parent is None:
        successor = table.successor
        return successor if successor != table.owner else None
    return parent


def balanced_limits(x, d0):
    """``g(x)`` read off ``parent_slots`` with a reach no limit here meets."""
    return parent_slots(np.full(x.shape, 2**53 - 1, dtype=np.int64), x, d0)


class TestBalancedLimits:
    def test_matches_scalar_limiter_integer_gap(self):
        rng = np.random.default_rng(3)
        x = rng.integers(1, 2**32, size=500)
        for d0 in (1.0, 2.0, 4096.0, 2.0**32 / 300):
            limiter = FingerLimiter.for_gap(d0)
            expected = np.array([limiter(int(v)) for v in x], dtype=np.int64)
            np.testing.assert_array_equal(balanced_limits(x, d0), expected)

    def test_matches_scalar_limiter_fractional_gap(self):
        # Non-power-of-two populations give fractional d0 (q > 1).
        rng = np.random.default_rng(4)
        x = rng.integers(1, 2**20, size=200)
        for n in (3, 7, 300, 1021):
            d0 = 2.0**20 / n
            limiter = FingerLimiter.for_gap(d0)
            expected = np.array([limiter(int(v)) for v in x], dtype=np.int64)
            np.testing.assert_array_equal(balanced_limits(x, d0), expected)

    def test_wide_values_need_no_fallback(self):
        # x * q + 2p overflows int64 here (the array form once fell back to
        # Python ints per element); x + c + 2 stays far inside it.
        x = np.array([2**61, 2**61 + 12345, 2**48 - 1, 2**47 + 3], dtype=np.int64)
        reach = np.array([2**53 - 1, 12345, 2**53 - 1, 2**40], dtype=np.int64)
        d0 = 3.0000000001  # limit_denominator gives a large q
        limiter = FingerLimiter.for_gap(d0)
        assert int(x.max()) * limiter.d0.denominator >= 2**63
        expected = [
            min(int(r).bit_length() - 1, limiter(int(v))) for r, v in zip(reach, x)
        ]
        assert parent_slots(reach, x, d0).tolist() == expected

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            balanced_limits(np.array([1]), 0.0)


class TestChordNodeBlock:
    def test_from_ring_matches_ring_queries(self):
        ring = build_ring(100, seed=5)
        block = ChordNodeBlock.from_ring(ring)
        assert len(block) == 100
        assert block.ids.tolist() == sorted(ring.nodes)
        rng = np.random.default_rng(9)
        for key in rng.integers(0, ring.space.size, size=50).tolist():
            owner = int(block.ids[block.owner_index(key)])
            assert owner == ring.successor(key)

    def test_rejects_wide_space_and_empty_ring(self):
        with pytest.raises(TreeError):
            ChordNodeBlock.from_ring(StaticRing(IdSpace(64), [1, 2]))
        with pytest.raises(TreeError):
            ChordNodeBlock.from_ring(StaticRing(IdSpace(16)))

    @pytest.mark.parametrize("scheme", ["basic", "balanced"])
    @pytest.mark.parametrize("n", [2, 3, 33, 256])
    def test_key_parents_match_scalar_rule(self, n, scheme):
        ring = build_ring(n, seed=n + 1)
        block = ChordNodeBlock.from_ring(ring)
        d0 = ring.space.size / n
        rng = np.random.default_rng(n)
        keys = rng.integers(0, ring.space.size, size=8).tolist()
        keys += block.ids.tolist()[:4]  # keys landing on members
        for key in keys:
            parents = block.key_parents(key, scheme=scheme)
            for i, ident in enumerate(block.ids.tolist()):
                table = ring.finger_table(ident)
                expected = scalar_parent_toward_key(table, key, scheme, d0)
                actual = int(parents[i])
                assert actual == (-1 if expected is None else expected), (
                    n,
                    scheme,
                    key,
                    ident,
                )

    def test_key_parents_lone_ring(self):
        block = ChordNodeBlock.from_ring(StaticRing(IdSpace(8), [42]))
        parents = block.key_parents(7, scheme="basic")
        assert parents.tolist() == [-1]

    @pytest.mark.parametrize("key", [2**16 + 5, -3])
    def test_keys_outside_the_space_raise(self, key):
        # Not ``key mod 2^bits``: the closed form's searchsorted would pick
        # the wrong p* for such a key, and StaticRing.successor refuses it.
        block = ChordNodeBlock.from_ring(build_ring(32, bits=16))
        for scheme in ("basic", "balanced"):
            with pytest.raises(IdentifierError):
                block.key_parents(key, scheme)
        with pytest.raises(IdentifierError):
            block.owner_index(key)

    def test_key_parents_rejects_unknown_scheme(self):
        block = ChordNodeBlock.from_ring(build_ring(8))
        with pytest.raises(ValueError):
            block.key_parents(0, scheme="bogus")

    def test_key_parents_traced_peak_at_65536(self):
        # The closed form's temporaries are a few int64 vectors (68 B/node
        # balanced, 33 basic); the (n, bits) scan it replaced peaked at 568.
        ring = build_ring(1 << 16, bits=32, seed=7, strategy="probing")
        block = ChordNodeBlock.from_ring(ring)
        for scheme in ("basic", "balanced"):
            tracemalloc.start()
            try:
                block.key_parents(0xA5A5A5, scheme)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / len(block) < 128, (scheme, peak / len(block))

    def test_state_nbytes_counts_the_matrix_only_once_read(self):
        ring = build_ring(512, bits=32, seed=2)
        block = ChordNodeBlock.from_ring(ring)
        assert block.ids is ring.id_index().ids  # shared, not copied
        assert block.state_nbytes() == 512 * 8
        block.matrix  # noqa: B018
        # ids (8 B) + one matrix row (8 * bits B) per node.
        assert block.state_nbytes() == 512 * 8 * (1 + 32)


class TestIdsOnlyBlock:
    """The block holds ids; the finger matrix is built only when read."""

    def test_matrix_is_built_on_first_read_and_cached(self):
        ring = build_ring(300, bits=20, seed=4)
        block = ChordNodeBlock.from_ring(ring)
        first = block.matrix
        np.testing.assert_array_equal(first, fast_finger_matrix(ring))
        assert block.matrix is first

    @pytest.mark.parametrize("change", ["add", "remove"])
    def test_matrix_reads_the_snapshot_not_the_changed_ring(self, change):
        ring = build_ring(200, bits=20, seed=8)
        block = ChordNodeBlock.from_ring(ring)
        snapshot = fast_finger_matrix(ring)
        if change == "add":
            ring.add(next(v for v in range(1, 1 << 20) if v not in ring))
        else:
            ring.remove(ring.nodes[len(ring) // 2])
        np.testing.assert_array_equal(block.matrix, snapshot)

    def test_protocol_path_never_builds_a_finger_matrix(self, monkeypatch):
        import repro.chord.block as block_module
        import repro.chord.fastbuild as fastbuild

        def refuse(ring):
            raise AssertionError("the protocol path must not build a finger matrix")

        monkeypatch.setattr(fastbuild, "fast_finger_matrix", refuse)
        monkeypatch.setattr(block_module, "fast_finger_matrix", refuse)
        ring = build_ring(256, bits=32, seed=3)
        block = ChordNodeBlock.from_ring(ring)
        for scheme in ("basic", "balanced"):
            assert block.key_parents(12345, scheme).size == 256
        result = run_protocol_slab(ring, key=12345, rounds=3)
        assert result.n_nodes == 256
        assert block.state_nbytes() == 256 * 8

    def test_from_ring_traced_peak_at_65536(self):
        # The block adopts the ring's id vector and builds no matrix (one
        # would peak at 768 B/node), so construction allocates ~nothing.
        ring = build_ring(1 << 16, bits=32, seed=7, strategy="probing")
        tracemalloc.start()
        try:
            block = ChordNodeBlock.from_ring(ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(block) < 16, peak / len(block)
