"""The key-addressed parent slot has a closed form on a converged block.

``ChordNodeBlock.key_parents`` finds every node's ``parent_toward_key(k)`` as
``successor(i + 2^slot)`` with ``slot = min(floor(log2 cw(i, p*)),
g(cw(i, k)))``, ``p*`` the last member at or before ``k``: ``k`` need not be
a member, but the ring is converged, so ``successor(i + 2^j)`` lands in
``(i, k]`` exactly when some member lies in ``[i + 2^j, k]``, i.e. when
``2^j <= cw(i, p*)``. Row ``p*`` has no eligible slot and falls back to its
successor (``-1`` on a lone ring). The block used to scan the ``(n, bits)``
finger matrix for the highest slot whose finger lands in ``(i, k]``; that
scan lives on here, written out as the reference, over the ring families of
``test_prop_parent_slot.py`` plus uniform rings, a key in every gap, on every
member, one past the top member, ``n = 1``, and the perf ledger's shape (a
2^16-node probing ring at 32 bits).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.block import ChordNodeBlock
from repro.chord.fastbuild import fast_finger_matrix
from repro.chord.idgen import ProbingIdAssigner, UniformIdAssigner
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.core.limiting import FingerLimiter
from tests.property.test_prop_parent_slot import BITS, _rings

SCHEMES = ["basic", "balanced"]


def _scan_key_parents(ring, key, scheme):
    """The old ``key_parents``: highest eligible slot of each matrix row."""
    space = ring.space
    mask = np.int64(space.max_id)
    ids = ring.id_index().ids
    n = ids.size
    matrix = fast_finger_matrix(ring)  # (n, bits): checked against the scalar tables
    x = (np.int64(key) - ids) & mask
    finger_dist = (matrix - ids[:, np.newaxis]) & mask
    eligible = (finger_dist > 0) & (finger_dist <= x[:, np.newaxis])
    slots = np.arange(space.bits, dtype=np.int64)[np.newaxis, :]
    if scheme == "balanced":
        limiter = FingerLimiter.for_gap(space.size / n)
        limits = np.array([limiter(v) for v in x.tolist()], dtype=np.int64)
        eligible &= slots <= limits[:, np.newaxis]
    best = np.where(eligible, slots, np.int64(-1)).max(axis=1)
    parents = matrix[np.arange(n), np.maximum(best, 0)]
    # No eligible finger: fall back to the successor (the owner's
    # predecessor lands here), or no parent at all on a lone ring.
    fallback = best < 0
    successor = matrix[:, 0]
    parents[fallback] = np.where(
        successor[fallback] != ids[fallback], successor[fallback], np.int64(-1)
    )
    return parents


def _assert_closed_form_matches_scan(ring, keys, scheme):
    block = ChordNodeBlock.from_ring(ring)
    for key in keys:
        closed = block.key_parents(key, scheme=scheme)
        assert closed.tolist() == _scan_key_parents(ring, key, scheme).tolist()


def _probe_keys(ring, extra):
    """A key on every member, inside every gap, one past the top, plus ``extra``."""
    space = ring.space
    nodes = ring.nodes
    if len(nodes) > 64:  # every gap of a big ring is the same case 2000 times
        nodes = nodes[:24] + nodes[-24:]
    keys = {0, space.max_id, space.wrap(extra), space.wrap(ring.nodes[-1] + 1)}
    for before, ident in zip(nodes[-1:] + nodes[:-1], nodes):
        keys.update({ident, space.wrap(ident - 1), space.wrap(before + space.cw(before, ident) // 2)})
    return sorted(keys)


class TestKeyAddressedClosedFormEqualsScan:
    @settings(max_examples=40, deadline=None)
    @given(
        ring=_rings(),
        extra=st.integers(min_value=0, max_value=2**48 - 1),
        scheme=st.sampled_from(SCHEMES),
    )
    def test_random_and_probing_rings(self, ring, extra, scheme):
        _assert_closed_form_matches_scan(ring, _probe_keys(ring, extra), scheme)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("bits", BITS)
    def test_uniform_rings(self, bits, scheme):
        space = IdSpace(bits)
        for n in (2, 3, 16, min(200, space.size)):
            ring = UniformIdAssigner(offset=3).build_ring(space, n)
            _assert_closed_form_matches_scan(
                ring, _probe_keys(ring, space.size // 3), scheme
            )

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("bits", [4, 8])
    def test_full_ring(self, bits, scheme):
        space = IdSpace(bits)
        ring = StaticRing(space, range(space.size))
        _assert_closed_form_matches_scan(ring, range(space.size), scheme)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("bits", BITS)
    def test_lone_ring_has_no_parent(self, bits, scheme):
        ring = StaticRing(IdSpace(bits), [5])
        keys = (0, 4, 5, 6, ring.space.max_id)
        block = ChordNodeBlock.from_ring(ring)
        assert {int(block.key_parents(key, scheme)[0]) for key in keys} == {-1}
        _assert_closed_form_matches_scan(ring, keys, scheme)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_ledger_shape_probing_65536_at_32_bits(self, scheme):
        # The slab_push_64k ring: n = 2^16, so the gap is a power of two.
        space = IdSpace(32)
        ring = ProbingIdAssigner().build_ring(space, 1 << 16, rng=2007)
        ids = ring.nodes
        keys = (0xA5A5A5, ids[777], space.wrap(ids[-1] + 1), space.max_id)
        _assert_closed_form_matches_scan(ring, keys, scheme)
