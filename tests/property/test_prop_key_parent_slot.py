"""The key-addressed parent slot has a closed form on a converged block.

``ChordNodeBlock.key_parents`` finds every node's ``parent_toward_key(k)`` by
scanning the ``(n, bits)`` finger matrix for the highest slot whose finger
lands in ``(i, k]``. ``k`` need not be a member, but the ring is converged:
``successor(i + 2^j)`` lands in ``(i, k]`` exactly when some member lies in
``[i + 2^j, k]``, i.e. when ``2^j <= cw(i, p*)`` with ``p*`` the last member
at or before ``k``. The eligible slots are a prefix, so the slot is
``min(floor(log2 cw(i, p*)), g(cw(i, k)))``; row ``p*`` has no eligible slot
and falls back to its successor (``-1`` on a lone ring). The formula lives
here; the scan in ``src/`` is the reference it is proved against, over the
ring families of ``test_prop_parent_slot.py`` plus uniform rings, a key in
every gap, on every member, one past the top member, and ``n = 1``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.block import ChordNodeBlock
from repro.chord.idgen import UniformIdAssigner
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.core.limiting import balanced_limits
from tests.property.test_prop_parent_slot import BITS, _rings

SCHEMES = ["basic", "balanced"]


def _closed_form_key_parents(ring, key, scheme):
    space = ring.space
    mask = np.int64(space.max_id)
    ids = ring.id_index().ids
    n = ids.size
    last = ids[np.searchsorted(ids, key, side="right") - 1]  # p*; -1 wraps
    # cw(i, p*); row p* itself has no eligible finger and takes slot 0, its successor.
    reach = np.maximum((last - ids) & mask, 1)
    slot = np.frexp(reach.astype(np.float64))[1].astype(np.int64) - 1
    if scheme == "balanced":
        slot = np.minimum(slot, balanced_limits((np.int64(key) - ids) & mask, space.size / n))
    parents = ids[np.searchsorted(ids, (ids + (np.int64(1) << slot)) & mask) % n]
    return np.where(parents != ids, parents, -1)


def _assert_closed_form_matches_scan(ring, keys, scheme):
    block = ChordNodeBlock.from_ring(ring)
    for key in keys:
        scan = block.key_parents(key, scheme=scheme)
        assert _closed_form_key_parents(ring, key, scheme).tolist() == scan.tolist()


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
        assert {int(_closed_form_key_parents(ring, key, scheme)[0]) for key in keys} == {-1}
        _assert_closed_form_matches_scan(ring, keys, scheme)
