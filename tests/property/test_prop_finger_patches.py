"""Property tests: an event's reported finger patches are the table diff.

``DatUpdateEngine.apply`` reports in ``delta.patches`` every finger entry a
join or departure rewrote. The oracle here is brute force and lives in this
file: build ``ring.all_finger_tables()`` before and after the event and diff
them entry by entry (the joiner's own new row is not a patch). Rings are
small and spaces range from 4 bits — where every arc ``(q - 2^j, p - 2^j]``
wraps past 0 for some slot — to 160.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.idspace import IdSpace
from repro.chord.incremental import DatUpdateEngine
from repro.chord.ring import StaticRing
from repro.core.builder import build_balanced_dat

BITS = [4, 8, 24, 32, 160]


def _entries(ring):
    return {node: table.entries for node, table in ring.all_finger_tables().items()}


def _table_diff(before, after):
    """``{(owner, slot, old, new)}`` over the owners present on both sides."""
    return {
        (owner, slot, old, new)
        for owner in before.keys() & after.keys()
        for slot, (old, new) in enumerate(zip(before[owner], after[owner]))
        if old != new
    }


def _apply_and_check(ring, kind, ident, key=None):
    """One event through a fresh engine; patches must equal the table diff."""
    engine = DatUpdateEngine(ring)
    if key is not None and len(ring):
        engine.track(key)
    before = _entries(ring)
    n_before = len(ring)
    report = engine.apply(kind, ident)
    delta = report.delta
    patches = [(p.owner, p.slot, p.old, p.new) for p in delta.patches]
    assert len(set(patches)) == len(patches), "a slot was reported twice"
    assert set(patches) == _table_diff(before, _entries(ring))
    assert report.finger_updates == len(patches)
    assert (delta.n_before, delta.n_after) == (n_before, len(ring))
    if key is not None and len(ring):
        reference = build_balanced_dat(StaticRing(ring.space, ring.nodes), key)
        tree = engine.track(key)
        assert tree.root == reference.root and tree.parent == reference.parent
    return delta


def _random_members(rng, space, n):
    members = set()
    while len(members) < n:
        members.add(rng.randrange(space.size))
    return sorted(members)


@settings(max_examples=150, deadline=None)
@given(
    bits=st.sampled_from(BITS),
    n=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    join=st.booleans(),
    adopted=st.booleans(),
)
def test_patches_equal_table_diff(bits, n, seed, join, adopted):
    rng = random.Random(seed)
    space = IdSpace(bits)
    n = min(n, space.size - 1)  # leave room for a joiner in the 4-bit space
    members = _random_members(rng, space, n)
    ring = StaticRing.from_sorted_ids(space, members) if adopted else StaticRing(space, members)
    if join:
        ident = rng.randrange(space.size)
        while ident in ring:
            ident = rng.randrange(space.size)
        _apply_and_check(ring, "join", ident, key=rng.randrange(space.size))
    else:
        kind = rng.choice(["leave", "crash"])
        _apply_and_check(ring, kind, rng.choice(members), key=rng.randrange(space.size))


@pytest.mark.parametrize("bits", BITS)
class TestEdgeCases:
    def test_tiny_rings(self, bits):
        """``n_before`` of 0, 1 and 2, joining and leaving."""
        space = IdSpace(bits)
        top = space.max_id
        ring = StaticRing(space)
        assert _apply_and_check(ring, "join", 5).patches == ()  # n_before = 0
        first = _apply_and_check(ring, "join", top - 1)  # n_before = 1
        assert {(p.old, p.new) for p in first.patches} == {(5, top - 1)}
        _apply_and_check(ring, "join", 9)  # n_before = 2
        _apply_and_check(ring, "leave", 9)
        _apply_and_check(ring, "leave", 5)  # n_before = 2: the survivor owns all
        assert _apply_and_check(ring, "leave", top - 1).patches == ()  # n_before = 1
        assert len(ring) == 0

    def test_gap_wrapping_past_zero(self, bits):
        """The event's interval ``(q, p]`` straddles identifier 0."""
        space = IdSpace(bits)
        top = space.max_id
        base = [3, space.size // 2, top - 2]
        _apply_and_check(StaticRing(space, base), "join", 0, key=1)
        _apply_and_check(StaticRing(space, base), "join", 1, key=1)
        _apply_and_check(StaticRing(space, base), "join", top, key=1)
        _apply_and_check(StaticRing(space, base), "leave", 3, key=1)  # (top-2, 3]
        _apply_and_check(StaticRing(space, [0, *base]), "leave", 0, key=1)

    def test_event_at_the_roots_predecessor(self, bits):
        """Joins and departures right behind ``successor(key)``, and on it."""
        space = IdSpace(bits)
        half = space.size // 2
        members = [1, half - 3, half, space.max_id - 1]
        for root in (half, 1):  # the second root's arc wraps past 0
            key = root
            before_root = (root - 1) % space.size
            _apply_and_check(StaticRing(space, members), "join", before_root, key=key)
            _apply_and_check(
                StaticRing(space, [*members, before_root]), "leave", before_root, key=key
            )
            predecessor = StaticRing(space, members).predecessor(root)
            _apply_and_check(StaticRing(space, members), "crash", predecessor, key=key)
            _apply_and_check(StaticRing(space, members), "leave", root, key=key)
