"""Property tests: which nodes a change of ``n`` re-limits, against brute force.

When ``n`` changes the balanced scheme's finger limit ``g(x)`` moves for the
nodes at certain distances ``x`` from a root. The engine finds them as the
members of a few thin arcs (``_limit_shift_spans`` once per event, one
``_arc_runs`` scan per tree). The oracle here evaluates ``g`` for every
distance with :class:`~repro.core.limiting.FingerLimiter`, which knows
nothing of thresholds or arcs. Spaces are 6 to 12 bits and rings 2 to 200
nodes, so arcs wider than the gap, arcs wrapping past 0 and the first
interval clipped at distance 1 all occur; roots sit at 0, ``max_id`` and
random identifiers.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.idspace import IdSpace
from repro.chord.incremental import DatUpdateEngine, _arc_runs, _limit_shift_spans
from repro.chord.ring import StaticRing
from repro.core.builder import build_balanced_dat
from repro.core.limiting import FingerLimiter


def _relimited_distances(space, n_before, n_after):
    """Every distance whose eligible-slot cap ``min(g(x), bits - 1)`` moved."""
    cap = space.bits - 1
    old = FingerLimiter.for_ring(space.bits, n_before)
    new = FingerLimiter.for_ring(space.bits, n_after)
    return {x for x in range(1, space.size) if min(old(x), cap) != min(new(x), cap)}


@settings(max_examples=200, deadline=None)
@given(
    bits=st.integers(min_value=6, max_value=12),
    n_before=st.integers(min_value=1, max_value=200),
    grow=st.booleans(),
)
def test_spans_are_the_distances_whose_limit_moved(bits, n_before, grow):
    space = IdSpace(bits)
    n_before = min(n_before, space.size - 1)
    n_after = n_before + 1 if grow or n_before == 1 else n_before - 1
    spans = _limit_shift_spans(space, n_before, n_after)
    assert all(1 <= near <= far < space.size for near, far in spans)
    covered = [x for near, far in spans for x in range(near, far + 1)]
    assert len(set(covered)) == len(covered), "two spans overlap"
    assert set(covered) == _relimited_distances(space, n_before, n_after)


def test_spans_of_an_empty_or_unchanged_ring():
    space = IdSpace(10)
    assert _limit_shift_spans(space, 0, 1) == []
    assert _limit_shift_spans(space, 1, 0) == []
    assert _limit_shift_spans(space, 7, 7) == []


@settings(max_examples=300, deadline=None)
@given(
    bits=st.integers(min_value=3, max_value=12),
    n=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_arc_runs_are_the_members_inside_each_arc(bits, n, seed):
    rng = random.Random(seed)
    space = IdSpace(bits)
    nodes = sorted(rng.sample(range(space.size), min(n, space.size)))
    # Thin, wide, single-identifier and wrapping arcs, and the one from
    # ``lo`` all the way round to ``lo - 1``.
    arcs = [(lo, (lo + rng.choice([0, 1, 2, space.size // 3, space.max_id])) & space.max_id)
            for lo in (rng.randrange(space.size) for _ in range(12))]
    expected = [
        sorted((v for v in nodes if space.cw(lo, v) <= space.cw(lo, hi)),
               key=lambda v: space.cw(lo, v))
        for lo, hi in arcs
    ]
    hits, members = _arc_runs(nodes, arcs)
    assert hits == [i for i, found in enumerate(expected) if found]
    assert members == [found for found in expected if found]


@pytest.mark.parametrize("root_at", ["zero", "max_id", "random"])
@pytest.mark.parametrize("bits", [6, 8, 12])
def test_engine_recomputes_exactly_the_relimited_members(bits, root_at):
    """Per event and tree: parents recomputed = finger owners + joiner +
    brute-force re-limited members, minus the root — and the tree is right."""
    rng = random.Random(bits * 31 + len(root_at))
    space = IdSpace(bits)
    cap = bits - 1
    root = {"zero": 0, "max_id": space.max_id}.get(root_at, rng.randrange(space.size))
    others = [v for v in range(space.size) if v != root]
    ring = StaticRing(space, [root, *rng.sample(others, min(40, space.size // 3))])
    engine = DatUpdateEngine(ring, "balanced")
    engine.track(root)  # the key is the root's own identifier: no handover
    for step in range(120):
        n_before = len(ring)
        if n_before <= 2 or (n_before < 200 and step % 3 != 2):
            kind, ident = "join", rng.choice([v for v in others if v not in ring])
        else:
            kind, ident = "leave", rng.choice([v for v in ring.nodes if v != root])
        report = engine.apply(kind, ident)
        assert report.rebuilt_keys == ()
        old = FingerLimiter.for_ring(bits, n_before)
        new = FingerLimiter.for_ring(bits, len(ring))
        expected = {patch.owner for patch in report.delta.patches}
        expected |= {ident} if kind == "join" else set()
        expected |= {
            v for v in ring.nodes
            if min(old(space.cw(v, root)), cap) != min(new(space.cw(v, root)), cap)
        }
        assert report.reparented == {root: len(expected - {root})}
        reference = build_balanced_dat(StaticRing(space, ring.nodes), root)
        assert engine.tree(root).parent == reference.parent
