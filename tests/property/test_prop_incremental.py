"""Property tests: incremental maintenance is bit-identical to rebuilds.

Random join/leave/crash sequences drive a :class:`DatUpdateEngine`; after
*every* event each tracked tree's root and parent map — the engine's only
state besides the ring — is compared against the finger-table oracle's
from-scratch build of the same membership. Any divergence is a bug in the
incremental engine. The finger patches an event reports are checked
against table diffs in ``test_prop_finger_patches.py``.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.idspace import IdSpace
from repro.chord.incremental import DatUpdateEngine
from repro.chord.ring import StaticRing
from repro.core.builder import DatScheme
from tests.oracles import build_balanced_dat, build_basic_dat

SCALAR_BUILDERS = {
    DatScheme.BASIC: build_basic_dat,
    DatScheme.BALANCED: build_balanced_dat,
}


def _random_event(rng, live, size):
    """Pick the next membership event given the current live set."""
    if live and (len(live) > 2 and rng.random() < 0.45):
        ident = rng.choice(sorted(live))
        return rng.choice(["leave", "crash"]), ident
    while True:
        ident = rng.randrange(size)
        if ident not in live:
            return "join", ident


def _assert_state_matches(engine, space, live, keys, scheme, step):
    assert engine.ring.nodes == sorted(live), step
    if not live:
        assert engine.trees == {}, step
        return
    ref_ring = StaticRing(space, sorted(live))
    for key in keys:
        tree = engine.tree(key)
        ref_tree = SCALAR_BUILDERS[scheme](ref_ring, key)
        assert tree.root == ref_tree.root, (step, key)
        assert tree.parent == ref_tree.parent, (step, key)


def _churn_and_compare(bits, n_initial, n_events, seed, scheme, adopted=False):
    rng = random.Random(seed)
    space = IdSpace(bits)
    live = set()
    while len(live) < max(min(n_initial, space.size // 4), 1):
        live.add(rng.randrange(space.size))
    idents = sorted(live)
    keys = [rng.randrange(space.size) for _ in range(3)]

    ring = StaticRing.from_sorted_ids(space, idents) if adopted else StaticRing(space, idents)
    engine = DatUpdateEngine(ring, scheme=scheme)
    for key in keys:
        engine.track(key)

    for step in range(n_events):
        kind, ident = _random_event(rng, live, space.size)
        if kind == "join":
            live.add(ident)
        else:
            live.discard(ident)
        engine.apply(kind, ident)
        _assert_state_matches(engine, space, live, keys, scheme, step)


@settings(max_examples=20, deadline=None)
@given(
    bits=st.integers(min_value=8, max_value=18),
    n_initial=st.integers(min_value=1, max_value=24),
    n_events=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scheme=st.sampled_from([DatScheme.BASIC, DatScheme.BALANCED]),
)
def test_random_churn_matches_rebuild_after_every_event(
    bits, n_initial, n_events, seed, scheme
):
    _churn_and_compare(bits, n_initial, n_events, seed, scheme)


@settings(max_examples=10, deadline=None)
@given(
    n_initial=st.integers(min_value=1, max_value=24),
    n_events=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scheme=st.sampled_from([DatScheme.BASIC, DatScheme.BALANCED]),
)
def test_random_churn_on_array_backed_ring(n_initial, n_events, seed, scheme):
    """The ring starts as an adopted ``int64`` vector (``from_sorted_ids``)."""
    _churn_and_compare(24, n_initial, n_events, seed, scheme, adopted=True)


@settings(max_examples=10, deadline=None)
@given(
    n_events=st.integers(min_value=5, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_drain_to_empty_and_regrow(n_events, seed):
    """The engine survives the ring emptying completely and refilling."""
    rng = random.Random(seed)
    space = IdSpace(10)
    idents = rng.sample(range(space.size), 3)
    live = set(idents)
    key = rng.randrange(space.size)
    engine = DatUpdateEngine(StaticRing(space, idents))
    engine.track(key)

    for ident in sorted(live):
        engine.apply("leave", ident)
    live.clear()
    assert len(engine.ring) == 0

    for step in range(n_events):
        kind, ident = _random_event(rng, live, space.size)
        if kind == "join":
            live.add(ident)
        else:
            live.discard(ident)
        engine.apply(kind, ident)
        _assert_state_matches(
            engine, space, live, [key], DatScheme.BALANCED, step
        )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_events=st.integers(min_value=1, max_value=25),
)
def test_tracked_tree_equals_the_oracle_after_every_event(seed, n_events):
    """A 12-member ring in a 12-bit space, one tracked key: after every event
    the engine's tree equals the oracle's rebuild of the same membership."""
    rng = random.Random(seed)
    space = IdSpace(12)
    idents = rng.sample(range(space.size), 12)
    live = set(idents)
    key = rng.randrange(space.size)
    engine = DatUpdateEngine(StaticRing(space, idents))
    engine.track(key)
    for step in range(n_events):
        kind, ident = _random_event(rng, live, space.size)
        live.add(ident) if kind == "join" else live.discard(ident)
        engine.apply(kind, ident)
        _assert_state_matches(engine, space, live, [key], DatScheme.BALANCED, step)
