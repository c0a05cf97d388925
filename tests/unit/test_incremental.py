"""Unit tests for the incremental DAT maintenance engine."""

import random
import sys
import weakref
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

import repro.chord.incremental as incremental
from repro.chord.hashing import sha1_id
from repro.chord.idgen import ProbingIdAssigner, RandomIdAssigner
from repro.chord.idspace import IdSpace
from repro.chord.fastbuild import fast_finger_matrix, fast_tree_arrays
from repro.chord.incremental import DatUpdateEngine, FingerPatch
from repro.chord.ring import StaticRing
from repro.core.builder import DatScheme, DatTreeBuilder, build_dat
from repro.core.multitree import DatForest
from repro.errors import DuplicateNodeError, UnknownNodeError
from repro.workloads.churn import ChurnWorkload, replay_churn
from tests.oracles import build_balanced_dat, build_basic_dat


@pytest.fixture
def ring():
    return RandomIdAssigner().build_ring(IdSpace(16), 48, rng=7)


def _newcomer(ring):
    return next(ident for ident in range(ring.space.size) if ident not in ring)


def _table_entries(ring):
    return {n: t.entries for n, t in ring.all_finger_tables().items()}


def _seeded_events(ring, count, seed):
    """``count`` join/leave/crash events that apply cleanly to ``ring`` in order."""
    rng = random.Random(seed)
    live = list(ring.nodes)
    known = set(live)
    events = []
    while len(events) < count:
        if rng.random() < 0.5 or len(live) <= 2:
            ident = rng.randrange(ring.space.size)
            if ident in known:
                continue
            known.add(ident)
            live.append(ident)
            events.append(("join", ident))
        else:
            victim = live.pop(rng.randrange(len(live)))
            known.discard(victim)
            events.append((rng.choice(["leave", "crash"]), victim))
    return events


def _eager_patches(ring, ident, join):
    """The patch tuple as it was built per event before the lazy view: two
    bisects per slot, one frozen ``FingerPatch`` per rewritten entry. ``ring``
    holds every member but ``ident``."""
    nodes, mask = ring.nodes, ring.space.max_id
    if not nodes:
        return ()
    successor, after_predecessor = ring.successor(ident), ring.predecessor(ident) + 1
    old, new = (successor, ident) if join else (ident, successor)
    patches = []
    for slot in range(ring.space.bits):
        lo, hi = (after_predecessor - (1 << slot)) & mask, (ident - (1 << slot)) & mask
        if lo <= hi:
            owners = nodes[bisect_left(nodes, lo) : bisect_right(nodes, hi)]
        else:
            owners = nodes[bisect_left(nodes, lo) :] + nodes[: bisect_right(nodes, hi)]
        patches.extend(FingerPatch(owner, slot, old, new) for owner in owners)
    return tuple(patches)


class TestRingMaintainer:
    """Ring maintenance through ``DatUpdateEngine.apply``: the ring is the
    only finger state, so each case checks the event's delta and the ring."""

    def test_initial_state_matches_scratch(self, ring):
        scalar_builders = {"basic": build_basic_dat, "balanced": build_balanced_dat}
        for scheme, scalar in scalar_builders.items():
            engine = DatUpdateEngine(ring, scheme=scheme)
            assert engine.trees == {}  # nothing but the ring until a key is tracked
            tree = engine.track(999)
            reference = scalar(ring, 999)
            assert tree.root == reference.root and tree.parent == reference.parent

    def test_join_and_leave_roundtrip(self, ring):
        engine = DatUpdateEngine(ring)
        before = _table_entries(ring)
        newcomer = _newcomer(ring)
        joined = engine.apply("join", newcomer).delta
        assert joined.kind == "join" and joined.n_after == joined.n_before + 1
        for patch in joined.patches:  # every patch is a real table change
            assert before[patch.owner][patch.slot] == patch.old
            assert patch.new == newcomer
        left = engine.apply("leave", newcomer).delta
        assert left.kind == "leave" and left.n_after == left.n_before - 1
        # The leave undoes exactly the slots the join rewrote.
        undone = {(p.owner, p.slot, p.new, p.old) for p in left.patches}
        assert undone == {(p.owner, p.slot, p.old, p.new) for p in joined.patches}
        assert _table_entries(ring) == before

    def test_join_duplicate_rejected(self, ring):
        engine = DatUpdateEngine(ring)
        with pytest.raises(DuplicateNodeError):
            engine.apply("join", ring.nodes[0])
        assert len(ring) == 48

    def test_leave_unknown_rejected(self, ring):
        engine = DatUpdateEngine(ring)
        with pytest.raises(UnknownNodeError):
            engine.apply("leave", _newcomer(ring))
        assert len(ring) == 48

    def test_empty_ring_first_join(self):
        ring = StaticRing(IdSpace(8))
        engine = DatUpdateEngine(ring)
        report = engine.apply("join", 42)
        assert report.delta.patches == () and report.delta.n_before == 0
        assert ring.nodes == [42]
        tree = engine.track(7)
        assert tree.root == 42 and tree.parent == {}

    def test_last_leave_empties_state(self):
        ring = StaticRing(IdSpace(8), [42])
        engine = DatUpdateEngine(ring)
        engine.track(7)
        report = engine.apply("leave", 42)
        assert report.delta.patches == () and report.delta.n_after == 0
        assert len(ring) == 0 and engine.trees == {}
        engine.apply("join", 9)  # the key stayed tracked and rematerializes
        assert engine.tree(7).root == 9

    def test_out_of_band_mutation_triggers_rebuild(self, caplog):
        """Regression: a ring mutated behind the engine used to leave every
        tracked tree stale (64 parent entries against the rebuild's 65)."""
        ring = ProbingIdAssigner().build_ring(IdSpace(24), 64, rng=2)
        engine = DatUpdateEngine(ring)
        engine.track(123)
        ring.add(5_000_001)  # behind the engine's back
        with caplog.at_level("WARNING"):
            report = engine.apply("join", 9_000_001)
        reference = build_balanced_dat(StaticRing(ring.space, ring.nodes), 123)
        assert len(reference.parent) == 65
        tree = engine.tree(123)
        assert tree.root == reference.root and tree.parent == reference.parent
        assert report.rebuilt_keys == (123,)
        assert "mutated outside the engine" in caplog.text
        # Back in step: the next event patches instead of rebuilding.
        assert engine.apply("leave", 5_000_001).rebuilt_keys == ()
        reference = build_balanced_dat(StaticRing(ring.space, ring.nodes), 123)
        assert engine.tree(123).parent == reference.parent


class TestPatchView:
    """``delta.patches`` is a lazy sequence over ``(slot, owners)`` runs."""

    @pytest.mark.parametrize("bits,n", [(5, 12), (16, 48), (32, 300)])
    def test_equals_the_eager_tuple_on_seeded_events(self, bits, n):
        ring = RandomIdAssigner().build_ring(IdSpace(bits), n, rng=5)
        engine = DatUpdateEngine(ring)
        for kind, ident in _seeded_events(ring, 100, seed=bits):
            without = StaticRing(ring.space, [v for v in ring.nodes if v != ident])
            expected = _eager_patches(without, ident, kind == "join")
            report = engine.apply(kind, ident)
            patches = report.delta.patches
            assert patches == expected and expected == tuple(patches)
            assert len(patches) == len(expected) == report.finger_updates
            assert list(patches) == list(expected)  # same order, twice iterable
            assert patches[-1] == expected[-1] and patches[:3] == expected[:3]

    def test_order_is_slot_major_and_along_the_arc(self):
        # 4-bit ring: joining 6 between 2 and 9 rewrites slot j of the owners
        # in (2 - 2^j, 6 - 2^j]. For slot 2 that is (14, 2], which wraps past
        # 0: its owners run along the arc, 15 then 0 then 2.
        ring = StaticRing(IdSpace(4), [0, 2, 9, 11, 15])
        patches = DatUpdateEngine(ring).apply("join", 6).delta.patches
        assert [(p.slot, p.owner) for p in patches] == [
            (0, 2), (1, 2), (2, 15), (2, 0), (2, 2), (3, 11),
        ]
        assert {(p.old, p.new) for p in patches} == {(9, 6)}
        assert patches != () and patches != tuple(patches)[:-1]

    def test_empty_views_equal_the_empty_tuple(self):
        ring = StaticRing(IdSpace(8))
        engine = DatUpdateEngine(ring)
        first = engine.apply("join", 42).delta.patches
        last = engine.apply("leave", 42).delta.patches
        for patches in (first, last):
            assert patches == () and len(patches) == 0 and list(patches) == []


class TestEventCost:
    """What one membership event costs, counted rather than timed.

    200 steady-state events at n = 4096 with four balanced trees, every call
    made — Python or builtin — divided by the events. The arc scans cost one
    bisect per arc and a second one per hit, the predecessor's prefix of
    slots none, an owner's parent no call (the owner rule), the joiner's
    and a re-limited member's three, and what does not depend on the tree
    is done once per event: about 220 calls and 6 parents. Recomputing
    every owner's parent with a bisect made it ~360 calls and ~36 parents;
    two bisects plus two slices per arc, a ``FingerPatch`` per rewritten
    entry and a ``ring.successor`` per tree made it 1 090.
    """

    N_NODES = 4096
    MAX_CALLS_PER_EVENT = 280
    MAX_PARENTS_PER_EVENT = 10

    def test_steady_state_event_call_count(self, monkeypatch):
        space = IdSpace(32)
        ring = ProbingIdAssigner().build_ring(space, self.N_NODES, rng=3)
        engine = DatUpdateEngine(ring, "balanced")
        for index in range(4):
            engine.track(sha1_id(f"attr-{index}", space))
        events = _seeded_events(ring, 300, seed=4)
        for kind, ident in events[:100]:
            engine.apply(kind, ident)

        built = []
        monkeypatch.setattr(
            incremental, "FingerPatch", lambda *fields: built.append(fields) or fields
        )
        counts = {"call": 0, "c_call": 0}

        def profile(frame, event, arg):
            if event in counts:
                counts[event] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            reports = [engine.apply(kind, ident) for kind, ident in events[100:]]
        finally:
            sys.setprofile(previous)
        per_event = (counts["call"] + counts["c_call"]) / len(reports)
        assert per_event < self.MAX_CALLS_PER_EVENT, counts
        parents = sum(report.parent_updates for report in reports) / len(reports)
        assert parents < self.MAX_PARENTS_PER_EVENT, parents
        assert sum(report.finger_updates for report in reports) > 200 * 20
        assert built == []  # counted, never constructed ...
        assert len(list(reports[0].delta.patches)) == reports[0].finger_updates
        assert len(built) == reports[0].finger_updates  # ... until somebody reads one


class TestDatUpdateEngine:
    def test_untracked_key_raises(self, ring):
        engine = DatUpdateEngine(ring)
        with pytest.raises(KeyError):
            engine.tree(123)

    def test_track_returns_the_maintained_tree(self, ring):
        engine = DatUpdateEngine(ring)
        tree = engine.track(123)
        assert engine.tree(123) is tree

    def test_root_handover_forces_rebuild(self):
        space = IdSpace(12)
        ring = StaticRing(space, [100, 2000, 3000])
        engine = DatUpdateEngine(ring)
        key = 150
        engine.track(key)
        assert engine.tree(key).root == 2000
        report = engine.apply("join", 200)  # new successor(150) => handover
        assert key in report.rebuilt_keys
        assert engine.tree(key).root == 200

    def test_report_counts(self, ring):
        engine = DatUpdateEngine(ring)
        engine.track(5)
        newcomer = next(
            ident for ident in range(ring.space.size) if ident not in ring
        )
        report = engine.apply("join", newcomer)
        assert report.finger_updates == len(report.delta.patches)
        assert report.parent_updates >= 0
        assert report.reparented.keys() == {5}

    def test_crash_is_leave(self, ring):
        engine = DatUpdateEngine(ring)
        victim = ring.nodes[3]
        delta = engine.apply("crash", victim).delta
        assert delta.kind == "crash" and delta.n_after == delta.n_before - 1
        assert victim not in engine.ring

    def test_unknown_kind_rejected(self, ring):
        engine = DatUpdateEngine(ring)
        with pytest.raises(ValueError):
            engine.apply("merge", 1)

    @pytest.mark.parametrize("scheme", [DatScheme.BASIC, DatScheme.BALANCED])
    def test_single_events_bit_identical_at_4096(self, scheme):
        """Acceptance: one join and one leave on a 4096-node ring match the
        full rebuild exactly (the companion benchmark gates the per-event
        cost ratio on this same configuration)."""
        space = IdSpace(32)
        ring = ProbingIdAssigner().build_ring(space, 4096, rng=11)
        key = 0xDEADBEEF
        engine = DatUpdateEngine(ring, scheme=scheme)
        engine.track(key)
        newcomer = next(
            ident for ident in range(space.size) if ident not in ring
        )
        engine.apply("join", newcomer)
        reference = build_dat(StaticRing(space, ring.nodes), key, scheme=scheme)
        tree = engine.tree(key)
        assert tree.root == reference.root and tree.parent == reference.parent
        engine.apply("leave", ring.nodes[1234])
        reference = build_dat(StaticRing(space, ring.nodes), key, scheme=scheme)
        tree = engine.tree(key)
        assert tree.root == reference.root and tree.parent == reference.parent


class TestBuilderIntegration:
    def test_tree_arrays_after_events_needs_no_maintained_matrix(
        self, ring, monkeypatch
    ):
        import repro.chord.fastbuild as fastbuild

        def refuse(ring):
            raise AssertionError("events and tree builds must not build a finger matrix")

        monkeypatch.setattr(fastbuild, "fast_finger_matrix", refuse)
        builder = DatTreeBuilder(ring)
        keys = [7, 7000, 42000]
        builder.build_many(keys)
        engine = DatUpdateEngine(ring)
        for key in keys:
            engine.track(key)
        for kind, ident in _seeded_events(ring, 40, seed=2007):
            engine.apply(kind, ident)
        fresh = StaticRing(ring.space, ring.nodes)
        for key in keys:
            arrays = builder.tree_arrays(key)
            reference = fast_tree_arrays(fresh, key)
            assert arrays.root == reference.root
            assert np.array_equal(arrays.nodes, reference.nodes)
            assert np.array_equal(arrays.parent_index, reference.parent_index)
            assert arrays.parent_map() == builder.build(key).parent
            assert builder.tree_stats(key) == reference.stats()

    def test_finger_matrix_is_equal_per_read_and_not_retained(self, ring):
        builder = DatTreeBuilder(ring)
        first = builder.finger_matrix
        second = builder.finger_matrix
        assert first is not None
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, fast_finger_matrix(ring))
        # The builder holds no reference: the caller's is the last one.
        gone = weakref.ref(first)
        del first
        assert gone() is None

    def test_build_uses_fast_path_output(self, ring):
        builder = DatTreeBuilder(ring, scheme=DatScheme.BALANCED)
        tree = builder.build(999)
        reference = build_dat(ring, 999, scheme=DatScheme.BALANCED)
        assert tree.root == reference.root
        assert tree.parent == reference.parent

    def test_custom_d0_still_scalar(self, ring):
        builder = DatTreeBuilder(ring)
        custom = builder.build(999, d0=ring.space.size / len(ring) * 2)
        default = builder.build(999)
        assert custom.root == default.root
        assert custom.parent != default.parent or len(ring) <= 2


class TestForestIntegration:
    def test_attribute_keys_are_hashed_once(self, ring, monkeypatch):
        import repro.core.multitree as multitree

        forest = DatForest(ring, ["cpu", "mem"])

        def refuse(attribute, space):
            raise AssertionError("attribute keys are hashed in __init__ only")

        monkeypatch.setattr(multitree, "sha1_id", refuse)
        assert forest.trees.keys() == {"cpu", "mem"}


class TestChurnReplay:
    def test_replay_keeps_engine_consistent(self, ring):
        engine = DatUpdateEngine(ring)
        engine.track(777)
        workload = ChurnWorkload(
            duration=20.0, join_rate=1.0, leave_rate=1.0,
            crash_fraction=0.25, seed=3,
        )
        reports = replay_churn(engine, workload.generate(), seed=4)
        assert reports  # some events were applied
        reference_ring = StaticRing(ring.space, engine.ring.nodes)
        reference = build_dat(reference_ring, 777)
        tree = engine.tree(777)
        assert tree.root == reference.root
        assert tree.parent == reference.parent

    def test_replay_respects_min_nodes(self):
        space = IdSpace(10)
        engine = DatUpdateEngine(StaticRing(space, [1, 500]))
        workload = ChurnWorkload(
            duration=30.0, join_rate=0.0, leave_rate=2.0, seed=5
        )
        replay_churn(engine, workload.generate(), seed=6, min_nodes=2)
        assert len(engine.ring) == 2  # departures below the floor skipped
