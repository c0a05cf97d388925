"""Unit tests for the incremental DAT maintenance engine."""

import numpy as np
import pytest

from repro.chord.fingers import FingerTable
from repro.chord.idgen import ProbingIdAssigner, RandomIdAssigner
from repro.chord.idspace import IdSpace
from repro.chord.fastbuild import fast_tree_arrays
from repro.chord.incremental import (
    DatUpdateEngine,
    FingerPatch,
    ReverseFingerIndex,
    RingDelta,
    RingMaintainer,
)
from repro.chord.ring import StaticRing
from repro.core.builder import DatScheme, DatTreeBuilder, build_dat
from repro.core.multitree import DatForest
from repro.errors import DuplicateNodeError, TreeError, UnknownNodeError
from repro.workloads.churn import ChurnWorkload, replay_churn


@pytest.fixture
def ring():
    return RandomIdAssigner().build_ring(IdSpace(16), 48, rng=7)


class TestReverseFingerIndex:
    def test_from_tables_covers_all_slots(self, ring):
        tables = ring.all_finger_tables()
        index = ReverseFingerIndex.from_tables(tables)
        assert index.n_slots() == len(ring) * ring.space.bits

    def test_slots_into_matches_tables(self, ring):
        tables = ring.all_finger_tables()
        index = ReverseFingerIndex.from_tables(tables)
        for node in ring:
            for owner, slot in index.slots_into(node):
                assert tables[owner].entries[slot] == node

    def test_move_rehomes_one_slot(self):
        index = ReverseFingerIndex()
        index.add(1, 0, 5)
        index.move(1, 0, 5, 9)
        assert index.slots_into(5) == []
        assert index.slots_into(9) == [(1, 0)]

    def test_discard_drops_empty_buckets(self):
        index = ReverseFingerIndex()
        index.add(1, 0, 5)
        index.discard(1, 0, 5)
        assert index.as_dict() == {}


class TestRingMaintainer:
    def test_initial_state_matches_scratch(self, ring):
        maintainer = RingMaintainer(ring)
        reference = ring.all_finger_tables()
        for node, table in maintainer.tables.items():
            assert table.entries == reference[node].entries
        matrix = maintainer.matrix
        assert matrix is not None
        for row, node in zip(matrix, ring.nodes):
            assert list(row) == reference[node].entries

    def test_join_and_leave_roundtrip(self, ring):
        maintainer = RingMaintainer(ring)
        before = {n: list(t.entries) for n, t in maintainer.tables.items()}
        newcomer = next(
            ident for ident in range(ring.space.size) if ident not in ring
        )
        delta = maintainer.join(newcomer)
        assert delta.is_join and delta.n_after == delta.n_before + 1
        delta = maintainer.leave(newcomer)
        assert not delta.is_join
        after = {n: list(t.entries) for n, t in maintainer.tables.items()}
        assert before == after  # join then leave restores every table

    def test_join_duplicate_rejected(self, ring):
        maintainer = RingMaintainer(ring)
        with pytest.raises(DuplicateNodeError):
            maintainer.join(ring.nodes[0])

    def test_leave_unknown_rejected(self, ring):
        maintainer = RingMaintainer(ring)
        missing = next(
            ident for ident in range(ring.space.size) if ident not in ring
        )
        with pytest.raises(UnknownNodeError):
            maintainer.leave(missing)

    def test_empty_ring_first_join(self):
        space = IdSpace(8)
        ring = StaticRing(space)
        maintainer = RingMaintainer(ring)
        maintainer.join(42)
        assert maintainer.tables[42].entries == [42] * space.bits
        matrix = maintainer.matrix
        assert matrix is not None and matrix.shape == (1, space.bits)

    def test_last_leave_empties_state(self):
        ring = StaticRing(IdSpace(8), [42])
        maintainer = RingMaintainer(ring)
        maintainer.leave(42)
        assert maintainer.tables == {}
        matrix = maintainer.matrix
        assert matrix is not None and matrix.shape[0] == 0

    def test_out_of_band_mutation_triggers_rebuild(self, ring):
        maintainer = RingMaintainer(ring)
        newcomer = next(
            ident for ident in range(ring.space.size) if ident not in ring
        )
        ring.add(newcomer)  # behind the maintainer's back
        other = next(
            ident
            for ident in range(ring.space.size)
            if ident not in ring
        )
        maintainer.join(other)  # must detect the stale version and recover
        reference = ring.all_finger_tables()
        for node, table in maintainer.tables.items():
            assert table.entries == reference[node].entries
        assert set(maintainer.tables) == set(reference)

    def test_adopts_prebuilt_tables(self, ring):
        tables = ring.all_finger_tables()
        maintainer = RingMaintainer(ring, tables=tables)
        assert maintainer.tables is tables  # shared, not copied

    def test_wide_space_has_no_matrix(self):
        ring = StaticRing(IdSpace(160), [1, 2**100, 2**150])
        maintainer = RingMaintainer(ring)
        assert maintainer.matrix is None
        maintainer.join(2**80)
        reference = ring.all_finger_tables()
        for node, table in maintainer.tables.items():
            assert table.entries == reference[node].entries


class TestDatUpdateEngine:
    def test_untracked_key_raises(self, ring):
        engine = DatUpdateEngine(ring)
        with pytest.raises(KeyError):
            engine.tree(123)

    def test_track_and_untrack(self, ring):
        engine = DatUpdateEngine(ring)
        tree = engine.track(123)
        assert engine.tree(123) is tree
        engine.untrack(123)
        with pytest.raises(KeyError):
            engine.tree(123)

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
        assert delta.kind == "crash" and not delta.is_join
        assert victim not in engine.ring

    def test_unknown_kind_rejected(self, ring):
        engine = DatUpdateEngine(ring)
        with pytest.raises(ValueError):
            engine.apply("merge", 1)

    @pytest.mark.parametrize("scheme", [DatScheme.BASIC, DatScheme.BALANCED])
    def test_single_events_bit_identical_at_4096(self, scheme):
        """Acceptance: one join and one leave on a 4096-node ring match the
        full rebuild exactly (the companion benchmark asserts the >= 20x
        speedup on this same configuration)."""
        space = IdSpace(32)
        ring = ProbingIdAssigner().build_ring(space, 4096, rng=11)
        key = 0xDEADBEEF
        engine = DatUpdateEngine(ring, scheme=scheme)
        engine.track(key)
        newcomer = next(
            ident for ident in range(space.size) if ident not in ring
        )
        engine.apply("join", newcomer)
        reference = build_dat(
            StaticRing(space, ring.nodes), key, scheme=scheme, fast=True
        )
        tree = engine.tree(key)
        assert tree.root == reference.root and tree.parent == reference.parent
        engine.apply("leave", ring.nodes[1234])
        reference = build_dat(
            StaticRing(space, ring.nodes), key, scheme=scheme, fast=True
        )
        tree = engine.tree(key)
        assert tree.root == reference.root and tree.parent == reference.parent


class TestPatchTreeReadsOneEntry:
    """``_patch_tree`` indexes slot ``min(floor(log2 x), g(x))`` directly;
    the eligibility test on that one entry is what is left of the scan."""

    @staticmethod
    def _touch(engine, key, owner):
        """A delta that re-parents ``owner`` alone (membership unchanged)."""
        n = len(engine.ring)
        patch = FingerPatch(owner, 0, owner, owner)
        delta = RingDelta("leave", -1, (patch,), n, n)
        return engine._patch_tree(key, engine.tree(key), delta)

    @pytest.mark.parametrize("scheme", [DatScheme.BASIC, DatScheme.BALANCED])
    def test_corrupt_chosen_entry_raises(self, ring, scheme):
        key = 999
        engine = DatUpdateEngine(ring, scheme=scheme)
        tree = engine.track(key)
        root = tree.root
        mask = ring.space.max_id
        # The node farthest from the root: many slots below the chosen one.
        owner = max((n for n in ring if n != root), key=lambda n: (root - n) & mask)
        entries = engine.maintainer.tables[owner].entries
        chosen = entries.index(tree.parent[owner])
        assert chosen > 0
        assert self._touch(engine, key, owner) is not None  # consistent: fine

        good = entries[chosen]
        for bad in (owner, ring.successor_of_node(root)):  # self-loop, overshoot
            entries[chosen] = bad
            with pytest.raises(TreeError):
                self._touch(engine, key, owner)
        entries[chosen] = good

        # Only that entry is read: a lower slot may hold anything.
        entries[0] = owner
        _, count = self._touch(engine, key, owner)
        assert count == 1 and engine.tree(key).parent[owner] == good


class TestBuilderIntegration:
    def test_tree_arrays_after_events_needs_no_maintained_matrix(
        self, ring, monkeypatch
    ):
        def gathered(self):
            raise AssertionError("tree builds must not gather the maintained matrix")

        builder = DatTreeBuilder(ring)
        keys = [7, 7000, 42000]
        builder.build_many(keys)
        rng = np.random.default_rng(2007)
        for step in range(40):
            kind = ("join", "leave", "crash")[int(rng.integers(0, 3))]
            if kind == "join":
                ident = int(rng.integers(0, ring.space.size))
                if ident in ring:
                    continue
            else:
                ident = ring.nodes[int(rng.integers(0, len(ring)))]
            builder.apply_event(kind, ident)
            if step == 0:  # the engine exists from the first event on
                monkeypatch.setattr(RingMaintainer, "matrix", property(gathered))
        fresh = StaticRing(ring.space, ring.nodes)
        for key in keys:
            arrays = builder.tree_arrays(key)
            reference = fast_tree_arrays(fresh, key)
            assert arrays.root == reference.root
            assert np.array_equal(arrays.nodes, reference.nodes)
            assert np.array_equal(arrays.parent_index, reference.parent_index)
            assert arrays.parent_map() == builder.build(key).parent
            assert builder.tree_stats(key) == reference.stats()

    def test_apply_event_patches_built_trees(self, ring):
        builder = DatTreeBuilder(ring)
        keys = [7, 7000, 42000]
        builder.build_many(keys)
        newcomer = next(
            ident for ident in range(ring.space.size) if ident not in ring
        )
        builder.apply_event("join", newcomer)
        builder.apply_event("leave", ring.nodes[0])
        reference_ring = StaticRing(ring.space, ring.nodes)
        for key in keys:
            reference = build_dat(reference_ring, key)
            tree = builder.build(key)
            assert tree.root == reference.root
            assert tree.parent == reference.parent

    def test_finger_matrix_cached_across_keys(self, ring):
        builder = DatTreeBuilder(ring)
        first = builder.finger_matrix
        second = builder.finger_matrix
        assert first is second and first is not None

    def test_build_uses_fast_path_output(self, ring):
        builder = DatTreeBuilder(ring, scheme=DatScheme.BALANCED)
        tree = builder.build(999)
        reference = build_dat(ring, 999, scheme=DatScheme.BALANCED)
        assert tree.root == reference.root
        assert tree.parent == reference.parent

    def test_custom_d0_still_scalar(self, ring):
        builder = DatTreeBuilder(ring)
        custom = builder.build(999, d0=ring.mean_gap() * 2)
        default = builder.build(999)
        assert custom.root == default.root
        assert custom.parent != default.parent or len(ring) <= 2


class TestForestIntegration:
    def test_apply_event_updates_every_tree(self, ring):
        from repro.chord.hashing import sha1_id

        attributes = ["cpu", "mem", "disk"]
        forest = DatForest(ring, attributes)
        newcomer = next(
            ident for ident in range(ring.space.size) if ident not in ring
        )
        report = forest.apply_event("join", newcomer)
        assert report.delta.ident == newcomer
        reference_ring = StaticRing(ring.space, ring.nodes)
        for attribute in attributes:
            reference = build_dat(
                reference_ring, sha1_id(attribute, ring.space)
            )
            tree = forest.tree(attribute)
            assert tree.root == reference.root
            assert tree.parent == reference.parent
        forest.load_report()  # combined-load analysis still works


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


class TestMatrixMaintenance:
    def test_matrix_rows_follow_sorted_order_after_events(self, ring):
        maintainer = RingMaintainer(ring)
        for ident in (3, 60000, 31000):
            if ident not in maintainer.ring:
                maintainer.join(ident)
        maintainer.leave(maintainer.ring.nodes[5])
        matrix = maintainer.matrix
        assert matrix is not None
        reference = np.array(
            [maintainer.ring.finger_entries(n) for n in maintainer.ring.nodes],
            dtype=np.int64,
        )
        assert (matrix == reference).all()
