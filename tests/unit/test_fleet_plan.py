"""Fleet replay planning: purity, determinism, and — the load-bearing
property — seed threading identical to the in-sim churn replay.

Everything here is sockets-free: the planner is pure data-in/data-out, so
the cross-substrate determinism contract (same ``(seed, scenario)`` ->
same event sequence in the simulator and in the live fleet) is checked as
a plain unit test.
"""

import pytest

from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.chord.incremental import DatUpdateEngine
from repro.fleet.plan import (
    ChurnReplayPlan,
    Fig9ReplayPlan,
    plan_fleet_churn,
    plan_fleet_fig9,
)
from repro.util.rng import ensure_rng
from repro.workloads.churn import (
    ChurnKind,
    ChurnWorkload,
    PlannedChurnEvent,
    plan_churn,
    replay_churn,
)
from repro.workloads.scenarios import scenario

SPACE = IdSpace(16)
SEED = 2007


def build_members(n=16, seed=SEED):
    return list(make_assigner("probing").build_ring(SPACE, n, rng=seed).nodes)


class TestSeedThreading:
    """Satellite: same (seed, scenario) -> identical sequences in-sim vs fleet."""

    @pytest.mark.parametrize("scenario_name", ["grid", "cluster", "planetlab"])
    def test_fleet_plan_matches_sim_replay(self, scenario_name):
        """The fleet planner and the in-sim engine replay must resolve the
        exact same (kind, ident) sequence from one (seed, scenario) pair."""
        members = build_members()
        events = scenario(scenario_name).churn_workload(240.0, seed=SEED).generate()

        # In-sim: replay against a real incremental engine and read the
        # applied deltas back out of the reports.
        ring = make_assigner("probing").build_ring(SPACE, len(members), rng=SEED)
        engine = DatUpdateEngine(ring)
        reports = replay_churn(engine, events, seed=SEED, min_nodes=4)
        sim_sequence = [(r.delta.kind, r.delta.ident) for r in reports]

        # Fleet: pure planning from the identical inputs.
        plan = plan_fleet_churn(
            scenario_name, 240.0, SEED, SPACE, members, min_nodes=4
        )
        op_to_kind = {"join": "join", "leave": "leave", "kill": "crash"}
        fleet_sequence = [(op_to_kind[a.op], a.ident) for a in plan.actions]

        assert fleet_sequence == sim_sequence

    def test_plan_churn_is_deterministic(self):
        members = build_members()
        events = scenario("grid").churn_workload(120.0, seed=3).generate()
        first = plan_churn(events, SPACE, members, seed=3)
        second = plan_churn(events, SPACE, members, seed=3)
        assert first == second

    def test_different_seed_different_plan(self):
        members = build_members()
        events = scenario("grid").churn_workload(120.0, seed=3).generate()
        a = plan_churn(events, SPACE, members, seed=3)
        b = plan_churn(events, SPACE, members, seed=4)
        assert a != b  # identity resolution is seed-driven


def _plan_churn_resorting(events, space, initial_members, seed, min_nodes):
    """``plan_churn`` as first written: the membership re-sorted per event."""
    rng = ensure_rng(seed)
    member_set = {int(m) for m in initial_members}
    plan = []
    for event in events:
        if event.kind is ChurnKind.JOIN:
            ident = int(rng.integers(0, space.size))
            while ident in member_set:
                ident = int(rng.integers(0, space.size))
            member_set.add(ident)
        elif len(member_set) > min_nodes:
            members = sorted(member_set)
            ident = members[int(rng.integers(0, len(members)))]
            member_set.discard(ident)
        else:
            continue
        plan.append(PlannedChurnEvent(event.time, event.kind, ident))
    return plan


class TestSortedMembership:
    """``plan_churn`` edits one sorted list; the plan and the RNG draws are
    those of the version that re-sorted the membership after every event."""

    def test_plan_equals_the_resorting_reference(self):
        # 6-bit spaces make joiners collide with members (extra draws); a
        # floor near the start size makes departures hit ``min_nodes``.
        hit_floor = 0
        for seed in range(60):
            space = IdSpace([6, 10, 16][seed % 3])
            members = list(range(1, space.size, space.size // (8 + seed % 7)))
            min_nodes = [2, len(members) - 1, len(members) + 3][seed // 3 % 3]
            events = ChurnWorkload(
                duration=60.0, join_rate=0.8, leave_rate=1.2, crash_fraction=0.3, seed=seed
            ).generate()
            plan = plan_churn(events, space, members, seed=seed + 1, min_nodes=min_nodes)
            assert plan == _plan_churn_resorting(
                events, space, members, seed + 1, min_nodes
            )
            assert len(plan) > 10
            hit_floor += len(plan) < len(events)
        assert hit_floor >= 20

    def test_unsorted_initial_members_and_exhausted_generator(self):
        events = ChurnWorkload(30.0, join_rate=1.0, leave_rate=1.0, seed=9).generate()
        members = build_members(8)
        shuffled = members[3:] + members[:3]
        assert plan_churn(iter(events), SPACE, shuffled, seed=2) == plan_churn(
            events, SPACE, members, seed=2
        )


class TestChurnPlan:
    def test_min_nodes_floor_respected(self):
        members = build_members(4)
        plan = plan_fleet_churn("grid", 600.0, SEED, SPACE, members, min_nodes=3)
        population = set(members)
        for action in plan.actions:
            if action.op == "join":
                population.add(action.ident)
            else:
                assert len(population) > 3  # departure only above the floor
                population.discard(action.ident)

    def test_final_members_tracks_actions(self):
        members = build_members(8)
        plan = plan_fleet_churn("grid", 300.0, SEED, SPACE, members)
        expected = set(members)
        for action in plan.actions:
            if action.op == "join":
                expected.add(action.ident)
            else:
                expected.discard(action.ident)
        assert plan.final_members() == tuple(sorted(expected))

    def test_departures_target_current_members(self):
        members = build_members(8)
        plan = plan_fleet_churn("grid", 400.0, SEED, SPACE, members)
        population = set(members)
        for action in plan.actions:
            if action.op == "join":
                assert action.ident not in population
                population.add(action.ident)
            else:
                assert action.ident in population
                population.discard(action.ident)

    def test_crashes_map_to_kill(self):
        members = build_members(8)
        # planetlab has a nonzero crash fraction; scan for one.
        events = scenario("planetlab").churn_workload(900.0, seed=5).generate()
        planned = plan_churn(events, SPACE, members, seed=5)
        plan = plan_fleet_churn("planetlab", 900.0, 5, SPACE, members)
        kinds = {a.ident: a.op for a in plan.actions}
        for p in planned:
            if p.kind is ChurnKind.CRASH:
                assert kinds[p.ident] == "kill"

    def test_plan_is_frozen(self):
        plan = plan_fleet_churn("grid", 60.0, SEED, SPACE, build_members(4))
        assert isinstance(plan, ChurnReplayPlan)
        with pytest.raises(AttributeError):
            plan.seed = 1  # type: ignore[misc]


class TestFig9Plan:
    def test_key_is_attribute_hash(self):
        from repro.chord.hashing import sha1_id

        plan = plan_fleet_fig9(seed=SEED, n_nodes=16)
        assert plan.key(SPACE) == sha1_id("cpu-usage", SPACE)

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            plan_fleet_fig9(seed=SEED, n_nodes=16, n_slots=0)

    def test_defaults_are_smoke_sized(self):
        plan = plan_fleet_fig9(seed=SEED, n_nodes=16)
        assert isinstance(plan, Fig9ReplayPlan)
        assert plan.n_slots * plan.slot_duration < 60.0
