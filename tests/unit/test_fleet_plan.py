"""Replay planning: the live Fig. 9 plan and the seeded churn planner.

Everything here is sockets-free: both planners are pure data-in/data-out,
so determinism and membership bookkeeping are checked as plain unit tests.
"""

import pytest

from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.fleet.plan import Fig9ReplayPlan, plan_fleet_fig9
from repro.util.rng import ensure_rng
from repro.workloads.churn import (
    ChurnKind,
    ChurnWorkload,
    PlannedChurnEvent,
    plan_churn,
)

SPACE = IdSpace(16)
SEED = 2007


def build_members(n=16, seed=SEED):
    return list(make_assigner("probing").build_ring(SPACE, n, rng=seed).nodes)


def churn_events(duration, seed):
    """A slow grid-like churn schedule: ~1 membership change per 10 s."""
    return ChurnWorkload(
        duration, join_rate=0.05, leave_rate=0.05, crash_fraction=0.1, seed=seed
    ).generate()


class TestSeedThreading:
    """One seed resolves one event sequence."""

    def test_plan_churn_is_deterministic(self):
        members = build_members()
        events = churn_events(120.0, seed=3)
        first = plan_churn(events, SPACE, members, seed=3)
        second = plan_churn(events, SPACE, members, seed=3)
        assert first == second

    def test_different_seed_different_plan(self):
        members = build_members()
        events = churn_events(120.0, seed=3)
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
        plan = plan_churn(churn_events(600.0, SEED), SPACE, members, seed=SEED, min_nodes=3)
        population = set(members)
        departures = 0
        for event in plan:
            if event.kind is ChurnKind.JOIN:
                population.add(event.ident)
            else:
                assert len(population) > 3  # departure only above the floor
                population.discard(event.ident)
                departures += 1
        assert departures > 0

    def test_departures_target_current_members(self):
        members = build_members(8)
        plan = plan_churn(churn_events(400.0, SEED), SPACE, members, seed=SEED)
        population = set(members)
        for event in plan:
            if event.kind is ChurnKind.JOIN:
                assert event.ident not in population
                population.add(event.ident)
            else:
                assert event.ident in population
                population.discard(event.ident)


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
