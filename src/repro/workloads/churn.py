"""Churn workloads: Poisson node arrivals and departures.

The paper credits DAT with "very low overhead during node arrival and
departure" because trees are implicit in Chord state. The churn benchmark
replays these schedules against a live protocol overlay and measures the
maintenance traffic and tree-repair latency.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro import telemetry
from repro.util.rng import ensure_rng
from repro.util.validation import check_non_negative, check_positive

if TYPE_CHECKING:
    from repro.chord.idspace import IdSpace
    from repro.chord.incremental import DatUpdateEngine, DatUpdateReport

__all__ = [
    "ChurnKind",
    "ChurnEvent",
    "ChurnWorkload",
    "PlannedChurnEvent",
    "plan_churn",
    "replay_churn",
]


class ChurnKind(str, Enum):
    """What happens to the node."""

    JOIN = "join"
    LEAVE = "leave"  # graceful departure
    CRASH = "crash"  # fail-stop


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change at a point in (virtual) time."""

    time: float
    kind: ChurnKind


class ChurnWorkload:
    """A Poisson schedule of joins/leaves/crashes over a time horizon.

    Parameters
    ----------
    duration:
        Horizon in seconds.
    join_rate, leave_rate:
        Expected events per second of each kind.
    crash_fraction:
        Fraction of departures that are crashes instead of graceful leaves.
    seed:
        Reproducibility seed.
    """

    def __init__(
        self,
        duration: float,
        join_rate: float = 0.1,
        leave_rate: float = 0.1,
        crash_fraction: float = 0.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        check_positive("duration", duration)
        check_non_negative("join_rate", join_rate)
        check_non_negative("leave_rate", leave_rate)
        if not 0.0 <= crash_fraction <= 1.0:
            raise ValueError(f"crash_fraction must be in [0, 1], got {crash_fraction}")
        self.duration = float(duration)
        self.join_rate = float(join_rate)
        self.leave_rate = float(leave_rate)
        self.crash_fraction = float(crash_fraction)
        self._rng = ensure_rng(seed)

    def _poisson_times(self, rate: float) -> list[float]:
        if rate <= 0:
            return []
        times: list[float] = []
        t = 0.0
        while True:
            t += float(self._rng.exponential(1.0 / rate))
            if t >= self.duration:
                return times
            times.append(t)

    def generate(self) -> list[ChurnEvent]:
        """The full event schedule, time-ordered."""
        events = [ChurnEvent(t, ChurnKind.JOIN) for t in self._poisson_times(self.join_rate)]
        for t in self._poisson_times(self.leave_rate):
            kind = (
                ChurnKind.CRASH
                if self._rng.random() < self.crash_fraction
                else ChurnKind.LEAVE
            )
            events.append(ChurnEvent(t, kind))
        events.sort(key=lambda e: e.time)
        return events


@dataclass(frozen=True)
class PlannedChurnEvent:
    """One membership change resolved onto a concrete identity."""

    time: float
    kind: ChurnKind
    ident: int


def plan_churn(
    events: Iterable[ChurnEvent],
    space: IdSpace,
    initial_members: Sequence[int],
    seed: int | np.random.Generator | None = None,
    min_nodes: int = 2,
) -> list[PlannedChurnEvent]:
    """Resolve a kind-only churn schedule onto concrete identities — purely.

    :class:`ChurnEvent` carries only a kind; resolving *who* joins or
    departs needs the evolving membership, which this planner simulates as
    one sorted list: joins pick an unused random identifier, departures
    a random current member (indexed into the sorted membership), and
    departures that would shrink the ring below ``min_nodes`` are dropped
    without consuming randomness. The RNG consumption is exactly the
    sequence :func:`replay_churn` historically performed against the live
    engine ring, so one ``(seed, schedule)`` resolves one event sequence
    wherever it is applied (``replay_churn``, the perf ledger's
    ``churn_overlay_64``).
    """
    rng = ensure_rng(seed)
    member_set = {int(m) for m in initial_members}
    members = sorted(member_set)
    plan: list[PlannedChurnEvent] = []
    for event in events:
        if event.kind is ChurnKind.JOIN:
            candidate = int(rng.integers(0, space.size))
            while candidate in member_set:
                candidate = int(rng.integers(0, space.size))
            plan.append(PlannedChurnEvent(event.time, event.kind, candidate))
            member_set.add(candidate)
            insort(members, candidate)
        elif len(members) > min_nodes:
            victim = members.pop(int(rng.integers(0, len(members))))
            plan.append(PlannedChurnEvent(event.time, event.kind, victim))
            member_set.discard(victim)
    return plan


def replay_churn(
    engine: DatUpdateEngine,
    events: Iterable[ChurnEvent],
    seed: int | np.random.Generator | None = None,
    min_nodes: int = 2,
) -> list[DatUpdateReport]:
    """Replay a churn schedule against an incremental maintenance engine.

    Identity resolution is delegated to :func:`plan_churn` (same seed, same
    sequence), then each planned event is applied through
    :meth:`~repro.chord.incremental.DatUpdateEngine.apply`, so the engine's
    ring, finger state, and every tracked tree stay current at O(log n)
    expected cost per event. Departures that would shrink the ring below
    ``min_nodes`` are skipped, mirroring the live-overlay experiments.

    Returns the per-event :class:`~repro.chord.incremental.DatUpdateReport`
    list (one entry per event actually applied).
    """
    schedule = list(events)
    plan = plan_churn(
        schedule,
        engine.ring.space,
        engine.ring.nodes,
        seed=seed,
        min_nodes=min_nodes,
    )
    reports: list[DatUpdateReport] = []
    with telemetry.span("churn.replay", min_nodes=min_nodes) as sp:
        for planned in plan:
            reports.append(engine.apply(planned.kind.value, planned.ident))
        if sp is not telemetry.NULL_SPAN:
            sp.set(applied=len(reports), skipped=len(schedule) - len(plan))
    return reports
