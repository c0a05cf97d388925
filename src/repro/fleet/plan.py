"""Pure planning for live-fleet workload replay.

Everything here is deterministic data-in/data-out — no sockets, no
processes, no clocks — so a plan can be unit-tested and only then handed
to :mod:`repro.fleet.replay` for execution against real processes. The
live run and its simulator twin (:mod:`repro.fleet.compare`) derive the
same traces from the plan's seed, so any divergence is implementation
behaviour, not workload noise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chord.hashing import sha1_id
from repro.chord.idspace import IdSpace

__all__ = ["Fig9ReplayPlan", "plan_fleet_fig9"]


@dataclass(frozen=True)
class Fig9ReplayPlan:
    """A live rendition of the Fig. 9 accuracy experiment.

    The same trace fleet the simulator derives from ``(seed, n_nodes)`` is
    regenerated inside every agent (see the agent's ``load_trace`` op);
    ``slot_duration`` is the *wall-clock* dwell per trace slot, chosen so a
    continuous push round (``push_interval``) completes several times per
    slot before the root estimate is sampled.
    """

    seed: int
    n_nodes: int
    n_slots: int
    aggregate: str = "sum"
    attribute: str = "cpu-usage"
    identical_traces: bool = True
    push_interval: float = 0.25
    slot_duration: float = 2.0

    def key(self, space: IdSpace) -> int:
        """The aggregation key: the attribute name hashed into the ring."""
        return sha1_id(self.attribute, space)


def plan_fleet_fig9(
    seed: int,
    n_nodes: int,
    n_slots: int = 8,
    aggregate: str = "sum",
    push_interval: float = 0.25,
    slot_duration: float = 2.0,
) -> Fig9ReplayPlan:
    """Parameterize a live Fig. 9 run (defaults sized for smoke tests)."""
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    return Fig9ReplayPlan(
        seed=int(seed),
        n_nodes=int(n_nodes),
        n_slots=int(n_slots),
        aggregate=aggregate,
        push_interval=float(push_interval),
        slot_duration=float(slot_duration),
    )
