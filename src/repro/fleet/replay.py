"""Execute workload plans against a live fleet.

The replay layer is the thin async boundary between pure plans
(:mod:`repro.fleet.plan`) and real processes: it sleeps real seconds,
issues control ops through the :class:`~repro.fleet.supervisor.
FleetSupervisor`, and records what actually happened so
:mod:`repro.fleet.compare` can hold the live run against the simulator's
answer for the same seed.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.chord.ring import StaticRing
from repro.core.aggregates import get_aggregate
from repro.errors import FleetError
from repro.fleet.plan import Fig9ReplayPlan
from repro.fleet.supervisor import FleetSupervisor
from repro.gma.traces import TraceGenerator

__all__ = ["Fig9LiveResult", "replay_fig9_live"]


@dataclass
class Fig9LiveResult:
    """Per-slot live accuracy series plus fleet-wide traffic accounting."""

    plan: Fig9ReplayPlan
    root: int = 0
    key: int = 0
    times: list[float] = field(default_factory=list)
    actual: list[float] = field(default_factory=list)
    aggregated: list[float] = field(default_factory=list)
    total_pushes: int = 0
    per_node_sent: dict[int, int] = field(default_factory=dict)
    per_node_received: dict[int, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def total_messages(self) -> int:
        return sum(self.per_node_sent.values())

    def imbalance(self) -> float:
        """max/mean send+receive load across nodes (1.0 = perfectly even)."""
        totals = [
            self.per_node_sent.get(i, 0) + self.per_node_received.get(i, 0)
            for i in set(self.per_node_sent) | set(self.per_node_received)
        ]
        if not totals:
            return 0.0
        mean = sum(totals) / len(totals)
        return max(totals) / mean if mean > 0 else 0.0


async def replay_fig9_live(
    supervisor: FleetSupervisor, plan: Fig9ReplayPlan
) -> Fig9LiveResult:
    """Run the Fig. 9 accuracy workload on the live fleet.

    Every agent regenerates the same deterministic trace fleet from
    ``(seed, n_nodes)`` and keeps the trace at its sorted-ring position —
    the exact node->trace mapping :func:`~repro.experiments.fig9_accuracy.
    run_fig9_accuracy` uses — then pushes continuously toward the key's
    root. Per slot, the supervisor advances every agent's trace cursor,
    dwells ``slot_duration`` real seconds (several push periods), and
    samples the root's estimate. Ground truth is computed supervisor-side
    from the same traces, so live error is directly comparable to the
    simulator's Fig. 9 series.
    """
    members = supervisor.live_idents()
    if len(members) < 2:
        raise FleetError(f"fig9 replay needs at least 2 live agents, got {len(members)}")
    started = time.monotonic()
    space = supervisor.space
    ring = StaticRing.from_sorted_ids(space, members)
    key = plan.key(space)
    root = ring.successor(key)
    result = Fig9LiveResult(plan=plan, root=root, key=key)
    aggregate = get_aggregate(plan.aggregate)

    # Same derivation as the agents run locally: index == sorted position.
    traces = TraceGenerator(seed=plan.seed).generate_fleet(
        plan.n_nodes, identical=plan.identical_traces
    )
    n_slots = min(plan.n_slots, traces[0].n_slots)
    await asyncio.gather(
        *(
            supervisor.agents[ident].call(
                "load_trace",
                {
                    "seed": plan.seed,
                    "index": index,
                    "n": plan.n_nodes,
                    "identical": plan.identical_traces,
                },
            )
            for index, ident in enumerate(members)
        )
    )
    await supervisor.broadcast(
        "start_continuous",
        {
            "key": key,
            "root": root,
            "aggregate": plan.aggregate,
            "interval": plan.push_interval,
        },
    )
    try:
        for slot in range(n_slots):
            await supervisor.broadcast("set_slot", {"slot": slot})
            await asyncio.sleep(plan.slot_duration)
            reading = await supervisor.agents[root].call("read_estimate", {"key": key})
            truth = aggregate.aggregate(t.at_slot(slot) for t in traces[:len(members)])
            result.times.append(slot * traces[0].period)
            result.actual.append(float(truth))
            estimate = reading.get("estimate")
            result.aggregated.append(float(estimate) if estimate is not None else 0.0)
    finally:
        # Snapshot before stop_continuous: stopping discards the per-key
        # state (and with it the push counters).
        statuses = await supervisor.statuses()
        await supervisor.broadcast("stop_continuous", {"key": key})
    for ident, status in statuses.items():
        result.per_node_sent[ident] = int(status.get("sent", 0))
        result.per_node_received[ident] = int(status.get("received", 0))
        result.total_pushes += sum(int(v) for v in status.get("pushes", {}).values())
    result.wall_seconds = time.monotonic() - started
    return result
