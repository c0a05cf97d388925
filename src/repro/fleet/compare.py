"""Cross-validate a live fleet run against the simulator, same seed.

The paper's prototype claim (Sec. 5.1) is that the RPC-based deployment
and the simulator "indeed have the consistent results for the metrics we
measured". This module operationalizes that claim for the fleet harness:

1. :func:`run_fig9_sim_twin` re-runs the *exact* live workload — same
   membership, same seeded traces, same key/root/aggregate/push
   interval — on the discrete-event :class:`~repro.sim.simnet.
   SimTransport` in virtual time, through the very same
   :class:`~repro.core.service.DatNodeService` code the agents run.
2. :func:`compare_fig9` holds the live series and traffic against the
   twin and emits a :class:`FleetComparisonReport` with named checks.

Documented tolerances (see ``docs/FLEET.md`` for the rationale):

* **accuracy** — live per-slot relative error vs ground truth, after a
  one-slot warm-up, must stay within ``accuracy_tol`` (default 10%; the
  sim twin is exact for identical traces, while live staleness is tree
  depth x push interval plus real scheduling jitter — on a loaded
  single-core host, timer drift can hold one child's contribution a
  round behind at sampling time).
* **pushes** — live total pushes / sim total pushes must land in
  ``[push_ratio_low, push_ratio_high]`` (default 0.5–2.0x; wall-clock
  timers on a loaded host drift where virtual time does not).
* **imbalance** — live max/mean message load may exceed the sim twin's by
  at most ``imbalance_factor`` (default 2.0x; the skew *shape* — the root
  and its children carrying the most — must match, the exact ratio is
  scheduling-sensitive).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.core.aggregates import get_aggregate
from repro.core.service import DatNodeService, StandaloneDatHost
from repro.fleet.plan import Fig9ReplayPlan
from repro.fleet.replay import Fig9LiveResult
from repro.gma.traces import TraceGenerator
from repro.sim.latency import ConstantLatency
from repro.sim.simnet import SimTransport

__all__ = [
    "Fig9SimResult",
    "FleetComparisonReport",
    "run_fig9_sim_twin",
    "compare_fig9",
]


@dataclass
class Fig9SimResult:
    """The simulator twin's per-slot series and traffic accounting."""

    root: int = 0
    key: int = 0
    actual: list[float] = field(default_factory=list)
    aggregated: list[float] = field(default_factory=list)
    total_pushes: int = 0
    total_messages: int = 0
    imbalance: float = 0.0


@dataclass(frozen=True)
class CheckResult:
    """One named pass/fail comparison with its evidence."""

    name: str
    ok: bool
    detail: str


@dataclass
class FleetComparisonReport:
    """Live-vs-simulator verdict for one replayed workload."""

    n_nodes: int
    n_slots: int
    seed: int
    checks: list[CheckResult] = field(default_factory=list)
    live_metrics: dict[str, Any] = field(default_factory=dict)
    sim_metrics: dict[str, Any] = field(default_factory=dict)
    tolerances: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)

    def to_json(self) -> str:
        return json.dumps(
            {
                "passed": self.passed,
                "n_nodes": self.n_nodes,
                "n_slots": self.n_slots,
                "seed": self.seed,
                "checks": [
                    {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks
                ],
                "live": self.live_metrics,
                "sim": self.sim_metrics,
                "tolerances": self.tolerances,
            },
            indent=2,
            sort_keys=True,
        )

    def render_text(self) -> str:
        lines = [
            f"fleet comparison: n={self.n_nodes} slots={self.n_slots} seed={self.seed}",
            f"verdict: {'PASS' if self.passed else 'FAIL'}",
        ]
        for check in self.checks:
            lines.append(f"  [{'ok' if check.ok else 'FAIL'}] {check.name}: {check.detail}")
        return "\n".join(lines)


def run_fig9_sim_twin(
    members: Sequence[int],
    plan: Fig9ReplayPlan,
    space: IdSpace,
    scheme: str = "balanced",
) -> Fig9SimResult:
    """Replay the live fig-9 workload on the DES transport, virtual time.

    Uses converged finger tables over the live membership (a settled fleet
    has the same), the identical seeded traces at the identical sorted-ring
    positions, and the same service layer — so the only degrees of freedom
    left when comparing are the substrates themselves.
    """
    ring = StaticRing.from_sorted_ids(space, sorted(int(m) for m in members))
    tables = ring.all_finger_tables()
    traces = TraceGenerator(seed=plan.seed).generate_fleet(
        plan.n_nodes, identical=plan.identical_traces
    )
    if len(ring.nodes) > len(traces):
        raise ValueError(
            f"membership of {len(ring.nodes)} exceeds the trace fleet of {len(traces)}"
        )
    cursor = {"slot": 0}
    sim = SimTransport(latency=ConstantLatency(0.001))
    services: dict[int, DatNodeService] = {}
    for index, node in enumerate(ring):
        host = StandaloneDatHost(node, space, sim)
        services[node] = DatNodeService(
            host,
            finger_provider=lambda node=node: tables[node],
            value_provider=lambda index=index: traces[index].at_slot(cursor["slot"]),
            scheme=scheme,
            d0_provider=lambda: space.size / len(ring.nodes),
            predecessor_provider=lambda node=node: ring.predecessor_of_node(node),
        )
    key = plan.key(space)
    root = ring.successor(key)
    result = Fig9SimResult(root=root, key=key)
    aggregate = get_aggregate(plan.aggregate)
    n_slots = min(plan.n_slots, traces[0].n_slots)
    for service in services.values():
        service.start_continuous(key, root, plan.aggregate, interval=plan.push_interval)
    now = 0.0
    for slot in range(n_slots):
        cursor["slot"] = slot
        now += plan.slot_duration
        sim.run(until=now)
        truth = aggregate.aggregate(t.at_slot(slot) for t in traces[:len(ring.nodes)])
        estimate = services[root].root_estimate(key)
        result.actual.append(float(truth))
        result.aggregated.append(float(estimate) if estimate is not None else 0.0)
    for service in services.values():
        # Count before stopping: stop_continuous discards the per-key state.
        result.total_pushes += sum(
            state.pushes_sent for state in service._continuous.values()
        )
        service.stop_continuous(key)
        service.close()
    sim.run(until=now + 1.0)  # drain cancelled-timer residue deterministically
    result.total_messages = sim.stats.total_messages()
    result.imbalance = float(sim.stats.imbalance())
    return result


def _relative_errors(actual: Sequence[float], estimated: Sequence[float]) -> list[float]:
    errors = []
    for truth, estimate in zip(actual, estimated):
        scale = abs(truth) if abs(truth) > 1e-12 else 1.0
        errors.append(abs(estimate - truth) / scale)
    return errors


def compare_fig9(
    live: Fig9LiveResult,
    sim: Fig9SimResult,
    accuracy_tol: float = 0.1,
    push_ratio_low: float = 0.5,
    push_ratio_high: float = 2.0,
    imbalance_factor: float = 2.0,
    warmup_slots: int = 1,
) -> FleetComparisonReport:
    """Hold the live run against its simulator twin, check by check."""
    plan = live.plan
    report = FleetComparisonReport(
        n_nodes=plan.n_nodes,
        n_slots=len(live.aggregated),
        seed=plan.seed,
        tolerances={
            "accuracy_tol": accuracy_tol,
            "push_ratio_low": push_ratio_low,
            "push_ratio_high": push_ratio_high,
            "imbalance_factor": imbalance_factor,
        },
    )
    warmup = min(warmup_slots, max(len(live.aggregated) - 1, 0))
    live_errors = _relative_errors(live.actual, live.aggregated)[warmup:]
    sim_errors = _relative_errors(sim.actual, sim.aggregated)[warmup:]
    live_max_err = max(live_errors) if live_errors else float("inf")
    sim_max_err = max(sim_errors) if sim_errors else float("inf")
    live_imbalance = live.imbalance()

    report.live_metrics = {
        "max_relative_error": live_max_err,
        "total_pushes": live.total_pushes,
        "total_messages": live.total_messages(),
        "imbalance": live_imbalance,
        "wall_seconds": round(live.wall_seconds, 2),
        "root": live.root,
    }
    report.sim_metrics = {
        "max_relative_error": sim_max_err,
        "total_pushes": sim.total_pushes,
        "total_messages": sim.total_messages,
        "imbalance": sim.imbalance,
        "root": sim.root,
    }

    report.checks.append(
        CheckResult(
            "same_root",
            live.root == sim.root and live.key == sim.key,
            f"live root {live.root} vs sim root {sim.root} for key {live.key}",
        )
    )
    report.checks.append(
        CheckResult(
            "live_accuracy",
            live_max_err <= accuracy_tol,
            f"live max relative error {live_max_err:.4f} (tol {accuracy_tol})",
        )
    )
    report.checks.append(
        CheckResult(
            "sim_accuracy",
            sim_max_err <= accuracy_tol,
            f"sim max relative error {sim_max_err:.4f} (tol {accuracy_tol})",
        )
    )
    push_ratio = live.total_pushes / sim.total_pushes if sim.total_pushes else float("inf")
    report.checks.append(
        CheckResult(
            "push_volume",
            push_ratio_low <= push_ratio <= push_ratio_high,
            f"live/sim push ratio {push_ratio:.2f} "
            f"(live {live.total_pushes}, sim {sim.total_pushes}, "
            f"window [{push_ratio_low}, {push_ratio_high}])",
        )
    )
    imbalance_ok = (
        live_imbalance <= imbalance_factor * sim.imbalance if sim.imbalance > 0 else True
    )
    report.checks.append(
        CheckResult(
            "load_imbalance",
            imbalance_ok,
            f"live imbalance {live_imbalance:.2f} vs sim {sim.imbalance:.2f} "
            f"(factor <= {imbalance_factor})",
        )
    )
    return report
