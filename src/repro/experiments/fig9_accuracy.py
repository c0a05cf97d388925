"""Fig. 9 — accuracy of Grid resource monitoring (paper Sec. 5.4).

A 512-node Grid replays a 2-hour CPU-usage trace; the DAT aggregates the
global total (and average) per time slot, which is compared against ground
truth. The paper shows the aggregated series tracking the actual one
(Fig. 9a) and the actual-vs-aggregated scatter hugging the diagonal
(Fig. 9b).

Two collection models are provided:

* ``synchronous`` — one lock-step collection round per slot: every node's
  reading is taken at the same instant. The DAT result is then *exactly*
  the ground truth (a good correctness check, zero scatter).
* ``continuous`` — models the prototype's continuous push mode: a node at
  depth ``d`` in the tree contributes a reading that is ``d * push_period``
  seconds old by the time it reaches the root (one push interval per tree
  level). With a push period of a couple of seconds against a 10-second
  trace slot, this staleness is what produces the small off-diagonal
  scatter visible in the paper's Fig. 9(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.chord.hashing import sha1_id
from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.core.aggregates import Aggregate, get_aggregate
from repro.core.builder import DatScheme, build_dat
from repro.core.tree import DatTree
from repro.gma.traces import CpuTrace, TraceGenerator

__all__ = ["Fig9Result", "run_fig9_accuracy"]


@dataclass
class Fig9Result:
    """Per-slot actual vs DAT-aggregated series plus error metrics."""

    n_nodes: int
    mode: str
    times: list[float] = field(default_factory=list)
    actual: list[float] = field(default_factory=list)
    aggregated: list[float] = field(default_factory=list)

    def errors(self) -> np.ndarray:
        """Per-slot absolute errors."""
        return np.abs(np.asarray(self.aggregated) - np.asarray(self.actual))

    def max_relative_error(self) -> float:
        """Worst slot-wise relative error (against the actual value)."""
        actual = np.asarray(self.actual)
        scale = np.where(np.abs(actual) > 1e-12, np.abs(actual), 1.0)
        return float(np.max(self.errors() / scale))

    def mean_relative_error(self) -> float:
        """Mean slot-wise relative error."""
        actual = np.asarray(self.actual)
        scale = np.where(np.abs(actual) > 1e-12, np.abs(actual), 1.0)
        return float(np.mean(self.errors() / scale))

    def correlation(self) -> float:
        """Pearson correlation between actual and aggregated series."""
        return float(np.corrcoef(self.actual, self.aggregated)[0, 1])


def run_fig9_accuracy(
    n_nodes: int = 512,
    bits: int = 32,
    mode: str = "continuous",
    aggregate: str = "sum",
    identical_traces: bool = True,
    n_slots: int | None = None,
    push_period: float = 2.0,
    scheme: str = "balanced",
    id_strategy: str = "probing",
    seed: int = 2007,
) -> Fig9Result:
    """Regenerate the Fig. 9 accuracy experiment.

    Parameters
    ----------
    n_nodes, bits:
        Overlay sizing (paper: 512 nodes).
    mode:
        ``"synchronous"`` (exact lock-step rounds) or ``"continuous"``
        (depth-proportional staleness, the realistic model).
    aggregate:
        ``"sum"`` for total CPU usage (Fig. 9a) or ``"avg"``.
    identical_traces:
        True replays one trace on every node (the paper's setup).
    n_slots:
        Trace slots to evaluate (default: the full 2-hour trace).
    push_period:
        Continuous-mode push period in seconds (staleness at depth ``d`` is
        ``d * push_period``).
    """
    if mode not in ("synchronous", "continuous"):
        raise ValueError(f"mode must be 'synchronous' or 'continuous', got {mode!r}")
    space = IdSpace(bits)
    ring = make_assigner(id_strategy).build_ring(space, n_nodes, rng=seed)
    key = sha1_id("cpu-usage", space)
    tree = build_dat(ring, key, scheme=DatScheme(scheme))
    depths = tree.depths()

    trace_gen = TraceGenerator(seed=seed)
    traces: list[CpuTrace] = trace_gen.generate_fleet(n_nodes, identical=identical_traces)
    node_trace = {node: traces[i] for i, node in enumerate(ring)}
    total_slots = traces[0].n_slots if n_slots is None else min(n_slots, traces[0].n_slots)

    agg = get_aggregate(aggregate)
    result = Fig9Result(n_nodes=n_nodes, mode=mode)
    max_depth = max(depths.values()) if depths else 0

    with telemetry.span(
        "experiment.fig9", n=n_nodes, mode=mode, slots=total_slots
    ):
        _run_fig9_slots(
            result, tree, ring, node_trace, depths, agg,
            mode, push_period, total_slots, traces[0].period,
        )
    if telemetry.is_enabled() and result.actual:
        telemetry.gauge_set(
            "fig9_mean_relative_error", result.mean_relative_error(), mode=mode
        )
        telemetry.gauge_set(
            "fig9_max_relative_error", result.max_relative_error(), mode=mode
        )
        telemetry.gauge_set("fig9_correlation", result.correlation(), mode=mode)
        # Worst-case reading age in continuous mode: one push period per
        # tree level between a leaf and the root.
        staleness = max_depth * push_period if mode == "continuous" else 0.0
        telemetry.gauge_set("fig9_max_staleness_seconds", staleness, mode=mode)
    return result


def _run_fig9_slots(
    result: Fig9Result,
    tree: DatTree,
    ring: StaticRing,
    node_trace: dict[int, CpuTrace],
    depths: dict[int, int],
    agg: Aggregate,
    mode: str,
    push_period: float,
    total_slots: int,
    period: float,
) -> None:
    """Evaluate every trace slot, publishing the per-slot series gauges."""
    emit = telemetry.is_enabled()
    for slot in range(total_slots):
        # Evaluate mid-slot: sampling exactly on a slot boundary would make
        # any nonzero staleness truncate into the previous slot, grossly
        # overstating the continuous-mode error.
        t = (slot + 0.5) * period
        # Ground truth: everyone's reading at exactly t.
        actual = agg.aggregate(node_trace[node].at_slot(slot) for node in ring)

        # DAT estimate: one synchronous round; in continuous mode node v's
        # reading is depth(v) push periods stale when it arrives at the root.
        def reading(node: int) -> float:
            if mode == "synchronous":
                return node_trace[node].at_slot(slot)
            stale_time = max(t - depths[node] * push_period, 0.0)
            return node_trace[node].at_time(stale_time)

        aggregated = tree.fold(agg, reading)

        result.times.append(t)
        result.actual.append(float(actual))
        result.aggregated.append(float(aggregated))
        if emit:
            telemetry.gauge_set(
                "fig9_actual", float(actual), mode=mode, slot=slot
            )
            telemetry.gauge_set(
                "fig9_aggregated", float(aggregated), mode=mode, slot=slot
            )
