"""DAT accuracy under extreme node dynamics (paper Sec. 7 future work).

"For continuing efforts, we suggest to investigate the performance of DAT
under extreme node dynamics." This experiment does exactly that: a live
overlay runs a continuous COUNT aggregation (each node contributes 1, so
the true answer *is* the live membership) while nodes join and crash at
increasing rates. Reported per churn rate:

* mean/max relative error of the root's estimate against live membership;
* availability — the fraction of samples where the estimate is within a
  tolerance band of the truth.

The COUNT aggregate is the hardest case for implicit trees under churn:
every stale or missing contribution shows up directly in the estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.chord.idspace import IdSpace
from repro.chord.incremental import DatUpdateEngine
from repro.chord.node import ChordConfig
from repro.chord.ring import StaticRing
from repro.core.overlay import DatOverlay
from repro.sim.latency import ConstantLatency
from repro.sim.simnet import SimTransport
from repro.util.rng import ensure_rng

__all__ = ["DynamicsPoint", "DynamicsResult", "run_dynamics"]


@dataclass(frozen=True)
class DynamicsPoint:
    """Accuracy metrics at one churn rate."""

    churn_rate: float  # membership changes per virtual second
    n_samples: int
    mean_relative_error: float
    max_relative_error: float
    availability: float  # fraction of samples within the tolerance band
    #: mean finger+parent entries the incremental model mirror touched per
    #: membership event (0.0 for the stable baseline / when not measured).
    mean_incremental_updates: float = 0.0

    def as_row(self) -> dict[str, float]:
        return {
            "churn_per_s": self.churn_rate,
            "samples": self.n_samples,
            "mean_rel_err": round(self.mean_relative_error, 4),
            "max_rel_err": round(self.max_relative_error, 4),
            "availability": round(self.availability, 3),
            "incr_updates": round(self.mean_incremental_updates, 2),
        }


@dataclass
class DynamicsResult:
    """Full sweep outcome."""

    n_nodes: int
    points: list[DynamicsPoint] = field(default_factory=list)


def _measure_one_rate(
    churn_rate: float,
    n_nodes: int,
    bits: int,
    key: int,
    duration: float,
    interval: float,
    tolerance: float,
    stale_after: float,
    seed: int,
) -> DynamicsPoint:
    rng = ensure_rng(seed)
    space = IdSpace(bits)
    key = space.wrap(key)
    # One hotspot accountant per churn rate: with TelemetryConfig.sample_window
    # set, each transport's tick hook emits its own rolling imbalance series
    # (the per-window tables in ``repro.telemetry.report``) without the
    # sweep's rates interleaving into one series.
    transport = SimTransport(
        latency=ConstantLatency(0.005),
        rng=rng,
        hotspot_name=f"dynamics.rate{churn_rate:g}",
    )
    config = ChordConfig(
        stabilize_interval=0.25, fix_fingers_interval=0.05, rpc_timeout=0.5
    )
    overlay = DatOverlay(space, transport, config)

    idents = sorted(int(i) for i in rng.choice(space.size, n_nodes, replace=False))
    overlay.boot(idents, spacing=1.0)

    overlay.start_continuous_everywhere(
        key, "count", interval, stale_after=stale_after
    )
    overlay.run(interval * 12)  # warm-up: fill the tree

    # Converged-ring mirror, maintained incrementally per event — the
    # analytical repair cost accompanying the live accuracy measurements.
    mirror = DatUpdateEngine(StaticRing(space, sorted(overlay.network.nodes)))
    mirror.track(key)
    event_updates: list[int] = []

    errors: list[float] = []
    within: int = 0
    samples = 0
    elapsed = 0.0
    next_churn = (
        float(rng.exponential(1.0 / churn_rate)) if churn_rate > 0 else float("inf")
    )
    while elapsed < duration:
        step = min(interval, duration - elapsed)
        overlay.run(step)
        elapsed += step
        # Apply due churn events.
        while next_churn <= elapsed:
            if rng.random() < 0.5 and len(overlay) > n_nodes // 2:
                victims = [v for v in overlay.network.nodes]
                victim = victims[int(rng.integers(0, len(victims)))]
                if victim != overlay.current_root(key):
                    overlay.remove_node(victim, graceful=False)
                    report = mirror.apply("crash", victim)
                    event_updates.append(
                        report.finger_updates + report.parent_updates
                    )
            else:
                candidate = int(rng.integers(0, space.size))
                if candidate not in overlay.network.nodes:
                    overlay.add_node(candidate)
                    overlay.enroll(
                        candidate, key, "count", interval,
                        stale_after=stale_after,
                    )
                    report = mirror.apply("join", candidate)
                    event_updates.append(
                        report.finger_updates + report.parent_updates
                    )
            next_churn += float(rng.exponential(1.0 / churn_rate))

        estimate = overlay.root_estimate(key)
        truth = len(overlay)
        if estimate is None:
            continue
        samples += 1
        relative = abs(float(estimate) - truth) / truth
        errors.append(relative)
        if relative <= tolerance:
            within += 1

    point = DynamicsPoint(
        churn_rate=churn_rate,
        n_samples=samples,
        mean_relative_error=float(np.mean(errors)) if errors else 0.0,
        max_relative_error=float(np.max(errors)) if errors else 0.0,
        availability=within / samples if samples else 0.0,
        mean_incremental_updates=(
            float(np.mean(event_updates)) if event_updates else 0.0
        ),
    )
    if telemetry.is_enabled():
        labels = {"churn_rate": f"{churn_rate:g}"}
        telemetry.gauge_set(
            "dynamics_mean_relative_error", point.mean_relative_error, **labels
        )
        telemetry.gauge_set(
            "dynamics_max_relative_error", point.max_relative_error, **labels
        )
        telemetry.gauge_set("dynamics_availability", point.availability, **labels)
        telemetry.gauge_set(
            "dynamics_incremental_updates",
            point.mean_incremental_updates,
            **labels,
        )
        telemetry.gauge_set(
            "dynamics_samples_total", float(point.n_samples), **labels
        )
    return point


def run_dynamics(
    churn_rates: list[float] | None = None,
    n_nodes: int = 24,
    bits: int = 16,
    key: int = 0x3A7,
    duration: float = 60.0,
    interval: float = 0.5,
    tolerance: float = 0.1,
    stale_after: float = 2.0,
    seed: int = 2007,
) -> DynamicsResult:
    """Sweep churn rates and measure continuous-COUNT accuracy.

    Parameters
    ----------
    churn_rates:
        Membership changes per virtual second (0 = stable baseline).
    n_nodes:
        Initial overlay size.
    duration:
        Measurement horizon per rate, in virtual seconds.
    interval:
        Continuous push period (also the sampling period).
    tolerance:
        Relative-error band counted as "available".
    """
    rates = churn_rates if churn_rates is not None else [0.0, 0.2, 0.5, 1.0]
    result = DynamicsResult(n_nodes=n_nodes)
    with telemetry.span(
        "experiment.dynamics", n=n_nodes, n_rates=len(rates), duration=duration
    ):
        for index, rate in enumerate(rates):
            with telemetry.span("experiment.dynamics.rate", churn_rate=rate):
                result.points.append(
                    _measure_one_rate(
                        rate, n_nodes, bits, key, duration, interval,
                        tolerance, stale_after, seed=seed + index,
                    )
                )
    return result
