"""Fig. 8 — load balance of aggregation messages (paper Sec. 5.3).

(a) Per-node aggregation-message distribution by node rank at n = 512 for
    three schemes: centralized (Chord-routed, no in-network aggregation),
    basic DAT, balanced DAT. Paper anchors: centralized root ~511 messages;
    basic max ~24; balanced max ~4.

(b) Imbalance factor (max / average messages) vs network size in
    [100, 1000]: centralized grows ~linearly, basic ~log
    (paper: 4.2 @100 -> 8.5 @1000), balanced ~constant (1.9 - 2.0).

Loads count messages sent + received per node in one aggregation round
(DESIGN.md Sec. 5 records why this reproduces the paper's numbers). They
come from the array pipeline :mod:`repro.experiments.scale` runs at 10^5
nodes: one tree kernel per scheme and the routed baseline's closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.baselines.centralized import fast_centralized_load_array
from repro.chord.fastbuild import fast_tree_arrays
from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.core.analysis import imbalance_factor, load_rank_array
from repro.core.builder import DatScheme
from repro.util.rng import spawn_seeds

__all__ = [
    "Fig8Distribution",
    "Fig8ImbalancePoint",
    "run_fig8a_message_distribution",
    "run_fig8b_imbalance_sweep",
]


@dataclass
class Fig8Distribution:
    """Rank-ordered per-node loads for the three schemes at one size."""

    n_nodes: int
    centralized: list[int] = field(default_factory=list)
    basic: list[int] = field(default_factory=list)
    balanced: list[int] = field(default_factory=list)

    def summary(self) -> dict[str, float]:
        """Max/imbalance summary for quick assertions and tables."""
        return {
            "n": self.n_nodes,
            "centralized_max": max(self.centralized),
            "basic_max": max(self.basic),
            "balanced_max": max(self.balanced),
            "centralized_imbalance": imbalance_factor(self.centralized),
            "basic_imbalance": imbalance_factor(self.basic),
            "balanced_imbalance": imbalance_factor(self.balanced),
        }


@dataclass(frozen=True)
class Fig8ImbalancePoint:
    """Seed-averaged imbalance factors at one network size."""

    n_nodes: int
    centralized: float
    basic: float
    balanced: float

    def as_row(self) -> dict[str, float]:
        return {
            "n": self.n_nodes,
            "centralized": self.centralized,
            "basic": self.basic,
            "balanced": self.balanced,
        }


def _scheme_loads(
    n_nodes: int, bits: int, seed: int, id_strategy: str, key: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The ring's ids and the (centralized, basic, balanced) per-node loads,
    all aligned with the ids."""
    space = IdSpace(bits)
    ring = make_assigner(id_strategy).build_ring(space, n_nodes, rng=seed)
    rendezvous = space.wrap(key)
    loads = [fast_centralized_load_array(ring, rendezvous)]
    for scheme in (DatScheme.BASIC, DatScheme.BALANCED):
        tree = fast_tree_arrays(ring, rendezvous, scheme=scheme)
        loads.append(tree.message_load_array())
    return ring.id_index().ids, loads


def _record_scheme_loads(scheme: str, ids: np.ndarray, loads: np.ndarray) -> None:
    """Publish one scheme's per-node loads through the hotspot accountants.

    The experiment's analytic loads flow into the same accounting path the
    transports feed message-by-message (attributed as sends), so the
    JSONL export reconstructs the Fig. 8 distribution exactly —
    the "reproducible from exported telemetry alone" property the
    integration test asserts.
    """
    tel = telemetry.active()
    if tel is None:
        return
    accountant = tel.hotspots(f"fig8.{scheme}")
    for node, load in zip(ids.tolist(), loads.tolist()):
        accountant.add_load(node, sent=load)
    accountant.sample(tel.now())
    telemetry.gauge_set("fig8a_imbalance", accountant.imbalance(), scheme=scheme)
    telemetry.gauge_set("fig8a_max_load", float(accountant.max_load()), scheme=scheme)


def run_fig8a_message_distribution(
    n_nodes: int = 512,
    bits: int = 32,
    seed: int = 2007,
    id_strategy: str = "probing",
    key: int = 0xA5A5A5,
) -> Fig8Distribution:
    """Regenerate the Fig. 8(a) rank-ordered distributions."""
    with telemetry.span("experiment.fig8a", n=n_nodes, seed=seed):
        ids, (centralized, basic, balanced) = _scheme_loads(
            n_nodes, bits, seed, id_strategy, key
        )
        _record_scheme_loads("centralized", ids, centralized)
        _record_scheme_loads("basic", ids, basic)
        _record_scheme_loads("balanced", ids, balanced)
        return Fig8Distribution(
            n_nodes=n_nodes,
            centralized=load_rank_array(centralized).tolist(),
            basic=load_rank_array(basic).tolist(),
            balanced=load_rank_array(balanced).tolist(),
        )


def run_fig8b_imbalance_sweep(
    sizes: list[int] | None = None,
    bits: int = 32,
    n_seeds: int = 3,
    master_seed: int = 2007,
    id_strategy: str = "probing",
    key: int = 0xA5A5A5,
) -> list[Fig8ImbalancePoint]:
    """Regenerate the Fig. 8(b) imbalance-vs-size sweep."""
    sizes = sizes if sizes is not None else [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]
    seeds = spawn_seeds(master_seed, n_seeds)
    points: list[Fig8ImbalancePoint] = []
    with telemetry.span("experiment.fig8b", n_sizes=len(sizes), n_seeds=n_seeds):
        for n_nodes in sizes:
            samples = [
                tuple(
                    imbalance_factor(loads)
                    for loads in _scheme_loads(n_nodes, bits, seed, id_strategy, key)[1]
                )
                for seed in seeds
            ]
            point = Fig8ImbalancePoint(
                n_nodes=n_nodes,
                centralized=sum(s[0] for s in samples) / n_seeds,
                basic=sum(s[1] for s in samples) / n_seeds,
                balanced=sum(s[2] for s in samples) / n_seeds,
            )
            points.append(point)
            if telemetry.is_enabled():
                for scheme, value in point.as_row().items():
                    if scheme == "n":
                        continue
                    telemetry.gauge_set(
                        "fig8b_imbalance", value, scheme=scheme, n=n_nodes
                    )
    return points
