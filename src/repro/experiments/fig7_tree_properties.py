"""Fig. 7 — DAT tree properties vs network size (paper Sec. 5.2).

Four configurations per metric, exactly as the paper plots:

* basic DAT, random identifiers        (max branching grows ~ log n, worst)
* basic DAT, identifier probing        (still log-scale, smaller constant)
* balanced DAT, random identifiers     (log-scale: gap ratio is O(log n))
* balanced DAT, identifier probing     (max branching ~ constant ~4)

Metrics: maximum branching factor (7a), average branching factor over
internal nodes (7b), plus tree height (used by the theory-validation bench).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry
from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.core.builder import DatTreeBuilder
from repro.util.rng import spawn_seeds

__all__ = ["Fig7Point", "run_fig7_tree_properties", "POWER_OF_TWO_SIZES", "CONFIGS"]

#: The paper's x-axis: 16 .. 8192 (powers of two).
POWER_OF_TWO_SIZES = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192]

#: (scheme, id-strategy) combinations of Fig. 7.
CONFIGS: list[tuple[str, str]] = [
    ("basic", "random"),
    ("basic", "probing"),
    ("balanced", "random"),
    ("balanced", "probing"),
]


@dataclass(frozen=True)
class Fig7Point:
    """One measured configuration at one network size (seed-averaged)."""

    scheme: str
    id_strategy: str
    n_nodes: int
    max_branching: float
    avg_branching: float
    height: float
    n_seeds: int

    def as_row(self) -> dict[str, float | str]:
        return {
            "scheme": self.scheme,
            "ids": self.id_strategy,
            "n": self.n_nodes,
            "max_branching": self.max_branching,
            "avg_branching": self.avg_branching,
            "height": self.height,
        }


def measure_tree(
    scheme: str,
    id_strategy: str,
    n_nodes: int,
    bits: int,
    seed: int,
    key: int = 0xA5A5A5,
) -> tuple[int, float, int]:
    """(max branching, avg branching, height) of one constructed tree.

    Array-native end to end: the statistics come from
    :meth:`~repro.core.builder.DatTreeBuilder.tree_stats` without
    materializing a per-node tree object, so a single point scales to
    10^5-10^6 nodes. Bit-identical to ``build_dat(...).stats()`` (the
    fastbuild equivalence discipline, asserted in
    ``tests/property/test_prop_scale.py``).
    """
    space = IdSpace(bits)
    ring = make_assigner(id_strategy).build_ring(space, n_nodes, rng=seed)
    stats = DatTreeBuilder(ring, scheme).tree_stats(space.wrap(key))
    return stats.max_branching, stats.avg_branching, stats.height


def run_fig7_tree_properties(
    sizes: list[int] | None = None,
    bits: int = 32,
    n_seeds: int = 3,
    master_seed: int = 2007,
    configs: list[tuple[str, str]] | None = None,
) -> list[Fig7Point]:
    """Regenerate the Fig. 7 series.

    Returns one point per (configuration, size), averaged over seeds.
    """
    sizes = sizes if sizes is not None else POWER_OF_TWO_SIZES
    configs = configs if configs is not None else CONFIGS
    seeds = spawn_seeds(master_seed, n_seeds)
    points: list[Fig7Point] = []
    with telemetry.span(
        "experiment.fig7", n_configs=len(configs), n_sizes=len(sizes)
    ):
        for scheme, id_strategy in configs:
            for n_nodes in sizes:
                samples = [
                    measure_tree(scheme, id_strategy, n_nodes, bits, seed)
                    for seed in seeds
                ]
                point = Fig7Point(
                    scheme=scheme,
                    id_strategy=id_strategy,
                    n_nodes=n_nodes,
                    max_branching=sum(s[0] for s in samples) / n_seeds,
                    avg_branching=sum(s[1] for s in samples) / n_seeds,
                    height=sum(s[2] for s in samples) / n_seeds,
                    n_seeds=n_seeds,
                )
                points.append(point)
                if telemetry.is_enabled():
                    labels = {
                        "scheme": scheme, "ids": id_strategy, "n": n_nodes
                    }
                    telemetry.gauge_set(
                        "fig7_max_branching", point.max_branching, **labels
                    )
                    telemetry.gauge_set(
                        "fig7_avg_branching", point.avg_branching, **labels
                    )
                    telemetry.gauge_set("fig7_height", point.height, **labels)
    return points
