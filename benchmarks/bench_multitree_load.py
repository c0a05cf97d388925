"""Multi-tree load balance (paper Sec. 3.2).

"Since consistent hashing has the advantage of mapping keys to nodes
uniformly, this root selection scheme is capable of building multiple DAT
trees in a load-balanced fashion." Validated: with one balanced DAT per
monitored attribute, roots spread across the overlay and the *combined*
per-node load is more even than any single tree's.
"""

from repro.chord.idgen import ProbingIdAssigner
from repro.chord.idspace import IdSpace
from repro.core.multitree import DatForest
from repro.experiments.report import format_table


def sweep_tree_counts():
    ring = ProbingIdAssigner().build_ring(IdSpace(32), 512, rng=2007)
    rows = []
    for n_trees in (1, 4, 16, 64):
        forest = DatForest(ring, [f"metric-{i}" for i in range(n_trees)])
        report = forest.load_report()
        rows.append(
            {
                "n_trees": n_trees,
                "distinct_roots": len(set(forest.roots().values())),
                "max_root_roles": report.max_root_roles,
                "combined_imbalance": round(report.combined_imbalance, 3),
                "max_combined_load": max(report.combined_loads.values()),
            }
        )
    return rows


def test_multitree_load_balance(benchmark, emit):
    rows = benchmark.pedantic(sweep_tree_counts, rounds=1, iterations=1)
    emit(
        "multitree_load",
        format_table(rows, title="Multi-tree load balance (n=512, balanced "
                                 "DATs, one per monitored attribute)"),
    )
    by = {row["n_trees"]: row for row in rows}

    # Roots spread: with 64 trees, many distinct roots and no hoarding.
    assert by[64]["distinct_roots"] >= 50
    assert by[64]["max_root_roles"] <= 4

    # The combined load over many trees is more even than a single tree's.
    # It plateaus (~2.1 here) rather than reaching 1.0 because tree shapes
    # correlate across keys — a node's gap structure makes it consistently
    # interior or consistently leaf-like.
    assert by[64]["combined_imbalance"] < by[1]["combined_imbalance"]
    assert by[16]["combined_imbalance"] < by[1]["combined_imbalance"]
    assert by[64]["combined_imbalance"] <= 2.5
