"""Ablation: why g(x) = ceil(log2((x + 2*d0)/3))? (DESIGN.md ablation index)

Two design choices of the balanced routing scheme are swept:

* the /3 divisor — derived so that exactly the j-th and (j+1)-th inbound
  fingers of each node select it. Larger divisors over-restrict fingers
  (taller trees); smaller ones under-restrict (root fan-in grows again);
* sensitivity to the d0 estimate — a distributed deployment only knows an
  approximation of the mean gap; the tree quality should degrade
  gracefully under 2-4x misestimates.
"""

from fractions import Fraction

from repro.chord.idgen import ProbingIdAssigner, UniformIdAssigner
from repro.chord.idspace import IdSpace
from repro.core.builder import build_dat
from repro.core.limiting import ceil_log2_fraction
from repro.core.parent import select_parent_balanced
from repro.core.tree import DatTree
from repro.experiments.report import format_table


class _DivisorLimiter:
    """g(x) with a configurable divisor instead of the derived 3."""

    def __init__(self, d0: Fraction, divisor: int) -> None:
        self.d0 = d0
        self.divisor = divisor

    def __call__(self, x: int) -> int:
        return ceil_log2_fraction((x + 2 * self.d0) / self.divisor)


def build_with_divisor(ring, key: int, divisor: int) -> DatTree:
    tables = ring.all_finger_tables()
    root = ring.successor(key)
    limiter = _DivisorLimiter(Fraction(ring.space.size, len(ring)), divisor)
    parent = {}
    for node in ring:
        chosen = select_parent_balanced(tables[node], root, limiter)
        if chosen is not None:
            parent[node] = chosen
    return DatTree(root=root, parent=parent, key=key)


def sweep_divisors():
    space = IdSpace(16)
    ring = UniformIdAssigner().build_ring(space, 1024)
    rows = []
    for divisor in (1, 2, 3, 4, 6, 8):
        tree = build_with_divisor(ring, key=0, divisor=divisor)
        stats = tree.stats()
        rows.append(
            {
                "divisor": divisor,
                "max_branching": stats.max_branching,
                "height": stats.height,
            }
        )
    return rows


def sweep_d0_error():
    space = IdSpace(32)
    ring = ProbingIdAssigner().build_ring(space, 512, rng=2007)
    true_d0 = space.size / len(ring)
    rows = []
    for factor in (0.25, 0.5, 1.0, 2.0, 4.0):
        tree = build_dat(ring, 12345, d0=true_d0 * factor)
        stats = tree.stats()
        rows.append(
            {
                "d0_estimate_factor": factor,
                "max_branching": stats.max_branching,
                "height": stats.height,
            }
        )
    return rows


def test_ablation_divisor(benchmark, emit):
    rows = benchmark.pedantic(sweep_divisors, rounds=1, iterations=1)
    emit(
        "ablation_divisor",
        format_table(rows, title="Ablation — g(x) divisor (derived value: 3; "
                                 "n=1024 evenly spaced)"),
    )
    by = {row["divisor"]: row for row in rows}
    # The derived divisor achieves the theorem's branching bound.
    assert by[3]["max_branching"] <= 2
    # Under-restriction (divisor 1: the plain ceil(log2(x+2)) limit) lets
    # fan-in grow past the bound.
    assert by[1]["max_branching"] > by[3]["max_branching"]
    # Over-restriction trades branching for height: markedly taller trees.
    assert by[8]["height"] > by[3]["height"]


def test_ablation_d0_sensitivity(benchmark, emit):
    rows = benchmark.pedantic(sweep_d0_error, rounds=1, iterations=1)
    emit(
        "ablation_d0",
        format_table(rows, title="Ablation — sensitivity to the d0 estimate "
                                 "(n=512, probing ids)"),
    )
    by = {row["d0_estimate_factor"]: row for row in rows}
    exact = by[1.0]["max_branching"]
    # Graceful degradation: a 4x misestimate at most ~doubles-ish the max
    # branching and never collapses the structure.
    for factor in (0.25, 0.5, 2.0, 4.0):
        assert by[factor]["max_branching"] <= max(3 * exact, exact + 6)
        assert by[factor]["height"] <= 4 * by[1.0]["height"]
