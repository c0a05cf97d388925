"""Sec. 3.3 / 3.5 closed forms, validated measurement-vs-theory at scale.

* Basic DAT branching: B(i, n) = log2(n) - ceil(log2(d/d0 + 1)) holds for
  every node on evenly spaced power-of-two rings.
* Balanced DAT: branching <= 2 and height <= log2(n) on the same rings.
* Basic DAT height equals the longest finger route (= O(log n)).
"""

from repro.chord.idgen import UniformIdAssigner
from repro.chord.idspace import IdSpace
from repro.chord.routing import route_lengths
from repro.core.analysis import (
    compare_depths_to_theory,
    compare_measured_to_theory,
    theoretical_basic_avg_branching,
)
from repro.core.builder import build_dat
from repro.experiments.report import format_table
from repro.util.bits import ceil_log2

SIZES = [16, 64, 256, 1024, 4096]


def validate_theory():
    rows = []
    for n in SIZES:
        bits = max(ceil_log2(n) + 4, 16)
        space = IdSpace(bits)
        ring = UniformIdAssigner().build_ring(space, n)

        basic = build_dat(ring, 0, "basic")
        mismatches = sum(
            1 for _node, (m, p) in compare_measured_to_theory(basic, bits).items() if m != p
        )
        depth_mismatches = sum(
            1 for _node, (m, p) in compare_depths_to_theory(basic, bits).items() if m != p
        )

        balanced = build_dat(ring, 0, "balanced")
        rows.append(
            {
                "n": n,
                "B(i,n)_mismatches": mismatches,
                "depth_popcount_mismatches": depth_mismatches,
                "basic_root_branching": basic.branching_factor(basic.root),
                "log2_n": ceil_log2(n),
                "basic_avg_branching": round(basic.stats().avg_branching, 4),
                "avg_branching_formula": round(theoretical_basic_avg_branching(n), 4),
                "balanced_max_branching": balanced.stats().max_branching,
                "balanced_height": balanced.height,
                "basic_height": basic.height,
            }
        )
    return rows


def test_theory_validation(benchmark, emit):
    rows = benchmark.pedantic(validate_theory, rounds=1, iterations=1)
    emit(
        "theory_validation",
        format_table(rows, title="Sec 3.3/3.5 closed forms vs measurement "
                                 "(evenly spaced rings)"),
    )
    for row in rows:
        n = row["n"]
        assert row["B(i,n)_mismatches"] == 0, n
        assert row["depth_popcount_mismatches"] == 0, n
        assert row["basic_root_branching"] == row["log2_n"], n
        assert row["basic_avg_branching"] == row["avg_branching_formula"], n
        assert row["balanced_max_branching"] <= 2, n
        assert row["balanced_height"] <= row["log2_n"], n


def test_basic_height_equals_longest_route(benchmark):
    def measure():
        space = IdSpace(16)
        ring = UniformIdAssigner().build_ring(space, 1024)
        tables = ring.all_finger_tables()
        tree = build_dat(ring, 0, "basic")
        longest = max(route_lengths(ring, 0, tables=tables).values())
        return tree.height, longest

    height, longest = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert height == longest
