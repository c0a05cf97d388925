"""Per-event incremental maintenance cost vs. full rebuilds.

The incremental engine (:mod:`repro.chord.incremental`) claims O(log n)
expected work per membership event; the alternative is one full
``build_dat`` per event, which is O(n) since the tree kernel went
matrix-free (no finger matrix is part of a rebuild any more, so none is
timed). This benchmark measures both on the same event sequences across
ring sizes, asserts bit-identity against the rebuild oracle, and records
the speedup trajectory (each cost the median of five repeats) in
``benchmarks/results/BENCH_incremental_churn.json``, with the finger and
parent entries each event rewrote (counts: the same on every run).

Runs two ways:

* under pytest (tier-2 bench suite): ``pytest benchmarks/bench_incremental_churn.py``
* standalone for the CI smoke job::

      python benchmarks/bench_incremental_churn.py --sizes 4096 \\
          --check benchmarks/incremental_churn_threshold.json \\
          --out BENCH_incremental_churn.json

  With ``--check`` the exit code is non-zero when the per-event
  incremental cost exceeds the stored ratio of the full-rebuild cost —
  the regression gate.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import statistics
import sys
import time

from repro.chord.hashing import sha1_id
from repro.chord.idgen import ProbingIdAssigner
from repro.chord.idspace import IdSpace
from repro.chord.incremental import DatUpdateEngine
from repro.chord.ring import StaticRing
from repro.core.builder import DatScheme, build_dat

BITS = 32
DEFAULT_SIZES = [256, 1024, 4096, 16384, 65536]
#: Timed repeats per cost; a row reports their median (one run moves by +-30 %).
REPEATS = 5
RESULT_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_incremental_churn.json"
THRESHOLD_PATH = pathlib.Path(__file__).parent / "incremental_churn_threshold.json"


def _event_schedule(ring: StaticRing, n_events: int, seed: int) -> list[tuple[str, int]]:
    """Alternating join/leave schedule keeping membership near its start size."""
    rng = random.Random(seed)
    live = set(ring.nodes)
    events: list[tuple[str, int]] = []
    for index in range(n_events):
        if index % 2 == 0:
            while True:
                ident = rng.randrange(ring.space.size)
                if ident not in live:
                    break
            events.append(("join", ident))
            live.add(ident)
        else:
            ident = rng.choice(sorted(live))
            events.append(("leave", ident))
            live.discard(ident)
    return events


def measure(
    n_nodes: int,
    scheme: DatScheme = DatScheme.BALANCED,
    n_events: int = 200,
    seed: int = 2007,
) -> dict[str, object]:
    """Time full rebuilds vs. incremental updates on one ring size."""
    space = IdSpace(BITS)
    ring = ProbingIdAssigner().build_ring(space, n_nodes, rng=seed)
    key = sha1_id("bench-incremental", space)
    events = _event_schedule(ring, n_events, seed + 1)

    # Full-rebuild cost per event: one tree built from scratch (after one
    # untimed build, so lazy imports and the ring's id vector are warm).
    reps = max(3, min(30, 20_000 // n_nodes))
    build_dat(ring, key, scheme=scheme)
    full = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(reps):
            build_dat(ring, key, scheme=scheme)
        full.append((time.perf_counter() - start) / reps * 1e6)
    full_us = statistics.median(full)

    # Incremental cost per event: each repeat replays the schedule on a
    # fresh engine (the replays are identical, so the last one is checked).
    incremental = []
    for _ in range(REPEATS):
        engine = DatUpdateEngine(StaticRing(space, ring.nodes), scheme=scheme)
        engine.track(key)
        start = time.perf_counter()
        reports = [engine.apply(kind, ident) for kind, ident in events]
        incremental.append((time.perf_counter() - start) / len(events) * 1e6)
    incremental_us = statistics.median(incremental)

    # Oracle bit-identity after the whole replay.
    reference = build_dat(StaticRing(space, engine.ring.nodes), key, scheme=scheme)
    tree = engine.tree(key)
    identical = tree.root == reference.root and tree.parent == reference.parent

    return {
        "n_nodes": n_nodes,
        "scheme": scheme.value,
        "n_events": len(events),
        "full_rebuild_us": round(full_us, 1),
        "incremental_us": round(incremental_us, 1),
        "speedup": round(full_us / incremental_us, 1),
        "finger_updates_per_event": round(
            sum(report.finger_updates for report in reports) / len(events), 2
        ),
        "parent_updates_per_event": round(
            sum(report.parent_updates for report in reports) / len(events), 2
        ),
        "bit_identical": identical,
    }


def run_suite(
    sizes: list[int], n_events: int, seed: int
) -> dict[str, object]:
    rows = [
        measure(n, scheme=scheme, n_events=n_events, seed=seed)
        for n in sizes
        for scheme in (DatScheme.BALANCED, DatScheme.BASIC)
    ]
    return {
        "config": {"bits": BITS, "sizes": sizes, "n_events": n_events, "seed": seed},
        "results": rows,
    }


def _format(payload: dict[str, object]) -> str:
    lines = ["Incremental churn maintenance vs full rebuild (per event)"]
    lines.append(
        f"{'n':>6} {'scheme':>9} {'full_us':>10} {'incr_us':>10} {'speedup':>8}"
        f" {'fingers':>8} {'parents':>8}"
    )
    for row in payload["results"]:  # type: ignore[union-attr]
        lines.append(
            f"{row['n_nodes']:>6} {row['scheme']:>9} "
            f"{row['full_rebuild_us']:>10} {row['incremental_us']:>10} "
            f"{row['speedup']:>7}x {row['finger_updates_per_event']:>8} "
            f"{row['parent_updates_per_event']:>8}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# pytest entry points (tier-2 bench suite)
# --------------------------------------------------------------------- #


def test_incremental_speedup_trajectory(emit):
    payload = run_suite(DEFAULT_SIZES, n_events=200, seed=2007)
    RESULT_PATH.parent.mkdir(exist_ok=True)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    emit("incremental_churn", _format(payload))

    rows = payload["results"]
    assert all(row["bit_identical"] for row in rows)
    # The CI gate's criterion, on the ring it gates (4096 nodes).
    threshold = json.loads(THRESHOLD_PATH.read_text())["max_cost_ratio"]
    for row in rows:
        if row["n_nodes"] == 4096:
            assert row["incremental_us"] <= threshold * row["full_rebuild_us"], row
    # The advantage must grow with ring size (O(log n) vs O(n)).
    balanced = [row["speedup"] for row in rows if row["scheme"] == "balanced"]
    assert balanced == sorted(balanced), balanced


def test_single_event_identity_both_schemes():
    for scheme in (DatScheme.BALANCED, DatScheme.BASIC):
        row = measure(512, scheme=scheme, n_events=2, seed=11)
        assert row["bit_identical"], row


# --------------------------------------------------------------------- #
# Standalone CLI (CI smoke job)
# --------------------------------------------------------------------- #


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", default=",".join(map(str, DEFAULT_SIZES)),
        help="comma-separated ring sizes",
    )
    parser.add_argument("--events", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument(
        "--out", default=str(RESULT_PATH),
        help="where to write the JSON result",
    )
    parser.add_argument(
        "--check", default=None,
        help="threshold JSON: fail if incremental/full cost ratio regresses",
    )
    args = parser.parse_args(argv)

    sizes = [int(part) for part in args.sizes.split(",") if part]
    payload = run_suite(sizes, n_events=args.events, seed=args.seed)
    print(_format(payload))

    out_path = pathlib.Path(args.out)
    if out_path.parent != pathlib.Path("."):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")

    rows = payload["results"]
    if not all(row["bit_identical"] for row in rows):
        print("FAIL: incremental state diverged from the rebuild oracle")
        return 1

    if args.check:
        threshold = json.loads(pathlib.Path(args.check).read_text())
        max_ratio = float(threshold["max_cost_ratio"])
        worst = max(
            row["incremental_us"] / row["full_rebuild_us"] for row in rows
        )
        print(
            f"cost-ratio check: worst incremental/full = {worst:.3f} "
            f"(limit {max_ratio})"
        )
        if worst > max_ratio:
            print("FAIL: incremental per-event cost regressed past threshold")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
