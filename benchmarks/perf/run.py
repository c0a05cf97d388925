#!/usr/bin/env python3
"""Perf ledger: one command, six workloads, end-to-end and per-layer numbers.

Two faces, one code path:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` measures one
  workload in this process for ``S`` seconds and prints one JSON object as
  the last line of stdout (the contract ``BENCHMARK.json`` is checked by).
* ``run.py [--seed N] [--repeats R] [--workload NAME] [--trace]`` runs every
  workload ``R`` times, each run in a fresh subprocess with a fixed op count
  (so simulated statistics repeat exactly), interleaved A B C D E F A B …,
  prints the medians by name with units, and appends one row per workload
  to ``history.jsonl``. ``--quick`` does the same at toy sizes in < 30 s;
  ``--selfcheck`` runs two full sets and fails if they disagree.

Metric names, units, directions and bounds are read from ``BENCHMARK.json``;
this file declares none of its own. See README.md for what each one means.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
HISTORY = HERE / "history.jsonl"

#: Exact statistics shown next to the end-to-end metrics, with their units.
#: A workload that does not define one (no messages, no convergence) omits it.
EXACT_UNITS = {
    "msgs_per_op": "count",
    "bytes_per_msg": "B",
    "load_imbalance": "ratio",
    "converge_sim_s": "sim-s",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# --------------------------------------------------------------------- #
# One run in this process
# --------------------------------------------------------------------- #


def single_run(args: argparse.Namespace, spec: dict) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"refusing to measure {repro.__file__}: not this checkout", file=sys.stderr)
        return 2
    import harness
    from workloads import FULL_SIZES, QUICK_SIZES

    name = args.workload
    if name not in FULL_SIZES:
        print(f"unknown workload {name!r}; choose from {sorted(FULL_SIZES)}", file=sys.stderr)
        return 2
    size = (QUICK_SIZES if args.quick else FULL_SIZES)[name]
    if args.trace:
        OUT.mkdir(exist_ok=True)
        result = harness.run_traced(
            name, size, args.seed, args.seconds, args.quick,
            OUT / f"trace-{name}.jsonl",
        )
        declared = spec["per_layer"]
    else:
        result = harness.run_untraced(name, size, args.seed, args.seconds)
        declared = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        missing, extra = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
        print(f"metrics disagree with BENCHMARK.json: missing {missing}, undeclared {extra}",
              file=sys.stderr)
        return 3
    for metric in sorted(metrics):
        print(f"{name:18s} {metric:48s} {metrics[metric]:>16.6g} {units[metric]}")
    print("#detail " + json.dumps(result["detail"]))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in sorted(metrics)},
    }))
    return 0


# --------------------------------------------------------------------- #
# Many runs, each in a fresh subprocess
# --------------------------------------------------------------------- #


def spawn(workload: str, seed: int, trace: int, quick: bool) -> dict:
    """One (workload, repeat) in its own process, so ``peak_rss_mb`` is that
    workload's own high-water mark and no run inherits another's heap."""
    command = [sys.executable, str(HERE / "run.py"), "--worker", "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} failed ({done.returncode}):\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(
        next(ln for ln in reversed(lines) if ln.startswith("#detail "))[len("#detail "):]
    )
    return result


def run_set(workloads: list[str], seed: int, repeats: int, quick: bool) -> dict[str, dict]:
    """Untraced pass: medians over ``repeats`` interleaved runs per workload."""
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for repeat in range(repeats):
        for workload in workloads:
            print(f"# {workload} run {repeat + 1}/{repeats}", file=sys.stderr, flush=True)
            runs[workload].append(spawn(workload, seed, 0, quick))
    summary: dict[str, dict] = {}
    for workload, results in runs.items():
        exact = results[0]["detail"]["exact"]
        summary[workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                metric: statistics.median(r["metrics"][metric]["value"] for r in results)
                for metric in results[0]["metrics"]
            },
            "exact": exact,
            "sim_digest": results[0]["detail"]["sim_digest"],
            # Same seed, fixed op count: every repeat must simulate the same thing.
            "repeatable": all(r["detail"]["exact"] == exact for r in results),
        }
    return summary


def add_traced(summary: dict[str, dict], seed: int, quick: bool) -> None:
    for workload, row in summary.items():
        print(f"# {workload} traced", file=sys.stderr, flush=True)
        result = spawn(workload, seed, 1, quick)
        row["per_layer"] = {m: v["value"] for m, v in result["metrics"].items()}
        row["attempted"] += result["attempted"]
        row["failed"] += result["failed"]
        row["calls_digest"] = result["detail"]["sim_digest"]


def defined_exact(row: dict) -> dict[str, float]:
    exact = row["exact"]
    return {k: exact[k] for k in EXACT_UNITS if exact.get(k)}


def report(summary: dict[str, dict], spec: dict) -> None:
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload, row in summary.items():
        print(f"\n== {workload}  ({row['attempted']} ops, sim_digest {row['sim_digest']}"
              + (f", calls_digest {row['calls_digest']}" if "calls_digest" in row else "")
              + ")")
        for name, value in row["metrics"].items():
            meta = e2e[name]
            print(f"  {name:46s} {value:>14.6g} {meta['unit']:6s}"
                  f" ({meta['better']} is better, bound {meta['bound']:.0%})")
        print(f"  {'failed_frac':46s} {row['failed'] / row['attempted']:>14.6g} ratio "
              "(exact, must be 0)")
        for name, value in defined_exact(row).items():
            print(f"  {name:46s} {value:>14.6g} {EXACT_UNITS[name]:6s} (exact)")
        for name, value in sorted(row.get("per_layer", {}).items()):
            print(f"  {name:46s} {value:>14.6g} {layer_units[name]}")


def environment() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "sha": sha,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def append_history(summary: dict[str, dict], seed: int, repeats: int) -> None:
    stamp = environment()
    with open(HISTORY, "a", encoding="utf-8") as handle:
        for workload, row in summary.items():
            handle.write(json.dumps({
                **stamp, "seed": seed, "repeats": repeats, "workload": workload,
                "metrics": row["metrics"],
                "failed_frac": row["failed"] / row["attempted"],
                "exact": defined_exact(row),
                "sim_digest": row["sim_digest"],
                **({"calls_digest": row["calls_digest"], "per_layer": row["per_layer"]}
                   if "per_layer" in row else {}),
            }) + "\n")


def selfcheck(workloads: list[str], args: argparse.Namespace, spec: dict) -> int:
    """Two sets of runs of the same code must agree within the bounds."""
    first = run_set(workloads, args.seed, args.repeats, args.quick)
    second = run_set(workloads, args.seed, args.repeats, args.quick)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems = []
    for workload in workloads:
        a, b = first[workload], second[workload]
        for name, bound in bounds.items():
            drift = abs(b["metrics"][name] - a["metrics"][name]) / a["metrics"][name]
            verdict = "ok" if drift <= bound else "DIFFERS"
            print(f"{workload:18s} {name:14s} {a['metrics'][name]:>12.6g} "
                  f"{b['metrics'][name]:>12.6g}  {drift:6.1%} (bound {bound:.0%}) {verdict}")
            if drift > bound:
                problems.append(f"{workload}.{name} differs by {drift:.1%}")
        if a["sim_digest"] != b["sim_digest"] or not (a["repeatable"] and b["repeatable"]):
            problems.append(f"{workload}: exact statistics differ between same-seed runs")
        if a["failed"] or b["failed"]:
            problems.append(f"{workload}: {a['failed'] + b['failed']} failed ops")
    for problem in problems:
        print("selfcheck:", problem)
    print("selfcheck:", "FAILED" if problems else "two sets agree")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float,
                        help="measure one run in-process for this long (driver mode)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also (driver mode: only) produce the per-layer numbers")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true", help="toy sizes, one repeat")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    spec = load_spec()

    if args.worker or args.seconds is not None:
        if not args.workload:
            parser.error("--seconds needs --workload")
        return single_run(args, spec)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    workloads = [args.workload] if args.workload else names
    if args.quick:
        args.repeats = 1
    if args.selfcheck:
        return selfcheck(workloads, args, spec)
    summary = run_set(workloads, args.seed, args.repeats, args.quick)
    if args.trace:
        add_traced(summary, args.seed, args.quick)
    report(summary, spec)
    if not args.quick:
        append_history(summary, args.seed, args.repeats)
    print(json.dumps({"seed": args.seed, "workloads": summary}))
    bad = [w for w, row in summary.items() if row["failed"] or not row["repeatable"]]
    for workload in bad:
        print(f"FAILED: {workload}: {summary[workload]['failed']} failed ops, "
              f"repeatable={summary[workload]['repeatable']}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
