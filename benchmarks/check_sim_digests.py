"""Check that every perf workload still simulates what it pinned.

Runs ``benchmarks/perf/run.py --workload W --worker --seed S --trace 0``
for each workload in ``benchmarks/sim_digests.json`` (all six by default,
~2 min on 2 cores), reads the ``sim_digest`` off its ``#detail`` line and
exits 1, naming each workload whose digest moved (or whose run failed).
``--trace 0`` digests are result digests; the ``--trace 1`` one counts
calls and is not pinned.

Usage::

    python benchmarks/check_sim_digests.py [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNNER = ROOT / "benchmarks" / "perf" / "run.py"
PINNED = ROOT / "benchmarks" / "sim_digests.json"


def run_digest(workload: str, seed: int) -> str | None:
    """The ``sim_digest`` one worker run prints, or ``None`` if it printed none."""
    command = [
        sys.executable, str(RUNNER), "--workload", workload,
        "--worker", "--seed", str(seed), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    for line in done.stdout.splitlines():
        if line.startswith("#detail "):
            return json.loads(line[len("#detail "):]).get("sim_digest")
    sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", help="subset to check (default: all)")
    args = parser.parse_args(argv)
    pinned = json.loads(PINNED.read_text())
    digests: dict[str, str] = pinned["digests"]
    unknown = sorted(set(args.workloads) - set(digests))
    if unknown:
        parser.error(f"no pinned digest for {', '.join(unknown)}")
    mismatched = []
    for workload in args.workloads or list(digests):
        got = run_digest(workload, pinned["seed"])
        ok = got == digests[workload]
        print(f"{workload:<18} {got or 'no digest':<18} "
              f"{'ok' if ok else 'MISMATCH, pinned ' + digests[workload]}", flush=True)
        if not ok:
            mismatched.append(workload)
    if mismatched:
        print(f"sim_digest moved: {', '.join(mismatched)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
