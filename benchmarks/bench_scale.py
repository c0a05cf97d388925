"""Fig-7/8 statistics at 10^5-10^6-node scale (tentpole perf benchmark).

The array-native pipeline — :class:`~repro.chord.ringarray.RingArray`
rings, the matrix-free O(n) tree kernel, and
:class:`~repro.chord.fastbuild.DatTreeArrays` statistics — claims fig-grade
measurements at n in {16k, 65k, 131k, 262k} in minutes on one core. This
benchmark measures wall-clock and peak RSS per size, asserts the results
are *equal* (floats bit-identical) to the object-based oracle of
``tests/oracles.py`` at every size where the oracle is affordable, and
records the trajectory in ``benchmarks/results/BENCH_scale.json``.

Runs two ways:

* under pytest (tier-2 bench suite): ``pytest benchmarks/bench_scale.py``
* standalone for the CI scale-smoke job::

      python benchmarks/bench_scale.py --sizes 16384,262144 \\
          --protocol-sizes 4096,65536 \\
          --check benchmarks/scale_threshold.json \\
          --out BENCH_scale.json

  With ``--check`` the exit code is non-zero when a size exceeds its
  stored time or peak-RSS budget or any oracle comparison diverges — the
  regression gate.

``--protocol-sizes`` adds *live-protocol* rows: the slab path
(:func:`repro.core.slab.run_protocol_slab`) exchanging real continuous-push
messages through :class:`~repro.sim.simnet.SimTransport`, compared
bit-for-bit against one :class:`~repro.core.service.DatNodeService` per
node up to ``PROTOCOL_ORACLE_MAX`` nodes, with peak-RSS and slab-state
memory gates (``protocol.max_peak_rss_mb``, keyed by size, and
``protocol.max_state_bytes_per_node``); statistics rows have their own
peak-RSS gate, the top-level ``max_peak_rss_mb``. Every row, statistics
or protocol, runs in a fresh interpreter, so its ``peak_rss_mb`` is its own
high-water mark and not that of whatever ran before it in this process.

The standalone run also appends its rows, stamped with the git sha of the
measured source tree and the date, to the ``results_history`` (statistics)
and ``protocol_history`` (protocol) lists of the output file; every writer
of that file carries both lists over, so the trajectories survive
regeneration. Pointing ``PYTHONPATH`` at a clone of another commit records
that commit's rows with this harness.
"""

from __future__ import annotations

import argparse
import datetime
import json
import multiprocessing
import pathlib
import resource
import subprocess
import sys
import time
from collections.abc import Callable
from typing import Any

import repro

from repro import telemetry
from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.experiments.scale import (
    PROTOCOL_SIZES,
    SCALE_SIZES,
    measure_protocol_point,
    measure_scale_point,
)

# The oracles live in tests/: put the repo root on the path, here and in
# every row spawned below (a spawned interpreter re-imports this module).
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tests.oracles import protocol_point_oracle, scale_point_oracle  # noqa: E402

BITS = 32
#: Largest size where the object-based oracle runs alongside the fast path
#: (a few seconds); beyond this only the array-native path is affordable.
ORACLE_MAX_NODES = 16384
#: Largest size where the *protocol* oracle (one DatNodeService per node,
#: every push a real JSON message) runs alongside the slab path (~10 s).
PROTOCOL_ORACLE_MAX = 4096
RESULT_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_scale.json"
THRESHOLD_PATH = pathlib.Path(__file__).parent / "scale_threshold.json"


def _peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB.

    On Linux this is ``VmHWM`` from ``/proc``, which starts afresh at
    ``exec``; ``ru_maxrss`` does not — a spawned child inherits the
    high-water mark of its parent. Elsewhere ``ru_maxrss`` (KiB, or bytes
    on macOS) is the only source; no psutil needed.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return peak / 1024.0


def _in_fresh_interpreter(
    body: Callable[..., dict[str, Any]], *args: object
) -> dict[str, Any]:
    """Run ``body(*args)`` in a spawned interpreter and return its row.

    ``ru_maxrss`` / ``VmHWM`` are process-lifetime high-water marks, so a
    row measured in this process would report the largest run that preceded
    it, not its own footprint.
    """
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(body, args)


def measure(
    n_nodes: int,
    seed: int = 2007,
    id_strategy: str = "probing",
    oracle_max: int = ORACLE_MAX_NODES,
) -> dict[str, object]:
    """One sweep point: fast-path stats + timing, oracle equality when affordable."""
    row = _in_fresh_interpreter(
        _statistics_row, n_nodes, seed, id_strategy, oracle_max
    )
    telemetry.gauge_set(
        "scale_build_seconds", float(row["seconds"]), n=n_nodes, ids=id_strategy
    )
    return row


def _statistics_row(
    n_nodes: int, seed: int, id_strategy: str, oracle_max: int
) -> dict[str, object]:
    """The body of :func:`measure`, run in the child process."""
    start = time.perf_counter()
    point = measure_scale_point(
        n_nodes, bits=BITS, seed=seed, id_strategy=id_strategy
    )
    elapsed = time.perf_counter() - start

    row: dict[str, object] = dict(point.as_row())
    row["seconds"] = round(elapsed, 3)
    row["peak_rss_mb"] = round(_peak_rss_mb(), 1)  # before the oracle's object webs
    # Ring generation on its own, after the row's own time and peak RSS.
    start = time.perf_counter()
    make_assigner(id_strategy).build_ring(IdSpace(BITS), n_nodes, rng=seed)
    row["ring_seconds"] = round(time.perf_counter() - start, 3)
    if n_nodes <= oracle_max:
        oracle = scale_point_oracle(
            n_nodes, bits=BITS, seed=seed, id_strategy=id_strategy
        )
        row["oracle_checked"] = True
        row["oracle_identical"] = point == oracle
    else:
        row["oracle_checked"] = False
        row["oracle_identical"] = None
    return row


def run_suite(
    sizes: list[int],
    seed: int = 2007,
    id_strategy: str = "probing",
    oracle_max: int = ORACLE_MAX_NODES,
    protocol_sizes: list[int] | None = None,
    protocol_oracle_max: int = PROTOCOL_ORACLE_MAX,
) -> dict[str, object]:
    rows = [
        measure(n, seed=seed, id_strategy=id_strategy, oracle_max=oracle_max)
        for n in sizes
    ]
    protocol_rows = run_protocol_suite(
        protocol_sizes or [],
        seed=seed,
        id_strategy=id_strategy,
        oracle_max=protocol_oracle_max,
    )
    return {
        "config": {
            "bits": BITS,
            "sizes": sizes,
            "protocol_sizes": protocol_sizes or [],
            "seed": seed,
            "id_strategy": id_strategy,
            "oracle_max_nodes": oracle_max,
            "protocol_oracle_max_nodes": protocol_oracle_max,
        },
        "results": rows,
        "protocol_results": protocol_rows,
    }


def measure_protocol(
    n_nodes: int,
    seed: int = 2007,
    id_strategy: str = "probing",
    oracle_max: int = PROTOCOL_ORACLE_MAX,
) -> dict[str, object]:
    """One live-protocol point: slab timing/memory, oracle equality when affordable."""
    row = _in_fresh_interpreter(
        _protocol_row, n_nodes, seed, id_strategy, oracle_max
    )
    telemetry.gauge_set(
        "scale_protocol_seconds", float(row["seconds"]), n=n_nodes, ids=id_strategy
    )
    return row


def _protocol_row(
    n_nodes: int, seed: int, id_strategy: str, oracle_max: int
) -> dict[str, object]:
    """The body of :func:`measure_protocol`, run in the child process.

    The exactness comparison covers every protocol-observable field —
    estimate, message/byte/push totals, max load, imbalance — but not
    ``state_bytes_per_node``, which measures the slab's own array footprint
    (the oracle's object webs report 0).
    """
    start = time.perf_counter()
    point = measure_protocol_point(
        n_nodes, bits=BITS, seed=seed, id_strategy=id_strategy
    )
    elapsed = time.perf_counter() - start

    row: dict[str, object] = dict(point.as_row())
    row["mode"] = "protocol"
    row["seconds"] = round(elapsed, 3)
    row["peak_rss_mb"] = round(_peak_rss_mb(), 1)  # before the oracle's object webs
    if n_nodes <= oracle_max:
        oracle_start = time.perf_counter()
        oracle = protocol_point_oracle(
            n_nodes, bits=BITS, seed=seed, id_strategy=id_strategy
        )
        row["oracle_seconds"] = round(time.perf_counter() - oracle_start, 3)
        row["oracle_checked"] = True
        row["oracle_identical"] = point.exactness_key() == oracle.exactness_key()
    else:
        row["oracle_checked"] = False
        row["oracle_identical"] = None
    return row


def run_protocol_suite(
    sizes: list[int],
    seed: int = 2007,
    id_strategy: str = "probing",
    oracle_max: int = PROTOCOL_ORACLE_MAX,
) -> list[dict[str, object]]:
    return [
        measure_protocol(n, seed=seed, id_strategy=id_strategy, oracle_max=oracle_max)
        for n in sizes
    ]


def _source_stamp() -> dict[str, object]:
    """Git sha (and dirtiness) of the source tree ``repro`` was imported
    from, plus today's date — what a history row is a measurement *of*."""
    source = pathlib.Path(repro.__file__).resolve().parent

    def git(*args: str) -> str:
        try:
            done = subprocess.run(
                ["git", "-C", str(source), *args],
                capture_output=True, text=True, timeout=10,
            )
        except OSError:
            return ""
        return done.stdout.strip() if done.returncode == 0 else ""

    return {
        "git_sha": git("rev-parse", "--short", "HEAD") or "unknown",
        "dirty": bool(git("status", "--porcelain", "--", str(source))),
        "date": datetime.date.today().isoformat(),
    }


#: History list in the result file -> the payload rows it accumulates.
HISTORIES = {"results_history": "results", "protocol_history": "protocol_results"}


def write_result(
    path: pathlib.Path, payload: dict[str, object], record_history: bool = False
) -> None:
    """Write ``payload`` to ``path``, keeping the file's history lists.

    With ``record_history`` the payload's statistics and protocol rows are
    appended to ``results_history`` / ``protocol_history``, stamped with
    :func:`_source_stamp`.
    """
    previous = json.loads(path.read_text()) if path.is_file() else {}
    stamp = _source_stamp() if record_history else {}
    histories: dict[str, object] = {}
    for name, rows_key in HISTORIES.items():
        history = previous.get(name, [])
        if record_history:
            history = history + [{**stamp, **row} for row in payload[rows_key]]  # type: ignore[attr-defined]
        histories[name] = history
    if path.parent != pathlib.Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**payload, **histories}, indent=2) + "\n")


def _format(payload: dict[str, object]) -> str:
    lines = ["Scale sweep — fig-7/8 statistics on the array-native pipeline"]
    lines.append(
        f"{'n':>7} {'sec':>8} {'ring_s':>7} {'rss_mb':>8} {'b_max':>6} {'b_h':>4} "
        f"{'bal_max':>8} {'bal_h':>6} {'imb_c':>10} {'imb_b':>7} "
        f"{'imb_bal':>8} {'oracle':>7}"
    )
    for row in payload["results"]:  # type: ignore[union-attr]
        oracle = (
            "same"
            if row["oracle_identical"]
            else ("DIFF" if row["oracle_checked"] else "-")
        )
        lines.append(
            f"{row['n']:>7} {row['seconds']:>8} {row['ring_seconds']:>7} "
            f"{row['peak_rss_mb']:>8} "
            f"{row['basic_max_branching']:>6} {row['basic_height']:>4} "
            f"{row['balanced_max_branching']:>8} {row['balanced_height']:>6} "
            f"{row['centralized_imbalance']:>10.1f} "
            f"{row['basic_imbalance']:>7.2f} {row['balanced_imbalance']:>8.2f} "
            f"{oracle:>7}"
        )
    protocol_rows = payload.get("protocol_results") or []  # type: ignore[union-attr]
    if protocol_rows:
        lines.append("")
        lines.append("Live protocol (slab path) — continuous push, real messages")
        lines.append(
            f"{'n':>7} {'sec':>8} {'rss_mb':>8} {'messages':>9} "
            f"{'bytes':>11} {'imb':>6} {'B/node':>7} {'conv':>5} {'oracle':>7}"
        )
        for row in protocol_rows:
            oracle = (
                "same"
                if row["oracle_identical"]
                else ("DIFF" if row["oracle_checked"] else "-")
            )
            lines.append(
                f"{row['n']:>7} {row['seconds']:>8} {row['peak_rss_mb']:>8} "
                f"{row['messages_total']:>9} {row['bytes_total']:>11} "
                f"{row['imbalance']:>6.2f} {row['state_bytes_per_node']:>7.0f} "
                f"{str(bool(row['converged'])):>5} {oracle:>7}"
            )
    return "\n".join(lines)


def _check(payload: dict[str, object], threshold_path: pathlib.Path) -> list[str]:
    """Regression gate: per-size time and peak-RSS budgets + oracle
    exactness (both modes)."""
    threshold = json.loads(threshold_path.read_text())
    budgets = {int(k): float(v) for k, v in threshold["max_seconds"].items()}
    rss_budgets = {
        int(k): float(v) for k, v in threshold.get("max_peak_rss_mb", {}).items()
    }
    failures: list[str] = []
    rows = payload["results"]
    for row in rows:  # type: ignore[union-attr]
        n = int(row["n"])  # type: ignore[arg-type]
        budget = budgets.get(n)
        if budget is not None and float(row["seconds"]) > budget:  # type: ignore[arg-type]
            failures.append(
                f"n={row['n']}: {row['seconds']}s exceeds budget {budget}s"
            )
        rss = float(row["peak_rss_mb"])  # type: ignore[arg-type]
        rss_budget = rss_budgets.get(n)
        if rss_budget is not None and rss > rss_budget:
            failures.append(
                f"n={n}: peak RSS {rss} MiB exceeds budget {rss_budget} MiB"
            )
    if threshold.get("require_oracle_identical", False):
        checked = [r for r in rows if r["oracle_checked"]]  # type: ignore[union-attr]
        if not checked:
            failures.append(
                "exactness gate requires at least one oracle-checked size "
                f"(<= {ORACLE_MAX_NODES} nodes)"
            )
        for row in checked:
            if not row["oracle_identical"]:
                failures.append(
                    f"n={row['n']}: fast-path statistics diverged from the "
                    "object-based oracle"
                )
    failures.extend(_check_protocol(payload, threshold))
    return failures


def _check_protocol(
    payload: dict[str, object], threshold: dict[str, object]
) -> list[str]:
    """Protocol-mode gate: time and peak-RSS budgets, oracle exactness,
    slab state per node."""
    gate = threshold.get("protocol")
    rows = payload.get("protocol_results") or []  # type: ignore[union-attr]
    if not isinstance(gate, dict) or not rows:
        return []
    failures: list[str] = []
    budgets = {int(k): float(v) for k, v in gate.get("max_seconds", {}).items()}
    rss_budgets = {
        int(k): float(v) for k, v in gate.get("max_peak_rss_mb", {}).items()
    }
    max_state = gate.get("max_state_bytes_per_node")
    for row in rows:
        n = int(row["n"])  # type: ignore[arg-type]
        budget = budgets.get(n)
        if budget is not None and float(row["seconds"]) > budget:  # type: ignore[arg-type]
            failures.append(
                f"protocol n={n}: {row['seconds']}s exceeds budget {budget}s"
            )
        rss = float(row["peak_rss_mb"])  # type: ignore[arg-type]
        rss_budget = rss_budgets.get(n)
        if rss_budget is not None and rss > rss_budget:
            failures.append(
                f"protocol n={n}: peak RSS {rss} MiB exceeds "
                f"budget {rss_budget} MiB"
            )
        if not row["converged"]:
            failures.append(f"protocol n={n}: estimate did not converge")
        if max_state is not None and float(
            row["state_bytes_per_node"]  # type: ignore[arg-type]
        ) > float(max_state):
            failures.append(
                f"protocol n={n}: {row['state_bytes_per_node']:.0f} B/node "
                f"exceeds {max_state} B/node"
            )
    if gate.get("require_oracle_identical", False):
        checked = [r for r in rows if r["oracle_checked"]]
        if not checked:
            failures.append(
                "protocol exactness gate requires at least one oracle-checked "
                f"size (<= {PROTOCOL_ORACLE_MAX} nodes)"
            )
        for row in checked:
            if not row["oracle_identical"]:
                failures.append(
                    f"protocol n={row['n']}: slab run diverged from the "
                    "per-node service oracle"
                )
    return failures


# --------------------------------------------------------------------- #
# pytest entry points (tier-2 bench suite)
# --------------------------------------------------------------------- #


def test_scale_statistics_match_oracle(emit):
    """Fast path is bit-identical to the oracle at every overlapping size."""
    payload = run_suite([512, 2048, 8192], seed=2007)
    rows = payload["results"]
    assert all(row["oracle_checked"] for row in rows)
    assert all(row["oracle_identical"] for row in rows), rows
    emit("scale_oracle", _format(payload))


def test_scale_point_shape_at_16k(emit):
    """Paper-shape anchors hold at 16384 nodes (first beyond the fig sweeps)."""
    payload = run_suite([16384], seed=2007)
    write_result(RESULT_PATH, payload)
    emit("scale", _format(payload))

    (row,) = payload["results"]
    assert row["oracle_identical"] is True
    # Balanced DAT: near-constant branching and imbalance (Sec. 3.4-3.5).
    assert row["balanced_max_branching"] <= 8
    assert row["balanced_imbalance"] <= 6.0
    # Basic DAT: logarithmic; centralized: linear in n.
    assert row["balanced_imbalance"] < row["basic_imbalance"]
    assert row["basic_imbalance"] < row["centralized_imbalance"]
    assert row["centralized_max_load"] == 16384 - 1
    # Heights stay logarithmic: well under 2*log2(n).
    assert row["basic_height"] <= 28
    assert row["balanced_height"] <= 28


def test_scale_large_sweep(emit, large):
    """The full 16k-262k sweep (only with ``--large``; minutes of work)."""
    if not large:
        import pytest

        pytest.skip("pass --large to run the 16k-262k scale sweep")
    payload = run_suite(SCALE_SIZES, seed=2007)
    write_result(RESULT_PATH, payload)
    emit("scale", _format(payload))
    rows = payload["results"]
    assert all(
        row["oracle_identical"] for row in rows if row["oracle_checked"]
    )
    # Acceptance criterion: n=131072 completes in under 5 minutes.
    at_131k = next(row for row in rows if row["n"] == 131072)
    assert at_131k["seconds"] < 300.0, at_131k


def test_protocol_slab_matches_service_oracle(emit):
    """Slab protocol runs are bit-identical to per-node services (small n)."""
    rows = run_protocol_suite([512, 1024], seed=2007)
    assert all(row["oracle_checked"] for row in rows)
    assert all(row["oracle_identical"] for row in rows), rows
    assert all(row["converged"] for row in rows), rows


def test_protocol_slab_budget_at_65536(emit):
    """Acceptance: live protocol at 65536 nodes within time and memory budgets."""
    row = measure_protocol(65536, seed=2007)
    emit(
        "scale_protocol",
        f"n=65536 protocol: {row['seconds']}s, "
        f"{row['state_bytes_per_node']:.0f} B/node, "
        f"rss {row['peak_rss_mb']} MiB",
    )
    gate = json.loads(THRESHOLD_PATH.read_text())["protocol"]
    assert row["converged"], row
    assert float(row["seconds"]) < gate["max_seconds"]["65536"], row
    assert float(row["state_bytes_per_node"]) <= gate["max_state_bytes_per_node"], row


def test_statistics_gate_enforces_peak_rss_budget(tmp_path):
    """A statistics row above its size's top-level ``max_peak_rss_mb`` fails
    the gate (a finger matrix back in the analytic path would)."""
    gate = tmp_path / "threshold.json"
    gate.write_text(json.dumps({"max_seconds": {}, "max_peak_rss_mb": {"262144": 95.0}}))
    row = {"n": 262144, "seconds": 2.1, "oracle_checked": False}
    over = {"results": [{**row, "peak_rss_mb": 141.0}]}
    under = {"results": [{**row, "peak_rss_mb": 77.1}]}
    assert _check(over, gate) == ["n=262144: peak RSS 141.0 MiB exceeds budget 95.0 MiB"]
    assert _check(under, gate) == []


def test_protocol_gate_enforces_peak_rss_budget():
    """A protocol row above its size's ``max_peak_rss_mb`` fails the gate."""
    gate = {"protocol": {"max_peak_rss_mb": {"65536": 80.0}}}
    row = {"n": 65536, "seconds": 0.3, "converged": True,
           "state_bytes_per_node": 73.0, "oracle_checked": False}
    over = {"protocol_results": [{**row, "peak_rss_mb": 91.8}]}
    under = {"protocol_results": [{**row, "peak_rss_mb": 62.3}]}
    assert _check_protocol(over, gate) == [
        "protocol n=65536: peak RSS 91.8 MiB exceeds budget 80.0 MiB"
    ]
    assert _check_protocol(under, gate) == []


# --------------------------------------------------------------------- #
# Standalone CLI (CI scale-smoke job)
# --------------------------------------------------------------------- #


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes",
        default=",".join(str(n) for n in SCALE_SIZES),
        help="comma-separated ring sizes",
    )
    parser.add_argument(
        "--protocol-sizes",
        default="",
        help=(
            "comma-separated ring sizes for the live-protocol (slab) mode; "
            f"empty skips it (defaults: {PROTOCOL_SIZES})"
        ),
    )
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--ids", default="probing", help="identifier strategy")
    parser.add_argument(
        "--out", default=str(RESULT_PATH), help="where to write the JSON result"
    )
    parser.add_argument(
        "--check",
        default=None,
        help="threshold JSON: fail on time-budget or oracle-exactness regression",
    )
    args = parser.parse_args(argv)

    sizes = [int(part) for part in args.sizes.split(",") if part]
    protocol_sizes = [int(part) for part in args.protocol_sizes.split(",") if part]
    payload = run_suite(
        sizes, seed=args.seed, id_strategy=args.ids, protocol_sizes=protocol_sizes
    )
    print(_format(payload))

    out_path = pathlib.Path(args.out)
    write_result(out_path, payload, record_history=True)
    print(f"wrote {out_path}")

    if args.check:
        failures = _check(payload, pathlib.Path(args.check))
        for failure in failures:
            print(f"FAIL: {failure}")
        if failures:
            return 1
        print("scale gate: all time and memory budgets met, oracle comparisons identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
