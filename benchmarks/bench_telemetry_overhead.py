"""Telemetry overhead on the balanced-DAT build hot path, in three modes.

The telemetry runtime promises that when disabled (the default), every
instrumentation site costs one module-global read and one ``is None``
test. This benchmark holds that promise to a number on the hottest
instrumented path in the repo — :meth:`DatTreeBuilder.build` routing
through the vectorized fast builder:

* **build_us**: per-build cost of the instrumented hot path with
  telemetry disabled (the production default),
* **enabled_us** / **tracing_us**: the same build path with a live
  runtime (span + counter + lazy tree-height attribute per build), without
  and with trace propagation,
* **noop_us** / **enabled_ops_us** / **tracing_ops_us**: per-call cost of
  exactly the instrumentation operations that path executes in each mode
  (attribute evaluation, the ``telemetry.span`` call, the context-manager
  protocol, the ``is not NULL_SPAN`` guard and, when enabled, the span's
  attributes and the build counter), measured in a tight loop so the
  numbers are precise to nanoseconds.

Three gates read ``benchmarks/telemetry_overhead_threshold.json``:
``noop_us / build_us`` must stay under ``max_disabled_overhead`` (3%),
``enabled_us / build_us - 1`` under ``max_enabled_overhead`` (30% —
the span attrs are lazy and the tree height is computed only when an
exporter reads it, so the enabled cost is span/counter bookkeeping and the
trees the spans keep alive), and ``(tracing_ops_us - enabled_ops_us) /
enabled_us`` under ``max_tracing_overhead`` (5%). The modes take turns in
every round; the first gate reads best sweeps, the other two the median
over rounds of one round's ratio. The disabled-mode and
tracing marginal costs are measured directly rather than by differencing
two end-to-end timings: each is under a microsecond while a 512-node build
costs over a hundred, so an A/B difference of the big numbers is dominated
by scheduler and frequency noise and would gate on the machine, not the
code (the build A/B for tracing read -14 % to +5 % on a shared 2-vCPU
host). The enabled A/B difference is tens of microseconds per build —
big enough to difference honestly once the modes take turns.

Runs two ways:

* under pytest (tier-2 bench suite): ``pytest benchmarks/bench_telemetry_overhead.py``
* standalone for the CI smoke job::

      python benchmarks/bench_telemetry_overhead.py \\
          --check benchmarks/telemetry_overhead_threshold.json \\
          --out BENCH_telemetry_overhead.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import statistics
import sys
import time

from repro import telemetry
from repro.chord.idgen import ProbingIdAssigner
from repro.chord.idspace import IdSpace
from repro.core.builder import DatScheme, DatTreeBuilder

BITS = 32
RESULT_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_telemetry_overhead.json"
THRESHOLD_PATH = pathlib.Path(__file__).parent / "telemetry_overhead_threshold.json"


#: The three modes a round times, as ``telemetry.enabled`` overrides
#: (``None``: telemetry off).
MODES = {"disabled": None, "enabled": {}, "tracing": {"tracing": True}}


def _sweeps_us(run_sweep, rounds: int) -> dict[str, list[float]]:
    """Per-call microseconds of every sweep, one per round, for each mode.

    The modes take turns within every round, so a drift in the host's speed
    over the run reaches all three alike instead of deciding the gates (timed
    one mode after another, the sub-second phases read enabled-mode overheads
    from -31 % to +55 % on a shared 2-vCPU host). The turn order rotates each
    round: a sweep that follows an enabled one reuses the memory its retained
    spans held, so a fixed order favours whichever mode comes second.
    """
    sweeps: dict[str, list[float]] = {mode: [] for mode in MODES}
    names = list(MODES)
    for turn in range(rounds):
        for mode in names[turn % 3:] + names[:turn % 3]:
            overrides = MODES[mode]
            runtime = (
                contextlib.nullcontext()
                if overrides is None
                else telemetry.enabled(**overrides)
            )
            with runtime:
                start = time.perf_counter()
                n_calls = run_sweep()
                elapsed = time.perf_counter() - start
            sweeps[mode].append(elapsed / n_calls * 1e6)
    return sweeps


def _instrumentation_sweep(tree, n_nodes: int, iterations: int = 5_000):
    """A sweep of exactly the telemetry operations one build executes.

    Replicates the ``DatTreeBuilder.build`` wrapper around the kernel:
    evaluate the span attributes, call :func:`telemetry.span` (``NULL_SPAN``
    when disabled), run the context manager, test the ``NULL_SPAN`` guard
    and, when enabled, set the root, the lazy height and the build counter.
    """
    scheme = DatScheme.BALANCED

    def sweep() -> int:
        for _ in range(iterations):
            with telemetry.span(
                "dat.build", key=tree.key, scheme=scheme.value, n=n_nodes
            ) as sp:
                if sp is not telemetry.NULL_SPAN:
                    sp.set(root=tree.root)
                    sp.set_lazy(height=lambda: tree.height)
                    telemetry.count("dat_builds_total", scheme=scheme.value)
        return iterations

    return sweep


def measure(
    n_nodes: int = 512,
    n_keys: int = 64,
    rounds: int = 21,
    seed: int = 2007,
) -> dict[str, object]:
    """Time the instrumented hot path and its instrumentation in each mode."""
    telemetry.disable()
    space = IdSpace(BITS)
    ring = ProbingIdAssigner().build_ring(space, n_nodes, rng=seed)
    keys = [(i * 0x9E3779B9) % space.size for i in range(1, n_keys + 1)]

    builder = DatTreeBuilder(ring, scheme=DatScheme.BALANCED)
    assert builder.tree_arrays(keys[0]) is not None, "fast path must be available"

    def builder_sweep() -> int:
        for key in keys:
            builder.build(key)
        return len(keys)

    builder_sweep()  # warm caches and allocators
    builds = _sweeps_us(builder_sweep, rounds)
    build_us, enabled_us, tracing_us = (min(builds[mode]) for mode in MODES)
    ops = _sweeps_us(_instrumentation_sweep(builder.build(keys[0]), n_nodes), rounds)
    noop_us, enabled_ops_us, tracing_ops_us = (min(ops[mode]) for mode in MODES)
    # The two mode-over-mode gates read the median over rounds of one
    # round's ratio: a round's sweeps ran within a second of each other, so
    # each ratio sees one host speed, and the median drops the rounds a
    # burst of load slowed (the ratio of each mode's fastest sweep read
    # enabled-mode +6 % to +49 % over runs on a shared 2-vCPU host, this
    # median +17 % to +29 % over twenty runs).
    enabled_overhead = statistics.median(
        on / off - 1.0 for off, on in zip(builds["disabled"], builds["enabled"])
    )
    # Trace propagation over plain span-enabled mode (trace-id minting and
    # context inheritance per span), as a share of an enabled build.
    tracing_overhead = statistics.median(
        (traced - on) / build
        for on, traced, build in zip(ops["enabled"], ops["tracing"], builds["enabled"])
    )

    overhead = noop_us / build_us
    return {
        "n_nodes": n_nodes,
        "n_keys": n_keys,
        "rounds": rounds,
        "scheme": DatScheme.BALANCED.value,
        "build_us_per_build": round(build_us, 2),
        "noop_us_per_call": round(noop_us, 4),
        "enabled_us_per_build": round(enabled_us, 2),
        "tracing_us_per_build": round(tracing_us, 2),
        "enabled_ops_us_per_call": round(enabled_ops_us, 4),
        "tracing_ops_us_per_call": round(tracing_ops_us, 4),
        "disabled_overhead": round(overhead, 5),
        "enabled_overhead": round(enabled_overhead, 4),
        "tracing_overhead": round(tracing_overhead, 4),
    }


def _format(row: dict[str, object]) -> str:
    return "\n".join(
        [
            "Telemetry overhead on the balanced-DAT build hot path",
            f"  ring: n={row['n_nodes']}, {row['n_keys']} keys, "
            f"{row['rounds']} rounds (times: best sweep; overheads: median round)",
            f"  instrumented build (telemetry off): {row['build_us_per_build']:>9} us/build",
            f"  disabled-mode instrumentation ops:  {row['noop_us_per_call']:>9} us/build "
            f"({float(str(row['disabled_overhead'])) * 100:.3f}% of the build)",
            f"  telemetry enabled:                  {row['enabled_us_per_build']:>9} us/build "
            f"({float(str(row['enabled_overhead'])) * 100:+.2f}%)",
            f"  tracing enabled:                    {row['tracing_us_per_build']:>9} us/build",
            f"  enabled / tracing instrumentation:  {row['enabled_ops_us_per_call']:>9} / "
            f"{row['tracing_ops_us_per_call']} us/build "
            f"({float(str(row['tracing_overhead'])) * 100:+.2f}% of the enabled build)",
        ]
    )


def _thresholds(path: pathlib.Path = THRESHOLD_PATH) -> tuple[float, float, float]:
    """(max_disabled, max_enabled, max_tracing) overheads from the gate file."""
    data = json.loads(path.read_text())
    return (
        float(data["max_disabled_overhead"]),
        float(data["max_enabled_overhead"]),
        float(data["max_tracing_overhead"]),
    )


# --------------------------------------------------------------------- #
# pytest entry point (tier-2 bench suite)
# --------------------------------------------------------------------- #


def test_overheads_under_thresholds(emit):
    row = measure()
    RESULT_PATH.parent.mkdir(exist_ok=True)
    RESULT_PATH.write_text(json.dumps(row, indent=2) + "\n")
    emit("telemetry_overhead", _format(row))
    max_disabled, max_enabled, max_tracing = _thresholds()
    assert float(str(row["disabled_overhead"])) <= max_disabled, row
    assert float(str(row["enabled_overhead"])) <= max_enabled, row
    assert float(str(row["tracing_overhead"])) <= max_tracing, row


# --------------------------------------------------------------------- #
# Standalone CLI (CI smoke job)
# --------------------------------------------------------------------- #


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=512)
    parser.add_argument("--keys", type=int, default=64)
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument(
        "--out", default=str(RESULT_PATH), help="where to write the JSON result"
    )
    parser.add_argument(
        "--check", default=None,
        help="threshold JSON: fail if disabled-mode overhead exceeds it",
    )
    args = parser.parse_args(argv)

    row = measure(
        n_nodes=args.nodes, n_keys=args.keys, rounds=args.rounds, seed=args.seed
    )
    print(_format(row))

    out_path = pathlib.Path(args.out)
    if out_path.parent != pathlib.Path("."):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(row, indent=2) + "\n")
    print(f"wrote {out_path}")

    if args.check:
        max_disabled, max_enabled, max_tracing = _thresholds(pathlib.Path(args.check))
        disabled = float(str(row["disabled_overhead"]))
        enabled = float(str(row["enabled_overhead"]))
        tracing = float(str(row["tracing_overhead"]))
        print(
            f"overhead check: disabled-mode {disabled * 100:.3f}% "
            f"(limit {max_disabled * 100:.0f}%), enabled-mode "
            f"{enabled * 100:+.2f}% (limit {max_enabled * 100:.0f}%), "
            f"tracing {tracing * 100:+.2f}% of an enabled build "
            f"(limit {max_tracing * 100:.0f}%)"
        )
        failed = False
        if disabled > max_disabled:
            print("FAIL: disabled-mode telemetry overhead regressed past threshold")
            failed = True
        if enabled > max_enabled:
            print("FAIL: enabled-mode telemetry overhead regressed past threshold")
            failed = True
        if tracing > max_tracing:
            print("FAIL: trace-propagation overhead regressed past threshold")
            failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
