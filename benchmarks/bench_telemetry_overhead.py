"""Disabled-mode telemetry overhead on the balanced-DAT build hot path.

The telemetry runtime promises that when disabled (the default), every
instrumentation site costs one module-global read and one ``is None``
test. This benchmark holds that promise to a number on the hottest
instrumented path in the repo — :meth:`DatTreeBuilder.build` routing
through the vectorized fast builder:

* **build_us**: per-build cost of the instrumented hot path with
  telemetry disabled (the production default),
* **noop_us**: per-call cost of exactly the instrumentation operations
  that path executes in disabled mode (attribute evaluation, the
  ``telemetry.span`` call returning ``NULL_SPAN``, the context-manager
  protocol, and the ``is not NULL_SPAN`` guard), measured in a tight
  loop so the number is precise to nanoseconds,
* **enabled_us**: the same build path with a live runtime (span +
  counter + lazy tree-height attribute per build).

Two gates read ``benchmarks/telemetry_overhead_threshold.json``:
``noop_us / build_us`` must stay under ``max_disabled_overhead`` (3%),
and ``enabled_us / build_us - 1`` under ``max_enabled_overhead`` (30% —
the span attrs are lazy and the tree height is seeded by the vectorized
builder, so the enabled cost is span/counter bookkeeping only). The
disabled-mode marginal cost is measured directly rather than by
differencing two end-to-end timings: the no-op path costs well under a
microsecond while a 512-node build costs hundreds, so an A/B difference
of the big numbers is dominated by scheduler and frequency noise and
would gate on the machine, not the code. The enabled A/B difference is
tens of microseconds per build — big enough to difference honestly.

Runs two ways:

* under pytest (tier-2 bench suite): ``pytest benchmarks/bench_telemetry_overhead.py``
* standalone for the CI smoke job::

      python benchmarks/bench_telemetry_overhead.py \\
          --check benchmarks/telemetry_overhead_threshold.json \\
          --out BENCH_telemetry_overhead.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro import telemetry
from repro.chord.idgen import ProbingIdAssigner
from repro.chord.idspace import IdSpace
from repro.core.builder import DatScheme, DatTreeBuilder

BITS = 32
RESULT_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_telemetry_overhead.json"
THRESHOLD_PATH = pathlib.Path(__file__).parent / "telemetry_overhead_threshold.json"


def _best_sweep_us(run_sweep, rounds: int) -> float:
    """Per-build microseconds of the fastest sweep (noise-resistant)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        n_builds = run_sweep()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / n_builds * 1e6)
    return best


def _noop_path_us(ring, rounds: int, iterations: int = 50_000) -> float:
    """Per-call cost of the disabled-mode instrumentation operations.

    Replicates exactly what the ``DatTreeBuilder.build`` hot path executes
    for telemetry when disabled: evaluate the span attributes, call
    :func:`telemetry.span` (returns ``NULL_SPAN``), run the context
    manager, and test the ``NULL_SPAN`` guard.
    """
    assert telemetry.active() is None, "measure the no-op path with telemetry off"
    key = 12345
    scheme = DatScheme.BALANCED
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(iterations):
            with telemetry.span(
                "dat.build", key=key, scheme=scheme.value, n=len(ring)
            ) as sp:
                if sp is not telemetry.NULL_SPAN:
                    raise AssertionError("telemetry unexpectedly enabled")
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / iterations * 1e6)
    return best


def measure(
    n_nodes: int = 512,
    n_keys: int = 64,
    rounds: int = 7,
    seed: int = 2007,
) -> dict[str, object]:
    """Time the instrumented hot path and the marginal no-op cost."""
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
    build_us = _best_sweep_us(builder_sweep, rounds)
    noop_us = _noop_path_us(ring, rounds)
    with telemetry.enabled():
        enabled_us = _best_sweep_us(builder_sweep, rounds)
    with telemetry.enabled(tracing=True):
        tracing_us = _best_sweep_us(builder_sweep, rounds)
    telemetry.disable()

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
        "disabled_overhead": round(overhead, 5),
        "enabled_overhead": round(enabled_us / build_us - 1.0, 4),
        # Marginal cost of trace propagation over plain span-enabled mode:
        # trace-id minting + context inheritance per span.
        "tracing_overhead": round(tracing_us / enabled_us - 1.0, 4),
    }


def _format(row: dict[str, object]) -> str:
    return "\n".join(
        [
            "Telemetry overhead on the balanced-DAT build hot path",
            f"  ring: n={row['n_nodes']}, {row['n_keys']} keys, "
            f"best of {row['rounds']} sweeps",
            f"  instrumented build (telemetry off): {row['build_us_per_build']:>9} us/build",
            f"  disabled-mode instrumentation ops:  {row['noop_us_per_call']:>9} us/build "
            f"({float(str(row['disabled_overhead'])) * 100:.3f}% of the build)",
            f"  telemetry enabled:                  {row['enabled_us_per_build']:>9} us/build "
            f"({float(str(row['enabled_overhead'])) * 100:+.2f}%)",
            f"  tracing enabled:                    {row['tracing_us_per_build']:>9} us/build "
            f"({float(str(row['tracing_overhead'])) * 100:+.2f}% over span-enabled)",
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
    parser.add_argument("--rounds", type=int, default=7)
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
            f"tracing {tracing * 100:+.2f}% over span-enabled "
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
