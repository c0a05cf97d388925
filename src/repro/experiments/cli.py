"""Command-line interface: regenerate any paper figure as a text table.

Usage::

    python -m repro.experiments fig7            # tree properties sweep
    python -m repro.experiments fig8a fig8b     # load-balance figures
    python -m repro.experiments fig9 --nodes 256
    python -m repro.experiments all --quick

``--quick`` shrinks sweeps for a fast smoke pass; the defaults reproduce
the paper-scale configurations used by ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from typing import Callable

from repro import telemetry
from repro.experiments.churn_overhead import run_churn_overhead
from repro.experiments.dynamics import run_dynamics
from repro.experiments.fig7_tree_properties import (
    POWER_OF_TWO_SIZES,
    run_fig7_tree_properties,
)
from repro.experiments.fig8_load_balance import (
    run_fig8a_message_distribution,
    run_fig8b_imbalance_sweep,
)
from repro.experiments.fig9_accuracy import run_fig9_accuracy
from repro.experiments.maan_routing import run_maan_routing
from repro.experiments.report import format_table
from repro.experiments.scale import (
    PROTOCOL_SIZES,
    SCALE_SIZES,
    run_protocol_sweep,
    run_scale_sweep,
)
from repro.telemetry.stream import TelemetryStream

__all__ = ["main", "EXPERIMENTS"]


def _fig7(args: argparse.Namespace) -> str:
    sizes = [16, 64, 256] if args.quick else POWER_OF_TWO_SIZES
    points = run_fig7_tree_properties(
        sizes=sizes, n_seeds=1 if args.quick else 3, master_seed=args.seed
    )
    return format_table(
        [p.as_row() for p in points],
        title="Fig 7 — DAT tree properties vs network size",
    )


def _fig8a(args: argparse.Namespace) -> str:
    n = 128 if args.quick else args.nodes
    dist = run_fig8a_message_distribution(n_nodes=n, seed=args.seed)
    ranks = sorted({0, 1, 2, 4, 8, 16, 32, n // 4, n // 2, n - 1} & set(range(n)))
    rows = [
        {
            "rank": rank,
            "centralized": dist.centralized[rank],
            "basic": dist.basic[rank],
            "balanced": dist.balanced[rank],
        }
        for rank in ranks
    ]
    return format_table(
        rows, title=f"Fig 8(a) — messages per node by rank (n={n})"
    )


def _fig8b(args: argparse.Namespace) -> str:
    sizes = [100, 400, 1000] if args.quick else None
    points = run_fig8b_imbalance_sweep(
        sizes=sizes, n_seeds=1 if args.quick else 3, master_seed=args.seed
    )
    return format_table(
        [p.as_row() for p in points],
        title="Fig 8(b) — imbalance factor vs network size",
    )


def _fig9(args: argparse.Namespace) -> str:
    n = 64 if args.quick else args.nodes
    slots = 60 if args.quick else None
    result = run_fig9_accuracy(
        n_nodes=n,
        n_slots=slots,
        mode="continuous",
        identical_traces=False,
        push_period=1.0,
        seed=args.seed,
    )
    stride = max(len(result.times) // 20, 1)
    rows = [
        {
            "t": result.times[i],
            "actual": round(result.actual[i], 1),
            "aggregated": round(result.aggregated[i], 1),
        }
        for i in range(0, len(result.times), stride)
    ]
    table = format_table(
        rows, title=f"Fig 9 — actual vs aggregated total CPU usage (n={n})"
    )
    return (
        table
        + f"\nmean relative error: {result.mean_relative_error() * 100:.3f}%"
        + f"\nmax relative error : {result.max_relative_error() * 100:.3f}%"
    )


def _maan(args: argparse.Namespace) -> str:
    n = 64 if args.quick else 512
    result = run_maan_routing(
        n_nodes=n, n_resources=n, queries_per_point=5 if args.quick else 20,
        seed=args.seed,
    )
    rows = [
        {
            "selectivity": s,
            "lookup_hops": round(result.range_costs[s][0], 2),
            "arc_nodes": round(result.range_costs[s][1], 2),
            "multi_total": round(result.multi_costs[s], 2),
        }
        for s in sorted(result.range_costs)
    ]
    return format_table(
        rows,
        title=(
            f"MAAN routing (n={n}; registration "
            f"{result.registration_hops:.1f} hops/resource)"
        ),
    )


def _churn(args: argparse.Namespace) -> str:
    result = run_churn_overhead(
        n_nodes=16 if args.quick else 32,
        n_churn_events=4 if args.quick else 12,
        bits=16,
        seed=args.seed,
    )
    rows = [
        {"kind": kind, "messages": count}
        for kind, count in sorted(result.by_kind.items(), key=lambda kv: -kv[1])
    ]
    table = format_table(rows, title="Churn overhead — message kinds")
    return (
        table
        + f"\nDAT maintenance messages: {result.dat_maintenance_messages()}"
        + f"\nmean tree-repair rounds : {result.mean_repair_rounds():.1f}"
    )


def _dynamics(args: argparse.Namespace) -> str:
    result = run_dynamics(
        churn_rates=[0.0, 0.3] if args.quick else [0.0, 0.2, 0.5, 1.0],
        n_nodes=8 if args.quick else 16,
        duration=10.0 if args.quick else 30.0,
        seed=args.seed,
    )
    return format_table(
        [p.as_row() for p in result.points],
        title="DAT continuous COUNT accuracy under churn (Sec. 7 future work)",
    )


def _scale(args: argparse.Namespace) -> str:
    if args.protocol:
        sizes = [1024, 4096] if args.quick else PROTOCOL_SIZES
        points = run_protocol_sweep(sizes=sizes, seed=args.seed)
        return format_table(
            [p.as_row() for p in points],
            title="Scale — live protocol (slab path) at 10^4-10^5+ nodes",
        )
    sizes = [1024, 4096] if args.quick else SCALE_SIZES
    points = run_scale_sweep(sizes=sizes, seed=args.seed)
    return format_table(
        [p.as_row() for p in points],
        title="Scale — Fig 7/8 statistics at 10^4-10^5+ nodes (array-native)",
    )


EXPERIMENTS: dict[str, Callable[[argparse.Namespace], str]] = {
    "fig7": _fig7,
    "fig8a": _fig8a,
    "fig8b": _fig8b,
    "fig9": _fig9,
    "maan": _maan,
    "churn": _churn,
    "dynamics": _dynamics,
    "scale": _scale,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures as text tables.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which figures to regenerate",
    )
    parser.add_argument("--quick", action="store_true", help="small fast configs")
    parser.add_argument(
        "--protocol",
        action="store_true",
        help=(
            "scale experiment: run the live continuous-push protocol "
            "(slab path) instead of the analytical statistics sweep"
        ),
    )
    parser.add_argument("--nodes", type=int, default=512, help="network size where applicable")
    parser.add_argument("--seed", type=int, default=2007, help="master seed")
    parser.add_argument(
        "--telemetry-jsonl",
        metavar="PATH",
        help="enable telemetry and stream the JSONL event pipeline here",
    )
    parser.add_argument(
        "--trace-jsonl",
        metavar="PATH",
        help=(
            "enable distributed tracing and stream span JSONL here; "
            "read with python -m repro.telemetry.report PATH --section traces"
        ),
    )
    parser.add_argument(
        "--telemetry-prom",
        metavar="PATH",
        help="enable telemetry and write the Prometheus text export here",
    )
    parser.add_argument(
        "--telemetry-sample-window",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "sim-seconds between rolling hotspot samples on live transports "
            "(0 disables periodic sampling)"
        ),
    )
    return parser


def _write_prometheus(tel: telemetry.Telemetry, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        telemetry.write_prometheus(tel, handle)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    names = sorted(EXPERIMENTS) if "all" in args.experiments else args.experiments
    with ExitStack() as finish:
        if args.telemetry_jsonl or args.telemetry_prom or args.trace_jsonl:
            tel = telemetry.configure(
                enabled=True,
                tracing=bool(args.trace_jsonl),
                sample_window=args.telemetry_sample_window,
            )
            assert tel is not None
            # Unwound in reverse: the JSONL export closes first, then the
            # Prometheus snapshot is written, then telemetry is disabled.
            finish.callback(telemetry.disable)
            if args.telemetry_prom:
                finish.callback(_write_prometheus, tel, args.telemetry_prom)
            jsonl_path = args.telemetry_jsonl or args.trace_jsonl
            if jsonl_path:
                out = finish.enter_context(open(jsonl_path, "w", encoding="utf-8"))
                finish.callback(TelemetryStream(tel, out).close)
        for name in names:
            print(EXPERIMENTS[name](args))
            print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
