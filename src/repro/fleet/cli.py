"""CLI for the fleet harness: ``python -m repro.fleet``.

* ``smoke`` runs a :class:`~repro.fleet.supervisor.FleetSupervisor` in
  the foreground as a scripted one-shot: boot, converge, Fig. 9 replay
  against its simulator twin, SIGKILL + rejoin, teardown;
* ``report`` reads ``--state-dir`` offline: the per-agent table from the
  supervisor's telemetry streams, then the trace roll-up and gate of
  :mod:`repro.telemetry.report`.

The walkthrough lives in ``docs/FLEET.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import re
import sys
from pathlib import Path
from typing import Any

from repro.errors import FleetError
from repro.fleet.compare import compare_fig9, run_fig9_sim_twin
from repro.fleet.plan import plan_fleet_fig9
from repro.fleet.replay import replay_fig9_live
from repro.fleet.supervisor import FleetConfig, FleetSupervisor
from repro.telemetry.report import (
    check_traces,
    load,
    render_traces,
    trace_rollup,
    trace_set,
)
from repro.telemetry.traces import TraceSet

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Multi-process deployment harness for the DAT reproduction.",
    )
    parser.add_argument(
        "--state-dir",
        default=".fleet",
        help="supervisor state directory (telemetry and span JSONL)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    smoke = sub.add_parser(
        "smoke",
        help="one-shot CI smoke: boot, converge, replay, kill/rejoin, compare, down",
    )
    smoke.add_argument("-n", "--nodes", type=int, default=16)
    smoke.add_argument("--bits", type=int, default=16)
    smoke.add_argument("--scheme", default="balanced", choices=("basic", "balanced"))
    smoke.add_argument("--id-strategy", default="probing")
    smoke.add_argument("--seed", type=int, default=2007)
    smoke.add_argument("--join-batch", type=int, default=8)
    smoke.add_argument("--stabilize-interval", type=float, default=0.1)
    smoke.add_argument("--rpc-timeout", type=float, default=0.5)
    smoke.add_argument(
        "--trace-spans",
        action="store_true",
        help=(
            "enable distributed tracing on every agent (span exports + clock "
            "offsets under --state-dir; merge with the `report` subcommand)"
        ),
    )
    smoke.add_argument("--slots", type=int, default=4, help="fig9 slots to replay")
    smoke.add_argument(
        "--report", default="", help="write the comparison report JSON here"
    )

    report = sub.add_parser(
        "report",
        help="per-agent rollups plus the trace roll-up of the state dir's exports",
    )
    report.add_argument("--json", action="store_true", help="machine-readable output")
    report.add_argument(
        "--require-traces",
        metavar="ROOT",
        default=None,
        help="exit 1 unless cross-node traces rooted at ROOT assembled cleanly",
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> FleetConfig:
    return FleetConfig(
        n_nodes=args.nodes,
        bits=args.bits,
        scheme=args.scheme,
        id_strategy=args.id_strategy,
        seed=args.seed,
        join_batch=args.join_batch,
        stabilize_interval=args.stabilize_interval,
        rpc_timeout=args.rpc_timeout,
        state_dir=args.state_dir,
        trace_spans=args.trace_spans,
    )


# --------------------------------------------------------------------- #
# Offline report over a state dir
# --------------------------------------------------------------------- #

_TELEMETRY_RE = re.compile(r"telemetry-(\d+)\.jsonl$")


def _agent_rollups(
    control: dict[Path, list[dict[str, Any]]],
) -> dict[str, dict[str, Any]]:
    """Per-agent activity from the supervisor's ``telemetry-<ident>`` streams."""
    rollups: dict[str, dict[str, Any]] = {}
    for path, records in control.items():
        match = _TELEMETRY_RE.search(path.name)
        if match is None:
            continue
        ident = match.group(1)
        samples = [
            record["data"]
            for record in records
            if record.get("event") == "telemetry"
            and isinstance(record.get("data"), dict)
        ]
        if not samples:
            rollups[ident] = {"samples": 0}
            continue
        last = samples[-1]
        pushes = last.get("pushes") or {}
        rollups[ident] = {
            "samples": len(samples),
            "last_t": last.get("t"),
            "sent": last.get("sent"),
            "received": last.get("received"),
            "fingers_filled": last.get("fingers_filled"),
            "pushes": sum(int(v) for v in pushes.values()) if pushes else 0,
            "estimates": last.get("estimates") or {},
        }
    return rollups


def _fleet_report(state_dir: str) -> tuple[dict[str, Any], TraceSet | None]:
    """The agents table and the shared trace roll-up of one state dir.

    The directory is read by :func:`repro.telemetry.report.load`, so span
    exports are aligned by its ``clock-offsets.json`` and truncated or
    malformed lines follow the report's one policy. Traces are ``None``
    when the fleet ran without ``--trace-spans``.
    """
    path = Path(state_dir)
    if not path.is_dir():
        raise FleetError(f"{path}: no such fleet state directory")
    try:
        export = load([path])
    except (OSError, ValueError) as exc:
        raise FleetError(str(exc)) from exc
    for note in export.notes:
        sys.stderr.write(f"note: {note}\n")
    agents = _agent_rollups(export.control)
    if not agents:
        raise FleetError(f"no telemetry-*.jsonl streams in {state_dir}")
    traces = trace_set(export.events) if export.files else None
    report: dict[str, Any] = {
        "state_dir": str(path),
        "agents": agents,
        "n_agents": len(agents),
        "total_pushes": sum(int(a.get("pushes", 0)) for a in agents.values()),
        "traces": None
        if traces is None
        else {**trace_rollup(traces), "offsets": export.offsets},
    }
    return report, traces


def _trace_checks(
    state_dir: str, traces: TraceSet | None, root: str
) -> list[tuple[bool, str]]:
    """The report's trace gate with the fleet's two conditions added.

    A ``root`` trace must have crossed a process boundary, and orphans must
    stay a minority (parents resolved across the per-agent files). Depth is
    not required: pushes still in flight at teardown end shallow.
    """
    if traces is None:
        return [(False, f"no span exports in {state_dir}")]
    return check_traces(
        traces, require_root=root, min_depth=0, cross_node=True, orphan_minority=True
    )


def _render_fleet_report(report: dict[str, Any], traces: TraceSet | None) -> str:
    lines = [
        f"fleet report: {report['state_dir']} — {report['n_agents']} agents, "
        f"{report['total_pushes']} pushes",
    ]
    for ident in sorted(report["agents"], key=int):
        agent = report["agents"][ident]
        if not agent.get("samples"):
            lines.append(f"  agent {ident}: no telemetry samples")
            continue
        lines.append(
            f"  agent {ident}: samples={agent['samples']} "
            f"t={agent.get('last_t')} sent={agent.get('sent')} "
            f"recv={agent.get('received')} pushes={agent.get('pushes')}"
        )
    if traces is None:
        lines.append("traces: none (fleet ran without --trace-spans)")
    else:
        lines.extend(render_traces(traces))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- #
# Scripted smoke
# --------------------------------------------------------------------- #


async def _run_smoke(config: FleetConfig, slots: int, report_path: str) -> int:
    """The CI smoke: boot, converge, fig9 replay, kill + rejoin, compare.

    With ``--trace-spans`` the smoke additionally merges the per-agent
    span exports (after teardown, so every agent has flushed) into the
    fleet-wide report and requires cross-node ``dat.push`` traces to have
    assembled — the distributed-tracing round trip over real processes.
    """
    supervisor = FleetSupervisor(config)
    try:
        await supervisor.start()
        if not await supervisor.wait_converged():
            _emit({"smoke": "fail", "reason": "fleet did not converge after boot"})
            return 1

        members = supervisor.live_idents()
        plan = plan_fleet_fig9(seed=config.seed, n_nodes=len(members), n_slots=slots)
        live = await replay_fig9_live(supervisor, plan)
        sim = run_fig9_sim_twin(members, plan, supervisor.space, scheme=config.scheme)
        report = compare_fig9(live, sim)

        # Failure injection: SIGKILL a non-root member, then rejoin it and
        # require re-convergence of the surviving+rejoined ring.
        victim = next(i for i in members if i != live.root)
        await supervisor.kill(victim)
        await supervisor.join_agent(victim)
        reconverged = await supervisor.wait_converged()
    finally:
        await supervisor.down()

    payload: dict[str, Any] = {
        "comparison_passed": report.passed,
        "reconverged_after_kill": reconverged,
        "report": json.loads(report.to_json()),
    }
    passed = report.passed and reconverged
    if config.trace_spans:
        state_dir = str(config.state_dir)
        fleet_report, traces = _fleet_report(state_dir)
        trace_failures = [
            message
            for passed, message in _trace_checks(state_dir, traces, "dat.push")
            if not passed
        ]
        payload["fleet_report"] = fleet_report
        payload["trace_failures"] = trace_failures
        passed = passed and not trace_failures
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    payload["smoke"] = "pass" if passed else "fail"
    _emit(payload)
    return 0 if passed else 1


def _emit(payload: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "smoke":
            return asyncio.run(
                _run_smoke(_config_from_args(args), args.slots, args.report)
            )
        if args.command == "report":
            fleet_report, traces = _fleet_report(args.state_dir)
            if args.json:
                _emit(fleet_report)
            else:
                sys.stdout.write(_render_fleet_report(fleet_report, traces))
            if args.require_traces:
                results = _trace_checks(args.state_dir, traces, args.require_traces)
                for passed, message in results:
                    prefix = "check ok: " if passed else "CHECK FAIL: "
                    sys.stdout.write(prefix + message + "\n")
                if not all(passed for passed, _message in results):
                    return 1
    except FleetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0
