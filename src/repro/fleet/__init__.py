"""Real multi-process deployment harness for the DAT reproduction.

The simulator (:mod:`repro.sim`) answers "does the algorithm scale" in
virtual time; this package answers "does the *implementation* behave the
same when every node is a real OS process exchanging real UDP datagrams".
It has four layers:

* :mod:`repro.fleet.agent` — the per-process node entrypoint
  (``python -m repro.fleet.agent``): a UDP-transport-backed Chord/DAT
  stack plus a TCP control surface (join, graceful leave, status,
  per-request route display, workload ops).
* :mod:`repro.fleet.supervisor` — the asyncio
  :class:`~repro.fleet.supervisor.FleetSupervisor`: spawns and monitors
  agents, assigns probing identifiers, bootstraps the ring in stages,
  injects SIGKILL failures with restart policies, and persists per-node
  telemetry JSONL.
* :mod:`repro.fleet.plan` / :mod:`repro.fleet.replay` — deterministic
  Fig. 9 replay: every agent regenerates the simulator's traces from the
  same seed and pushes them toward one root.
* :mod:`repro.fleet.compare` — the cross-validation report: the same
  workload is run on the discrete-event simulator and the live fleet,
  and message counts, load imbalance, and aggregation accuracy are
  checked against documented tolerances.

``python -m repro.fleet`` runs the scripted ``smoke`` and the offline
``report``. See ``docs/FLEET.md`` for the architecture tour.
"""

from __future__ import annotations

from repro.fleet.agent import AgentOptions, FleetAgent
from repro.fleet.compare import FleetComparisonReport
from repro.fleet.plan import Fig9ReplayPlan
from repro.fleet.replay import replay_fig9_live
from repro.fleet.supervisor import AgentHandle, FleetConfig, FleetSupervisor, RestartPolicy
from repro.fleet.wire import Event, Frame, Hello, Reply, Request, decode_frame, encode_frame

__all__ = [
    "AgentHandle",
    "AgentOptions",
    "Event",
    "Fig9ReplayPlan",
    "FleetAgent",
    "FleetComparisonReport",
    "FleetConfig",
    "FleetSupervisor",
    "Frame",
    "Hello",
    "Reply",
    "Request",
    "RestartPolicy",
    "decode_frame",
    "encode_frame",
    "replay_fig9_live",
]
