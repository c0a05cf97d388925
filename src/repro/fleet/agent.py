"""Fleet node agent: one real OS process hosting one protocol node.

``python -m repro.fleet.agent`` is the per-process entrypoint the
supervisor spawns. Each agent boots a genuine socket-backed stack — a
:class:`~repro.sim.udprpc.UdpRpcTransport` (real UDP datagrams on
127.0.0.1), a :class:`~repro.chord.node.ChordProtocolNode`, and a
:class:`~repro.core.service.DatNodeService` — then connects back to the
supervisor's TCP control port and speaks the :mod:`repro.fleet.wire`
protocol:

* it introduces itself with a :class:`~repro.fleet.wire.Hello` frame
  carrying its identifier and the UDP address its transport bound;
* it serves control requests (``join`` / ``leave`` / ``status`` /
  ``route`` / workload ops) on the control-reader thread;
* a background thread streams one ``telemetry`` event per sampling
  interval — the per-node JSONL feed the supervisor persists and the
  comparison report aggregates.

Threading model: the UDP receive thread dispatches protocol handlers, the
transport's timer threads run maintenance ticks, and the control-reader
thread applies supervision commands — the same looseness the transport's
timer callbacks already have (protocol state is only ever mutated by
short, idempotent steps; see ``docs/FLEET.md``).

``repro.fleet`` may read the wall clock (library code may not; see
``tests/unit/test_import_graph.py``): a real deployment *is* wall-clocked,
exactly like ``UdpRpcTransport.now`` in :mod:`repro.sim.udprpc`.
"""

from __future__ import annotations

import argparse
import logging
import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro import telemetry
from repro.chord.idspace import IdSpace
from repro.chord.node import ChordConfig, ChordProtocolNode
from repro.core.service import DatNodeService
from repro.errors import FleetError, FleetWireError
from repro.fleet.wire import Event, Frame, Hello, Reply, Request, decode_frame, encode_frame
from repro.gma.traces import CpuTrace, TraceGenerator
from repro.sim.udprpc import UdpRpcTransport

__all__ = ["AgentOptions", "FleetAgent", "main"]

logger = logging.getLogger("repro.fleet.agent")


@dataclass(frozen=True)
class AgentOptions:
    """Everything one agent process needs to boot, straight from argv."""

    ident: int
    bits: int
    supervisor_host: str
    supervisor_port: int
    scheme: str = "balanced"
    stabilize_interval: float = 0.1
    fix_fingers_interval: float = 0.05
    check_predecessor_interval: float = 0.25
    rpc_timeout: float = 0.5
    telemetry_interval: float = 0.5
    #: Initial fleet-size hint for the balanced scheme's mean-gap estimate;
    #: refreshed by every ``add_routes`` broadcast.
    n_hint: int = 1
    #: When set, the agent enables distributed tracing (site = its ident)
    #: and streams its span export to this JSONL path; the supervisor
    #: aligns the per-agent clocks via the ``Hello.clock`` handshake.
    span_jsonl: str | None = None

    def chord_config(self) -> ChordConfig:
        return ChordConfig(
            stabilize_interval=self.stabilize_interval,
            fix_fingers_interval=self.fix_fingers_interval,
            check_predecessor_interval=self.check_predecessor_interval,
            rpc_timeout=self.rpc_timeout,
        )


class FleetAgent:
    """The in-process controller for one fleet node.

    Wires the protocol stack to the control plane; :meth:`run` blocks until
    the supervisor tells the agent to leave/shut down or the control
    connection drops (a dead supervisor must not leave orphan processes).
    """

    def __init__(self, options: AgentOptions) -> None:
        self.options = options
        self.space = IdSpace(options.bits)
        # Tracing must be configured before the transport exists: the
        # transport binds the telemetry clock (monotonic offset from its
        # birth) at construction, and that clock reading is what the Hello
        # handshake reports for fleet-wide alignment.
        self._live_export: telemetry.LiveExport | None = None
        self._owns_telemetry = False
        if options.span_jsonl:
            tel = telemetry.configure(
                enabled=True,
                tracing=True,
                allow_wall_clock=True,
                site=str(options.ident),
            )
            assert tel is not None
            self._live_export = telemetry.LiveExport(
                tel, jsonl_path=options.span_jsonl
            )
            self._owns_telemetry = True
        self.transport = UdpRpcTransport()
        self.node = ChordProtocolNode(
            options.ident, self.space, self.transport, options.chord_config()
        )
        self._n_estimate = max(options.n_hint, 1)
        self.service = DatNodeService(
            self.node,
            finger_provider=self.node.finger_table,
            value_provider=self._read_value,
            scheme=options.scheme,
            d0_provider=self._mean_gap,
        )
        self._started = time.monotonic()
        self._value = 0.0
        self._trace: CpuTrace | None = None
        self._slot = 0
        self._stop = threading.Event()
        self._exit_code = 0
        self._sock: socket.socket | None = None
        self._send_lock = threading.Lock()
        self._telemetry_thread: threading.Thread | None = None
        self._ops: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {
            "ping": self._op_ping,
            "create": self._op_create,
            "join": self._op_join,
            "add_routes": self._op_add_routes,
            "status": self._op_status,
            "route": self._op_route,
            "fix_fingers": self._op_fix_fingers,
            "set_value": self._op_set_value,
            "load_trace": self._op_load_trace,
            "set_slot": self._op_set_slot,
            "start_continuous": self._op_start_continuous,
            "stop_continuous": self._op_stop_continuous,
            "read_estimate": self._op_read_estimate,
            "leave": self._op_leave,
            "shutdown": self._op_shutdown,
        }

    # ------------------------------------------------------------------ #
    # Stack plumbing
    # ------------------------------------------------------------------ #

    def _read_value(self) -> float:
        trace = self._trace
        if trace is not None:
            return trace.at_slot(self._slot)
        return self._value

    def _mean_gap(self) -> float:
        return self.space.size / max(self._n_estimate, 1)

    # ------------------------------------------------------------------ #
    # Control-plane main loop
    # ------------------------------------------------------------------ #

    def run(self) -> int:
        """Connect to the supervisor and serve control requests until told
        to exit. Returns the process exit code."""
        sock = socket.create_connection(
            (self.options.supervisor_host, self.options.supervisor_port), timeout=30.0
        )
        sock.settimeout(None)
        self._sock = sock
        try:
            host, port = self.transport.address_of(self.options.ident)
            tel = telemetry.active()
            self._send(
                Hello(
                    ident=self.options.ident,
                    pid=os.getpid(),
                    udp_host=host,
                    udp_port=port,
                    clock=tel.now() if tel is not None else 0.0,
                )
            )
            self._telemetry_thread = threading.Thread(
                target=self._telemetry_loop, name="fleet-telemetry", daemon=True
            )
            self._telemetry_thread.start()
            self._serve(sock)
        finally:
            self._stop.set()
            self.close()
        return self._exit_code

    def _serve(self, sock: socket.socket) -> None:
        """Read control frames until EOF or a stop-triggering op."""
        stream = sock.makefile("rb")
        try:
            while not self._stop.is_set():
                line = stream.readline()
                if not line:
                    logger.info("control connection closed; exiting")
                    return
                try:
                    frame = decode_frame(line)
                except FleetWireError as exc:
                    logger.warning("dropping malformed control frame: %s", exc)
                    continue
                if isinstance(frame, Request):
                    self._send(self._execute(frame))
                else:
                    logger.warning("unexpected frame on agent control plane: %r", frame)
        finally:
            stream.close()

    def _execute(self, request: Request) -> Reply:
        handler = self._ops.get(request.op)
        if handler is None:
            return Reply(
                req_id=request.req_id, ok=False, error=f"unknown op {request.op!r}"
            )
        try:
            result = handler(request.args)
        except FleetError as exc:
            return Reply(req_id=request.req_id, ok=False, error=str(exc))
        except Exception as exc:
            # The control plane is a fault barrier: any exception from an op handler
            # (bad args, protocol state, ...) must become an error Reply,
            # not kill the agent; the supervisor decides what to do.
            logger.exception("op %s failed", request.op)
            return Reply(
                req_id=request.req_id,
                ok=False,
                error=f"{type(exc).__name__}: {exc}",
            )
        return Reply(req_id=request.req_id, ok=True, result=result)

    def _send(self, frame: Frame) -> None:
        sock = self._sock
        if sock is None:
            return
        data = encode_frame(frame)
        with self._send_lock:
            try:
                sock.sendall(data)
            except OSError:
                # Supervisor went away mid-write: stop serving; run()'s
                # finally block tears the stack down.
                self._stop.set()

    def close(self) -> None:
        """Tear down the whole stack (service, maintenance, transport, control)."""
        self.service.close()
        self.node.stop_maintenance()
        self.transport.close()
        if self._live_export is not None:
            self._live_export.close()
            self._live_export = None
        if self._owns_telemetry:
            telemetry.disable()
            self._owns_telemetry = False
        sock = self._sock
        self._sock = None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    # Telemetry stream
    # ------------------------------------------------------------------ #

    def _telemetry_loop(self) -> None:
        # First sample immediately: every agent that said hello leaves at
        # least one telemetry record, however short its life.
        interval = max(self.options.telemetry_interval, 0.05)
        while True:
            self._send(Event(name="telemetry", data=self.snapshot()))
            if self._stop.wait(interval):
                return

    def snapshot(self) -> dict[str, Any]:
        """One status/telemetry record (also the ``status`` op's reply)."""
        load = self.transport.stats.load(self.options.ident)
        fingers_filled = sum(1 for entry in self.node.fingers if entry is not None)
        pushes: dict[str, int] = {}
        estimates: dict[str, float | None] = {}
        for key, state in list(self.service._continuous.items()):
            pushes[str(key)] = state.pushes_sent
            estimate = state.last_estimate
            estimates[str(key)] = float(estimate) if estimate is not None else None
        return {
            "t": round(time.monotonic() - self._started, 3),
            "ident": self.options.ident,
            "pid": os.getpid(),
            "successor": self.node.successor,
            "predecessor": self.node.predecessor,
            "fingers_filled": fingers_filled,
            "sent": load.sent,
            "received": load.received,
            "bytes_sent": load.bytes_sent,
            "bytes_received": load.bytes_received,
            "pending_calls": self.transport.pending_calls(),
            "pushes": pushes,
            "estimates": estimates,
            "slot": self._slot,
            "value": self._read_value(),
        }

    # ------------------------------------------------------------------ #
    # Control ops
    # ------------------------------------------------------------------ #

    def _op_ping(self, args: dict[str, Any]) -> dict[str, Any]:
        return {"pong": True, "ident": self.options.ident}

    def _op_create(self, args: dict[str, Any]) -> dict[str, Any]:
        self.node.create()
        return {"created": True}

    def _op_join(self, args: dict[str, Any]) -> dict[str, Any]:
        bootstrap = int(args["bootstrap"])
        timeout = float(args.get("timeout", 15.0))
        done = threading.Event()
        outcome = {"joined": False}

        def on_joined() -> None:
            outcome["joined"] = True
            done.set()

        def on_failure() -> None:
            done.set()

        self.node.join(bootstrap, on_joined=on_joined, on_failure=on_failure)
        if not done.wait(timeout):
            raise FleetError(f"join via {bootstrap} did not resolve within {timeout}s")
        if not outcome["joined"]:
            raise FleetError(f"join via {bootstrap} failed")
        if self.node.successor == self.options.ident:
            # The self-lookup resolved to our own identifier: the ring still
            # carried a stale entry for it (rejoin racing failure detection).
            # A lone ring next to a live bootstrap is never a successful
            # join — surface it so the supervisor retries.
            raise FleetError(
                f"join via {bootstrap} landed on a stale self-successor"
            )
        return {"joined": True, "successor": self.node.successor}

    def _op_add_routes(self, args: dict[str, Any]) -> dict[str, Any]:
        routes = args.get("routes", {})
        for ident_str, addr in routes.items():
            host, port = str(addr[0]), int(addr[1])
            self.transport.add_route(int(ident_str), host, port)
        n = args.get("n")
        if n is not None:
            self._n_estimate = max(int(n), 1)
        return {"routes": len(routes), "n": self._n_estimate}

    def _op_status(self, args: dict[str, Any]) -> dict[str, Any]:
        return self.snapshot()

    def _op_route(self, args: dict[str, Any]) -> dict[str, Any]:
        """Resolve ``successor(key)`` and return the forwarding path taken.

        The per-request route display of the deployment scenario set: the
        recursive lookup records every hop it traverses, and the terminal
        node reports the full path back to the origin.
        """
        key = int(args["key"])
        timeout = float(args.get("timeout", 10.0))
        done = threading.Event()
        outcome: dict[str, Any] = {}

        def on_result(result: int, path: list[int]) -> None:
            outcome["result"] = result
            outcome["path"] = path
            done.set()

        def on_failure(_key: int) -> None:
            done.set()

        self.node.lookup(key, on_result, on_failure)
        if not done.wait(timeout) or "result" not in outcome:
            raise FleetError(f"lookup for key {key} did not resolve")
        path = list(outcome["path"])
        return {
            "key": key,
            "result": outcome["result"],
            "path": path,
            "hops": len(path),
        }

    def _op_fix_fingers(self, args: dict[str, Any]) -> dict[str, Any]:
        self.node.fix_all_fingers()
        return {"fixed": self.space.bits}

    def _op_set_value(self, args: dict[str, Any]) -> dict[str, Any]:
        self._trace = None
        self._value = float(args["value"])
        return {"value": self._value}

    def _op_load_trace(self, args: dict[str, Any]) -> dict[str, Any]:
        """Regenerate this node's CPU trace from the shared workload seed.

        Every agent derives the same fleet of traces from ``(seed, n)``
        deterministically, then keeps the one at its ``index`` — no trace
        bytes cross the control plane, yet supervisor, simulator twin, and
        every agent agree exactly on who reads what.
        """
        seed = int(args["seed"])
        index = int(args["index"])
        n = int(args["n"])
        identical = bool(args.get("identical", True))
        generator = TraceGenerator(
            noise_scale=float(args.get("noise_scale", 5.0)), seed=seed
        )
        traces = generator.generate_fleet(n, identical=identical)
        if not 0 <= index < len(traces):
            raise FleetError(f"trace index {index} out of range for fleet of {n}")
        self._trace = traces[index]
        self._slot = int(args.get("slot", 0))
        return {"n_slots": self._trace.n_slots, "period": self._trace.period}

    def _op_set_slot(self, args: dict[str, Any]) -> dict[str, Any]:
        self._slot = int(args["slot"])
        return {"slot": self._slot, "value": self._read_value()}

    def _op_start_continuous(self, args: dict[str, Any]) -> dict[str, Any]:
        key = int(args["key"])
        root = int(args["root"])
        aggregate = str(args.get("aggregate", "sum"))
        interval = float(args.get("interval", 0.25))
        self.service.start_continuous(key, root, aggregate, interval)
        return {"key": key, "root": root, "interval": interval}

    def _op_stop_continuous(self, args: dict[str, Any]) -> dict[str, Any]:
        key = int(args["key"])
        self.service.stop_continuous(key)
        return {"key": key}

    def _op_read_estimate(self, args: dict[str, Any]) -> dict[str, Any]:
        key = int(args["key"])
        state = self.service._continuous.get(key)
        if state is None:
            raise FleetError(f"no continuous aggregation active for key {key}")
        estimate = state.last_estimate
        return {
            "key": key,
            "estimate": float(estimate) if estimate is not None else None,
            "pushes_sent": state.pushes_sent,
        }

    def _op_leave(self, args: dict[str, Any]) -> dict[str, Any]:
        """Graceful departure: close services, notify ring neighbors, exit."""
        self.service.close()
        self.node.leave()
        self._stop.set()
        return {"left": True}

    def _op_shutdown(self, args: dict[str, Any]) -> dict[str, Any]:
        """Exit without the ring handoff (supervisor-driven teardown)."""
        self._stop.set()
        return {"stopping": True}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet.agent",
        description="Fleet node agent (spawned by the fleet supervisor).",
    )
    parser.add_argument("--ident", type=int, required=True)
    parser.add_argument("--bits", type=int, required=True)
    parser.add_argument("--supervisor-host", default="127.0.0.1")
    parser.add_argument("--supervisor-port", type=int, required=True)
    parser.add_argument("--scheme", default="balanced", choices=("basic", "balanced"))
    parser.add_argument("--stabilize-interval", type=float, default=0.1)
    parser.add_argument("--fix-fingers-interval", type=float, default=0.05)
    parser.add_argument("--check-predecessor-interval", type=float, default=0.25)
    parser.add_argument("--rpc-timeout", type=float, default=0.5)
    parser.add_argument("--telemetry-interval", type=float, default=0.5)
    parser.add_argument("--n-hint", type=int, default=1)
    parser.add_argument(
        "--span-jsonl",
        default=None,
        help="enable distributed tracing and stream this agent's span export here",
    )
    parser.add_argument("--log-level", default="WARNING")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper(), logging.WARNING),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    agent = FleetAgent(
        AgentOptions(
            ident=args.ident,
            bits=args.bits,
            supervisor_host=args.supervisor_host,
            supervisor_port=args.supervisor_port,
            scheme=args.scheme,
            stabilize_interval=args.stabilize_interval,
            fix_fingers_interval=args.fix_fingers_interval,
            check_predecessor_interval=args.check_predecessor_interval,
            rpc_timeout=args.rpc_timeout,
            telemetry_interval=args.telemetry_interval,
            n_hint=args.n_hint,
            span_jsonl=args.span_jsonl,
        )
    )
    return agent.run()


if __name__ == "__main__":
    raise SystemExit(main())
