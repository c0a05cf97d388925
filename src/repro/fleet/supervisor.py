"""Fleet supervisor: spawn, monitor, and command hundreds of agent processes.

:class:`FleetSupervisor` is the asyncio control-plane hub of the
deployment harness. It

* spawns one ``python -m repro.fleet.agent`` OS process per node, with
  identifiers assigned up front by the configured strategy (probing by
  default — the paper's load-balancing identifier assignment) so the live
  ring matches the simulator's for the same seed;
* accepts each agent's control TCP connection, collects its
  :class:`~repro.fleet.wire.Hello` (PID + bound UDP address), and
  broadcasts the full route book so every transport can reach every peer;
* bootstraps the ring in stages: the seed agent ``create``s, the rest
  join in batches sized by ``join_batch`` (joining through an
  already-stable member keeps lookup churn bounded);
* injects failures (SIGKILL) with an optional restart-and-rejoin policy,
  mirrors graceful ``leave``, and persists every agent's telemetry stream
  as one JSONL file per node under ``state_dir``.

The supervisor never touches protocol internals — everything goes through
the agents' control ops, exactly as a remote deployment would.
"""

from __future__ import annotations

import asyncio
import json
import logging
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, AsyncIterator, Iterable

from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.errors import FleetError
from repro.fleet.wire import Event, Hello, Reply, Request, decode_frame, encode_frame

__all__ = ["FleetConfig", "RestartPolicy", "AgentHandle", "FleetSupervisor"]

logger = logging.getLogger("repro.fleet.supervisor")


@dataclass(frozen=True)
class RestartPolicy:
    """What the supervisor does when an agent process dies unexpectedly."""

    enabled: bool = False
    max_restarts: int = 1
    delay: float = 0.25


@dataclass(frozen=True)
class FleetConfig:
    """Everything needed to boot and run one fleet."""

    n_nodes: int = 16
    bits: int = 16
    scheme: str = "balanced"
    id_strategy: str = "probing"
    seed: int = 2007
    join_batch: int = 8
    stabilize_interval: float = 0.1
    fix_fingers_interval: float = 0.05
    check_predecessor_interval: float = 0.25
    rpc_timeout: float = 0.5
    telemetry_interval: float = 0.5
    hello_timeout: float = 30.0
    call_timeout: float = 15.0
    converge_timeout: float = 60.0
    state_dir: str = ".fleet"
    restart: RestartPolicy = field(default_factory=RestartPolicy)
    python: str = sys.executable
    log_level: str = "WARNING"
    #: Enable distributed tracing on every agent: each one streams its
    #: span export to ``state_dir/spans-<ident>.jsonl`` and the supervisor
    #: records per-agent clock offsets (from the Hello handshake) in
    #: ``state_dir/clock-offsets.json`` for trace alignment.
    trace_spans: bool = False

    @property
    def space(self) -> IdSpace:
        return IdSpace(self.bits)

    def _agent_argv(self, ident: int, control_port: int, n_hint: int) -> list[str]:
        return [
            self.python,
            "-m",
            "repro.fleet.agent",
            "--ident", str(ident),
            "--bits", str(self.bits),
            "--supervisor-host", "127.0.0.1",
            "--supervisor-port", str(control_port),
            "--scheme", self.scheme,
            "--stabilize-interval", str(self.stabilize_interval),
            "--fix-fingers-interval", str(self.fix_fingers_interval),
            "--check-predecessor-interval", str(self.check_predecessor_interval),
            "--rpc-timeout", str(self.rpc_timeout),
            "--telemetry-interval", str(self.telemetry_interval),
            "--n-hint", str(n_hint),
            "--log-level", self.log_level,
        ] + (
            ["--span-jsonl", str(Path(self.state_dir) / f"spans-{ident}.jsonl")]
            if self.trace_spans
            else []
        )


class AgentHandle:
    """The supervisor-side view of one agent process."""

    def __init__(self, ident: int, process: asyncio.subprocess.Process) -> None:
        self.ident = ident
        self.process = process
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.udp_addr: tuple[str, int] | None = None
        self.pid: int | None = process.pid
        self.state = "spawned"  # spawned -> connected -> joined -> left/killed/dead
        self.restarts = 0
        self.hello_event: asyncio.Event = asyncio.Event()
        self.exit_event: asyncio.Event = asyncio.Event()
        self._req_seq = 0
        self._pending: dict[int, asyncio.Future[Reply]] = {}
        self.telemetry_path: Path | None = None
        self.last_telemetry: dict[str, Any] = {}
        #: Supervisor-minus-agent telemetry-clock delta, estimated at Hello
        #: receipt; adding it to agent span timestamps maps them onto the
        #: supervisor timeline. ``None`` until the agent says hello with a
        #: clock (i.e. with tracing enabled).
        self.clock_offset: float | None = None

    @property
    def alive(self) -> bool:
        return self.process.returncode is None

    async def call(self, op: str, args: dict[str, Any] | None = None, timeout: float = 15.0) -> dict[str, Any]:
        """Issue one control request and await its reply."""
        writer = self.writer
        if writer is None or writer.is_closing():
            raise FleetError(f"agent {self.ident} has no control connection")
        self._req_seq += 1
        req_id = self._req_seq
        future: asyncio.Future[Reply] = asyncio.get_running_loop().create_future()
        self._pending[req_id] = future
        writer.write(encode_frame(Request(op=op, req_id=req_id, args=args or {})))
        try:
            await writer.drain()
            reply = await asyncio.wait_for(future, timeout)
        except (asyncio.TimeoutError, ConnectionError) as exc:
            raise FleetError(f"agent {self.ident}: op {op!r} failed: {exc}") from exc
        finally:
            self._pending.pop(req_id, None)
        if not reply.ok:
            raise FleetError(f"agent {self.ident}: op {op!r} rejected: {reply.error}")
        return reply.result

    def resolve(self, reply: Reply) -> None:
        future = self._pending.get(reply.req_id)
        if future is not None and not future.done():
            future.set_result(reply)

    def _fail_pending(self, reason: str) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(FleetError(reason))
        self._pending.clear()


class FleetSupervisor:
    """Boot and drive a fleet of real agent processes on localhost."""

    def __init__(self, config: FleetConfig | None = None) -> None:
        self.config = config or FleetConfig()
        self.space = self.config.space
        self.agents: dict[int, AgentHandle] = {}
        self._server: asyncio.base_events.Server | None = None
        self.control_port = 0
        self._planned_idents: list[int] = []
        # Insertion-ordered (spawn-ordered) so teardown cancellation is
        # deterministic; a set would iterate in hash order.
        self._watchers: dict[asyncio.Task[None], None] = {}
        self._closing = False
        self.state_dir = Path(self.config.state_dir)
        self.started_at: float | None = None

    # ------------------------------------------------------------------ #
    # Boot sequence
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Spawn the fleet and bootstrap the ring (seed + batched joins)."""
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.started_at = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_agent_connection, host="127.0.0.1", port=0
        )
        self.control_port = self._server.sockets[0].getsockname()[1]
        logger.info("control server on 127.0.0.1:%d", self.control_port)

        assigner = make_assigner(self.config.id_strategy)
        ring = assigner.build_ring(self.space, self.config.n_nodes, rng=self.config.seed)
        self._planned_idents = list(ring.nodes)

        seed_ident = self._planned_idents[0]
        await self._spawn_and_hello([seed_ident])
        await self.agents[seed_ident].call("create", timeout=self.config.call_timeout)
        self.agents[seed_ident].state = "joined"

        remaining = self._planned_idents[1:]
        batch_size = max(self.config.join_batch, 1)
        for start in range(0, len(remaining), batch_size):
            batch = remaining[start : start + batch_size]
            await self._spawn_and_hello(batch)
            await self._broadcast_routes()
            for ident in batch:
                await self.agents[ident].call(
                    "join",
                    {"bootstrap": seed_ident, "timeout": self.config.call_timeout},
                    timeout=self.config.call_timeout + 5.0,
                )
                self.agents[ident].state = "joined"
        await self._broadcast_routes()

    async def _spawn_and_hello(self, idents: Iterable[int]) -> None:
        handles = [await self._spawn_agent(ident) for ident in idents]
        await asyncio.gather(*(self._await_hello(h) for h in handles))

    async def _spawn_agent(self, ident: int) -> AgentHandle:
        if ident in self.agents and self.agents[ident].alive:
            raise FleetError(f"agent {ident} is already running")
        argv = self.config._agent_argv(ident, self.control_port, n_hint=self.config.n_nodes)
        process = await asyncio.create_subprocess_exec(
            *argv,
            stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.DEVNULL,
        )
        handle = AgentHandle(ident, process)
        handle.telemetry_path = self.state_dir / f"telemetry-{ident}.jsonl"
        self.agents[ident] = handle
        watcher = asyncio.get_running_loop().create_task(self._watch_exit(handle))
        self._watchers[watcher] = None
        watcher.add_done_callback(lambda task: self._watchers.pop(task, None))
        return handle

    async def _await_hello(self, handle: AgentHandle) -> None:
        try:
            await asyncio.wait_for(handle.hello_event.wait(), self.config.hello_timeout)
        except asyncio.TimeoutError:
            raise FleetError(
                f"agent {handle.ident} (pid {handle.pid}) did not say hello "
                f"within {self.config.hello_timeout}s"
            ) from None

    async def _broadcast_routes(self) -> None:
        """Push the full route book (and fleet-size hint) to every agent."""
        routes = {
            str(h.ident): [h.udp_addr[0], h.udp_addr[1]]
            for h in self.agents.values()
            if h.udp_addr is not None and h.alive
        }
        await self.broadcast("add_routes", {"routes": routes, "n": len(routes)})

    # ------------------------------------------------------------------ #
    # Agent connection plumbing
    # ------------------------------------------------------------------ #

    async def _handle_agent_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        handle: AgentHandle | None = None
        try:
            async for frame in self._frames(reader):
                if isinstance(frame, Hello):
                    handle = self.agents.get(frame.ident)
                    if handle is None:
                        logger.warning("hello from unknown agent %d; dropping", frame.ident)
                        return
                    handle.reader = reader
                    handle.writer = writer
                    handle.udp_addr = (frame.udp_host, frame.udp_port)
                    handle.pid = frame.pid
                    if self.config.trace_spans and self.started_at is not None:
                        # Align the agent's telemetry clock with ours: its
                        # span timestamps plus this offset land on the
                        # supervisor timeline (modulo the one-way control
                        # frame delay, sub-ms on localhost).
                        supervisor_now = time.monotonic() - self.started_at
                        handle.clock_offset = supervisor_now - frame.clock
                        self._write_clock_offsets()
                    handle.state = "connected"
                    handle.hello_event.set()
                elif handle is None:
                    logger.warning("frame before hello; dropping connection")
                    return
                elif isinstance(frame, Reply):
                    handle.resolve(frame)
                elif isinstance(frame, Event):
                    self._record_event(handle, frame)
        finally:
            if handle is not None:
                handle._fail_pending(f"agent {handle.ident} control connection closed")
            writer.close()

    async def _frames(self, reader: asyncio.StreamReader) -> AsyncIterator[Any]:
        while True:
            try:
                line = await reader.readline()
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            if not line:
                return
            try:
                yield decode_frame(line)
            except ValueError as exc:
                logger.warning("dropping malformed frame: %s", exc)

    def _write_clock_offsets(self) -> None:
        """Persist per-agent clock offsets for offline trace assembly.

        Keyed by ident, matching the trailing token of the
        ``spans-<ident>.jsonl`` file names —
        :func:`repro.telemetry.traces.offset_for` resolves them either way.
        """
        offsets = {
            str(h.ident): round(h.clock_offset, 6)
            for h in self.agents.values()
            if h.clock_offset is not None
        }
        path = self.state_dir / "clock-offsets.json"
        with path.open("w", encoding="utf-8") as fh:
            json.dump(offsets, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def _record_event(self, handle: AgentHandle, event: Event) -> None:
        if event.name != "telemetry":
            logger.info("agent %d event %s: %s", handle.ident, event.name, event.data)
            return
        handle.last_telemetry = event.data
        path = handle.telemetry_path
        if path is not None:
            with path.open("a", encoding="utf-8") as fh:
                fh.write(encode_frame(Event(name="telemetry", data=event.data)).decode("utf-8"))

    async def _watch_exit(self, handle: AgentHandle) -> None:
        await handle.process.wait()
        handle.exit_event.set()
        handle._fail_pending(f"agent {handle.ident} exited")
        if self._closing or handle.state in ("left", "stopping"):
            handle.state = "dead"
            return
        was_killed = handle.state == "killed"
        handle.state = "dead"
        policy = self.config.restart
        if was_killed and policy.enabled and handle.restarts < policy.max_restarts:
            restarts = handle.restarts + 1
            logger.info("restarting agent %d (attempt %d)", handle.ident, restarts)
            await asyncio.sleep(policy.delay)
            # Let the survivors excise the dead identifier first: rejoining
            # the same ident while the ring still carries its stale entry
            # resolves the self-lookup to the stale entry (a lone ring).
            if self.live_idents():
                await self.wait_converged()
            try:
                await self.join_agent(handle.ident)
            except FleetError:
                logger.exception("restart of agent %d failed", handle.ident)
                return
            self.agents[handle.ident].restarts = restarts

    # ------------------------------------------------------------------ #
    # Fleet operations
    # ------------------------------------------------------------------ #

    def _bootstrap_ident(self, exclude: int | None = None) -> int:
        for handle in self.agents.values():
            if handle.state == "joined" and handle.alive and handle.ident != exclude:
                return handle.ident
        raise FleetError("no live joined agent to bootstrap through")

    async def join_agent(self, ident: int) -> AgentHandle:
        """Spawn a new agent and have it join through a live member.

        The join itself is retried: a join racing failure detection can
        resolve the self-lookup to a stale ring entry (the agent rejects
        that as a lone-ring outcome), and one more attempt after the ring
        has excised the stale identifier lands cleanly.
        """
        handle = await self._spawn_agent(ident)
        await self._await_hello(handle)
        attempts = 3
        for attempt in range(1, attempts + 1):
            bootstrap = self._bootstrap_ident(exclude=ident)
            await self._broadcast_routes()
            try:
                await handle.call(
                    "join",
                    {"bootstrap": bootstrap, "timeout": self.config.call_timeout},
                    timeout=self.config.call_timeout + 5.0,
                )
                break
            except FleetError:
                if attempt == attempts or not handle.alive:
                    raise
                logger.warning(
                    "join of %d via %d failed (attempt %d/%d); retrying",
                    ident, bootstrap, attempt, attempts,
                )
                await asyncio.sleep(0.5 * attempt)
        handle.state = "joined"
        return handle

    async def leave(self, ident: int, timeout: float | None = None) -> None:
        """Graceful departure: the agent hands off and exits cleanly."""
        handle = self._live(ident)
        handle.state = "stopping"
        await handle.call("leave", timeout=timeout or self.config.call_timeout)
        handle.state = "left"
        await asyncio.wait_for(handle.exit_event.wait(), self.config.call_timeout)

    async def kill(self, ident: int) -> None:
        """Fail-stop injection: SIGKILL, no goodbye on either plane."""
        handle = self._live(ident)
        handle.state = "killed"
        handle.process.kill()
        await handle.exit_event.wait()

    def _live(self, ident: int) -> AgentHandle:
        handle = self.agents.get(ident)
        if handle is None or not handle.alive:
            raise FleetError(f"agent {ident} is not running")
        return handle

    def live_idents(self) -> list[int]:
        return sorted(i for i, h in self.agents.items() if h.alive and h.state == "joined")

    async def broadcast(
        self, op: str, args: dict[str, Any] | None = None, timeout: float | None = None
    ) -> dict[int, dict[str, Any]]:
        """Run one op on every live agent concurrently; returns per-ident results."""
        timeout = timeout or self.config.call_timeout
        handles = [h for h in self.agents.values() if h.alive and h.writer is not None]
        results = await asyncio.gather(
            *(h.call(op, args, timeout=timeout) for h in handles), return_exceptions=True
        )
        out: dict[int, dict[str, Any]] = {}
        for handle, result in zip(handles, results):
            if isinstance(result, BaseException):
                logger.warning("broadcast %s to %d failed: %s", op, handle.ident, result)
            else:
                out[handle.ident] = result
        return out

    async def statuses(self) -> dict[int, dict[str, Any]]:
        return await self.broadcast("status")

    async def route(self, key: int, origin: int | None = None) -> dict[str, Any]:
        """Resolve ``successor(key)`` from ``origin`` and show the path."""
        ident = origin if origin is not None else self._bootstrap_ident()
        return await self._live(ident).call(
            "route", {"key": key, "timeout": self.config.call_timeout},
            timeout=self.config.call_timeout + 5.0,
        )

    async def wait_converged(self, timeout: float | None = None) -> bool:
        """Poll agent statuses until successor/predecessor pointers match the
        ideal ring over the current live membership."""
        deadline = time.monotonic() + (timeout or self.config.converge_timeout)
        while time.monotonic() < deadline:
            members = self.live_idents()
            if len(members) >= 1 and await self._converged(members):
                return True
            await asyncio.sleep(0.25)
        return False

    async def _converged(self, members: list[int]) -> bool:
        ring = StaticRing.from_sorted_ids(self.space, members)
        statuses = await self.statuses()
        if sorted(statuses) != members:
            return False
        for ident in members:
            status = statuses[ident]
            want_succ = ring.successor_of_node(ident)
            want_pred = ring.predecessor_of_node(ident)
            if status.get("successor") != want_succ:
                return False
            if len(members) > 1 and status.get("predecessor") != want_pred:
                return False
        return True

    async def down(self) -> None:
        """Graceful fleet teardown: leave everyone, reap stragglers."""
        self._closing = True
        live = [h for h in self.agents.values() if h.alive]
        for handle in live:
            if handle.writer is not None and not handle.writer.is_closing():
                try:
                    handle.state = "stopping"
                    await handle.call("shutdown", timeout=2.0)
                except FleetError:
                    pass
        deadline = time.monotonic() + 5.0
        for handle in live:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not handle.alive:
                break
            try:
                await asyncio.wait_for(handle.exit_event.wait(), remaining)
            except asyncio.TimeoutError:
                break
        for handle in self.agents.values():
            if handle.alive:
                handle.process.kill()
        await asyncio.gather(
            *(h.process.wait() for h in self.agents.values()), return_exceptions=True
        )
        for watcher in list(self._watchers):
            watcher.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
