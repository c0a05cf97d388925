"""UDP-based RPC transport over real sockets (paper Sec. 4, "RPC manager").

The prototype's RPC manager "is implemented at the socket-level to send and
receive UDP packets"; the cluster experiments ran up to 64 DAT instances
per machine. This transport reproduces that setup on localhost: every
registered node binds its own UDP socket on 127.0.0.1; a single receive
thread multiplexes all sockets with a selector and runs every handler and
timer callback serially (so protocol code needs no locking, matching the DES
substrate's execution model): timers wait in the simulator's
:class:`~repro.sim.engine.EventQueue`, and ``select`` sleeps until the next.

A message is one datagram of :func:`~repro.sim.messages.encode_message`'s
binary format, at most :data:`~repro.sim.messages.MAX_DATAGRAM` bytes. Routes
to nodes hosted by *other* processes can be added explicitly with
:meth:`UdpRpcTransport.add_route`, enabling genuine multi-process clusters.

This class implements only the substrate (sockets, timers, the wall
clock); request-path policy — deadlines, retries, backoff — lives in
:mod:`repro.net` and is identical over UDP and the simulator. A lost
datagram here is indistinguishable from simulated loss: the pending call
expires and the caller's :class:`~repro.net.RetryPolicy` decides whether
to retransmit. A datagram this transport itself drops is counted in
``messages_dropped_total`` under one ``reason``: ``no_route`` and
``send_error`` on send; ``malformed`` (any datagram
:func:`~repro.sim.messages.decode_message` rejects), ``misaddressed`` and
``handler_error`` on receive; a timer callback that raises is logged.
"""

from __future__ import annotations

import itertools
import selectors
import socket
import threading
import time
from typing import Callable

from repro import telemetry
from repro.errors import TransportError
from repro.sim.engine import Event, EventQueue
from repro.sim.messages import MAX_DATAGRAM, Message, decode_message, encode_message
from repro.sim.tracing import get_logger
from repro.sim.transport import MessageHandler, Transport

__all__ = ["UdpRpcTransport"]

_MAX_SLEEP_S = 0.25  # the loop re-checks ``_closed`` at least this often

logger = get_logger("sim.udprpc")


class UdpRpcTransport(Transport):
    """Real-socket UDP transport hosting any number of local nodes.

    Use as a context manager (or call :meth:`close`) to release sockets::

        with UdpRpcTransport() as transport:
            transport.register(node_id, handler)
            ...
    """

    def __init__(self, bind_host: str = "127.0.0.1") -> None:
        super().__init__()
        self.bind_host = bind_host
        self._sockets: dict[int, socket.socket] = {}
        self._routes: dict[int, tuple[str, int]] = {}
        self._selector = selectors.DefaultSelector()
        self._lock = threading.RLock()
        self._timers = EventQueue()  # guarded-by: _lock
        self._timer_seq = itertools.count()
        self._closed = False  # guarded-by: _lock
        # A wakeup socket lets close(), unregister(), other threads'
        # schedule() and (under a selector other than epoll) register()
        # reach the receive loop while it is blocked in select().
        self._wake_recv = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._wake_recv.bind((bind_host, 0))
        self._wake_recv.setblocking(False)
        # Unbound: sends wakeups, and datagrams no local socket can send.
        self._spare = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._wake_addr = self._wake_recv.getsockname()
        self._selector.register(self._wake_recv, selectors.EVENT_READ, None)
        tel = telemetry.active()
        if tel is not None:
            # Counters always; the clock only behind the explicit opt-in.
            # By default the telemetry clock stays unbound here — the sim
            # clock is the only sanctioned timestamp source, and
            # wall-clocked exports are not replay-deterministic. With
            # ``allow_wall_clock`` the clock binds to an offset from this
            # transport's start, built on the already-sanctioned
            # ``self.now`` boundary, so live spans get real durations.
            tel.register_hotspots("transport", self.stats)
            if tel.config.allow_wall_clock:
                start = self.now()
                tel.bind_clock(lambda: self.now() - start)
        self._thread = threading.Thread(
            target=self._receive_loop, name="udprpc-recv", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "UdpRpcTransport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Stop the receive loop, cancel pending calls and timers, close sockets.

        The receive loop, the one thread that runs handlers and timers, is
        joined first. Calls still in flight are then cancelled through the
        path :meth:`Transport.unregister` uses (:meth:`Transport.cancel_all_calls`):
        each pending entry's deadline timer is revoked and neither its reply
        nor its timeout continuation ever fires. Last the timer queue is
        cleared and the sockets/selector released.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wakeup()
        self._thread.join(timeout=2.0)
        self.cancel_all_calls()
        with self._lock:
            self._timers.clear()
            self._selector.close()
            for sock in self._sockets.values():
                sock.close()
            self._sockets.clear()
        self._wake_recv.close()
        self._spare.close()

    def _wakeup(self) -> None:
        try:
            self._spare.sendto(b"\x00", self._wake_addr)
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # Registration / routing
    # ------------------------------------------------------------------ #

    def register(self, node: int, handler: MessageHandler) -> None:
        with self._lock:
            # Checked under the lock: a concurrent close() between an
            # unlocked check and the registration would leak the socket.
            if self._closed:
                raise TransportError("transport is closed")
            super().register(node, handler)
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind((self.bind_host, 0))
            sock.setblocking(False)
            self._sockets[node] = sock
            self._routes[node] = sock.getsockname()
            self._selector.register(sock, selectors.EVENT_READ, node)
        # epoll_wait(2) sees a socket registered while it blocks; any other
        # selector's blocked poll would not see it for up to _MAX_SLEEP_S.
        if not isinstance(self._selector, getattr(selectors, "EpollSelector", ())):
            self._wakeup()

    def unregister(self, node: int) -> None:
        with self._lock:
            super().unregister(node)
            sock = self._sockets.pop(node, None)
            self._routes.pop(node, None)
            if sock is not None:
                try:
                    self._selector.unregister(sock)
                except (KeyError, ValueError):
                    pass
                sock.close()
        self._wakeup()

    def add_route(self, node: int, host: str, port: int) -> None:
        """Declare the address of a node hosted by another process."""
        with self._lock:
            self._routes[node] = (host, port)

    def address_of(self, node: int) -> tuple[str, int]:
        """The (host, port) a local node is bound to (for peers' route books)."""
        with self._lock:
            try:
                return self._routes[node]
            except KeyError:
                raise TransportError(f"no route to node {node}") from None

    # ------------------------------------------------------------------ #
    # Transport implementation
    # ------------------------------------------------------------------ #

    def now(self) -> float:
        # The real-socket substrate's time *is* the wall clock: the one library
        # wall-clock read (test_import_graph.py names it); telemetry never binds it.
        return time.monotonic()

    def send(self, message: Message) -> None:
        if self._closed:
            return
        data = encode_message(message)
        if len(data) > MAX_DATAGRAM:
            raise TransportError(
                f"message of {len(data)} bytes exceeds the UDP datagram budget"
            )
        self.stats.record_send(message.source, len(data))
        telemetry.count("messages_sent_total", kind=message.kind)
        with self._lock:
            route = self._routes.get(message.destination)
            sock = self._sockets.get(message.source)
        if route is None:
            # Unknown destination: dropped, like a lost datagram.
            telemetry.count("messages_dropped_total", reason="no_route")
            return
        try:
            # A source not hosted here (e.g. a response on behalf of a
            # departed node) sends from the spare socket.
            (sock or self._spare).sendto(data, route)
        except OSError:
            # UDP semantics: losses surface as call timeouts.
            telemetry.count("messages_dropped_total", reason="send_error")

    def schedule(self, delay: float, callback: Callable[[], None]) -> Callable[[], None]:
        # Fired by the receive loop; equal deadlines fire in scheduling order.
        event = Event(self.now() + delay, next(self._timer_seq), callback)
        with self._lock:
            if self._closed:
                return lambda: None
            self._timers.push(event)
            earliest = self._timers.peek() is event
        if earliest and threading.get_ident() != self._thread.ident:
            self._wakeup()  # the loop may be sleeping past the new deadline

        def cancel() -> None:
            with self._lock:
                event.cancel()

        return cancel

    def _run_due_timers(self) -> float:
        """Fire every timer due now; return how long ``select`` may sleep."""
        now = self.now()
        while True:
            with self._lock:
                event = None if self._closed else self._timers.pop(now)
                if event is None:
                    head = self._timers.peek()
                    wait = _MAX_SLEEP_S if head is None else head.time - self.now()
                    return min(wait, _MAX_SLEEP_S)
                callback = event.callback
            try:
                callback()
            except Exception:
                # A timer bug must not kill the shared loop, like a handler's.
                logger.exception("timer callback failed")

    # ------------------------------------------------------------------ #
    # Receive loop
    # ------------------------------------------------------------------ #

    def _receive_loop(self) -> None:
        timeout = _MAX_SLEEP_S
        while not self._closed:
            try:
                ready = self._selector.select(timeout=timeout)
            except (OSError, ValueError):
                return
            for key, _ in ready:
                if self._closed:
                    return
                sock: socket.socket = key.fileobj  # type: ignore[assignment]
                try:
                    data, _addr = sock.recvfrom(MAX_DATAGRAM)
                except (BlockingIOError, OSError):
                    continue
                if key.data is None:
                    continue  # wakeup socket
                try:
                    message = decode_message(data)
                except TransportError:
                    telemetry.count("messages_dropped_total", reason="malformed")
                    continue
                if message.destination != key.data:
                    # Names a node other than this socket's.
                    telemetry.count("messages_dropped_total", reason="misaddressed")
                    continue
                self.stats.record_receive(message.destination, len(data))
                telemetry.count("messages_received_total", kind=message.kind)
                try:
                    self._dispatch(message)
                except Exception:  # noqa: BLE001
                    # A handler bug must not kill the shared receive loop;
                    # the failed RPC will surface as a timeout at the caller.
                    telemetry.count("messages_dropped_total", reason="handler_error")
            timeout = self._run_due_timers()
