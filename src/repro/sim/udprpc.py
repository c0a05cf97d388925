"""UDP-based RPC transport over real sockets (paper Sec. 4, "RPC manager").

The prototype's RPC manager "is implemented at the socket-level to send and
receive UDP packets"; the cluster experiments ran up to 64 DAT instances
per machine. This transport reproduces that setup on localhost: every
registered node binds its own UDP socket on 127.0.0.1; a single receive
thread multiplexes all sockets with a selector and dispatches handlers
serially (so protocol code needs no locking, matching the DES substrate's
execution model).

Routes to nodes hosted by *other* processes can be added explicitly with
:meth:`UdpRpcTransport.add_route`, enabling genuine multi-process clusters.

This class implements only the substrate (sockets, timers, the wall
clock); request-path policy — deadlines, retries, backoff — lives in
:mod:`repro.net` and is identical over UDP and the simulator. A lost
datagram here is indistinguishable from simulated loss: the pending call
expires and the caller's :class:`~repro.net.RetryPolicy` decides whether
to retransmit. A datagram this transport itself drops is counted in
``messages_dropped_total`` under one ``reason``: ``no_route`` and
``send_error`` on send; ``malformed``, ``misaddressed`` and
``handler_error`` on receive.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from typing import Callable

from repro import telemetry
from repro.errors import TransportError
from repro.sim.messages import Message, decode_message, encode_message
from repro.sim.transport import MessageHandler, Transport

__all__ = ["UdpRpcTransport"]

_MAX_DATAGRAM = 65000


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
        # Insertion-ordered on purpose: timers are iterated during close()
        # and pruning, and set order would be hash-dependent.
        self._timers: dict[threading.Timer, None] = {}  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        # A wakeup socket lets register() update the selector while the
        # receive loop is blocked in select().
        self._wake_recv = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._wake_recv.bind((bind_host, 0))
        self._wake_recv.setblocking(False)
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

        Calls still in flight are cancelled through the same path
        :meth:`Transport.unregister` uses (:meth:`Transport.cancel_all_calls`):
        each pending entry's deadline timer is revoked and neither its reply
        nor its timeout continuation ever fires. Only then are the remaining
        maintenance timers cancelled and the sockets/selector released, so no
        stray selector or timer callback can run after ``close()`` returns.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wakeup()
        self._thread.join(timeout=2.0)
        self.cancel_all_calls()
        with self._lock:
            for timer in list(self._timers):
                timer.cancel()
            self._timers.clear()
            for sock in self._sockets.values():
                try:
                    self._selector.unregister(sock)
                except (KeyError, ValueError):
                    pass
                sock.close()
            self._sockets.clear()
        try:
            self._selector.unregister(self._wake_recv)
        except (KeyError, ValueError):
            pass
        self._wake_recv.close()
        self._selector.close()

    def _wakeup(self) -> None:
        try:
            wake = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            wake.sendto(b"\x00", self._wake_addr)
            wake.close()
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
        if len(data) > _MAX_DATAGRAM:
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
            if sock is not None:
                sock.sendto(data, route)
            else:
                # Source is not locally hosted (e.g. responses generated on
                # behalf of a departed node); use a throwaway socket.
                tmp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                tmp.sendto(data, route)
                tmp.close()
        except OSError:
            # UDP semantics: losses surface as call timeouts.
            telemetry.count("messages_dropped_total", reason="send_error")

    def schedule(self, delay: float, callback: Callable[[], None]) -> Callable[[], None]:
        timer = threading.Timer(delay, self._run_timer, args=(callback,))
        timer.daemon = True
        with self._lock:
            if self._closed:
                return lambda: None
            self._timers[timer] = None
        timer.start()

        def cancel() -> None:
            timer.cancel()
            with self._lock:
                self._timers.pop(timer, None)

        return cancel

    def _run_timer(self, callback: Callable[[], None]) -> None:
        with self._lock:
            self._timers = {t: None for t in self._timers if t.is_alive()}
        if not self._closed:
            callback()

    # ------------------------------------------------------------------ #
    # Receive loop
    # ------------------------------------------------------------------ #

    def _receive_loop(self) -> None:
        while not self._closed:
            try:
                ready = self._selector.select(timeout=0.25)
            except (OSError, ValueError):
                return
            for key, _ in ready:
                if self._closed:
                    return
                sock: socket.socket = key.fileobj  # type: ignore[assignment]
                try:
                    data, _addr = sock.recvfrom(_MAX_DATAGRAM)
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
