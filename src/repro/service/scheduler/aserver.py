"""Selector-based service transport: every connection on one I/O loop.

A thread per client connection is fine for a handful of clients and a
scaling wall when hundreds of sessions each hold a socket open, so
:class:`SelectorServiceServer` multiplexes all connections over a single
``selectors`` event loop:

* the loop thread does only non-blocking I/O — accepting, reading bytes
  into per-connection buffers, flushing response bytes out;
* complete NDJSON lines are handed to a small dispatch thread pool that
  runs :meth:`JoinService.handle`.  Dispatch is **serial per
  connection** (a busy flag): a client's requests are answered in the
  order sent, while different connections' requests run concurrently;
* dispatch threads never touch the selector — they append to the
  connection's write buffer under its lock and tickle a ``socketpair``
  to wake the loop, which recomputes read/write interest every tick.

A connection idle past ``read_timeout`` is dropped; the client
reconnects and resumes, with sequence-numbered ingest guaranteeing no
duplicates.  A dropped connection is shut down before it is closed, so
the peer sees the FIN even while forked shard workers still hold
inherited copies of the socket.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.service.protocol import (
    ServiceProtocolError,
    dump_line,
    error_response,
    parse_line,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.server import JoinService

__all__ = ["SelectorServiceServer"]


def _collect_transport(server: "SelectorServiceServer") -> None:
    """Scrape-time collector: connection and dispatch counters."""
    registry = obs.get_registry()
    stats = server.stats()
    registry.gauge("sssj_transport_connections_open",
                   "Client connections currently open.").labels().set(
        stats["connections_open"])
    tracker = server._obs_tracker
    tracker.export(registry.counter(
        "sssj_transport_connections_accepted_total",
        "Client connections accepted.").labels(),
        "accepted", stats["connections_accepted"])
    tracker.export(registry.counter(
        "sssj_transport_requests_dispatched_total",
        "Requests handed to dispatch workers.").labels(),
        "dispatched", stats["requests_dispatched"])

_RECV_CHUNK = 65536
#: A single request line larger than this drops the connection — the
#: protocol's own ``MAX_LINE_BYTES`` would reject it anyway, and an
#: unbounded read buffer is a memory hole.
_MAX_BUFFERED_LINE = 32 * 1024 * 1024


class _Connection:
    """Per-client state: buffers, dispatch queue, and liveness."""

    __slots__ = ("sock", "rbuf", "wbuf", "pending", "busy", "lock",
                 "close_after_write", "dead", "last_activity")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        #: Complete request lines waiting for (or being) dispatched.
        self.pending: deque[bytes] = deque()
        #: True while a dispatch task is draining ``pending`` — guarantees
        #: serial in-order handling per connection.
        self.busy = False
        self.lock = threading.Lock()
        self.close_after_write = False
        self.dead = False
        self.last_activity = time.monotonic()


class SelectorServiceServer:
    """Single-loop non-blocking TCP transport for a :class:`JoinService`."""

    def __init__(self, service: "JoinService", host: str = "127.0.0.1",
                 port: int = 0, *, read_timeout: float | None = None,
                 dispatch_workers: int = 8) -> None:
        if dispatch_workers <= 0:
            raise ValueError(
                f"dispatch_workers must be positive, got {dispatch_workers}")
        self.service = service
        self.read_timeout = read_timeout
        self._listener = socket.create_server((host, port), reuse_port=False)
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, "accept")
        # Loopback pair so dispatch threads can wake the select() call.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ, "wake")
        self._executor = ThreadPoolExecutor(
            max_workers=dispatch_workers, thread_name_prefix="sssj-dispatch")
        self._connections: dict[socket.socket, _Connection] = {}
        self._stop = threading.Event()
        self._closed = False
        self.connections_accepted = 0
        self.requests_dispatched = 0
        self._obs_tracker = obs.DeltaTracker()
        if obs.enabled():
            obs.get_registry().add_collector(_collect_transport, owner=self)

    # -- public surface --------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — port is resolved when 0 was asked."""
        host, port = self._listener.getsockname()[:2]
        return host, port

    def request_stop(self) -> None:
        """Ask the loop to exit once pending responses are flushed."""
        self._stop.set()
        self._wake()

    def serve_forever(self, poll_interval: float = 0.1) -> None:
        """Run the event loop until :meth:`request_stop` (blocking)."""
        grace_deadline = None
        while True:
            if self._stop.is_set():
                # Drain: keep looping while any response bytes are still
                # owed to a client, with a hard grace period.
                if grace_deadline is None:
                    grace_deadline = time.monotonic() + 2.0
                owed = any(conn.wbuf or conn.busy or conn.pending
                           for conn in self._connections.values())
                if not owed or time.monotonic() >= grace_deadline:
                    break
            self._tick(poll_interval)
        self._close_all_connections()

    def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` op (or KeyboardInterrupt)."""
        try:
            self.serve_forever(poll_interval=0.1)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.service.shutdown()
            self.server_close()
            metrics_server = getattr(self, "obs_metrics_server", None)
            if metrics_server is not None:
                metrics_server.close()

    def server_close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        self._close_all_connections()
        for sock in (self._listener, self._wake_recv, self._wake_send):
            try:
                self._selector.unregister(sock)
            except (KeyError, ValueError):
                pass
            try:
                sock.close()
            except OSError:
                pass
        self._selector.close()
        self._executor.shutdown(wait=False)

    # -- event loop ------------------------------------------------------------

    def _tick(self, poll_interval: float) -> None:
        self._update_interests()
        for key, _events in self._selector.select(timeout=poll_interval):
            if key.data == "accept":
                self._accept()
            elif key.data == "wake":
                self._drain_wake()
            else:
                conn = key.data
                self._service_connection(conn, _events)
        self._reap()

    def _update_interests(self) -> None:
        """Recompute each connection's read/write interest set."""
        for conn in self._connections.values():
            events = selectors.EVENT_READ
            with conn.lock:
                if conn.wbuf:
                    events |= selectors.EVENT_WRITE
            try:
                self._selector.modify(conn.sock, events, conn)
            except (KeyError, ValueError):  # pragma: no cover - racing close
                pass

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except BlockingIOError:
                return
            except OSError:  # pragma: no cover - listener closed under us
                return
            sock.setblocking(False)
            conn = _Connection(sock)
            self._connections[sock] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)
            self.connections_accepted += 1

    def _drain_wake(self) -> None:
        try:
            while self._wake_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"\x00")
        except OSError:  # pragma: no cover - closing down
            pass

    def _service_connection(self, conn: _Connection, events: int) -> None:
        if events & selectors.EVENT_READ:
            self._read_ready(conn)
        if events & selectors.EVENT_WRITE:
            self._write_ready(conn)

    def _read_ready(self, conn: _Connection) -> None:
        try:
            chunk = conn.sock.recv(_RECV_CHUNK)
        except BlockingIOError:
            return
        except OSError:
            conn.dead = True
            return
        if not chunk:
            # Peer closed its end.  Any queued work still completes; the
            # reap only collects once the dispatcher and writes are done.
            conn.close_after_write = True
            return
        conn.last_activity = time.monotonic()
        conn.rbuf += chunk
        self._extract_lines(conn)

    def _extract_lines(self, conn: _Connection) -> None:
        lines: list[bytes] = []
        while True:
            newline = conn.rbuf.find(b"\n")
            if newline < 0:
                break
            lines.append(bytes(conn.rbuf[:newline + 1]))
            del conn.rbuf[:newline + 1]
        if len(conn.rbuf) > _MAX_BUFFERED_LINE:
            conn.dead = True
            return
        if not lines:
            return
        with conn.lock:
            conn.pending.extend(line for line in lines if line.strip())
            should_dispatch = bool(conn.pending) and not conn.busy
            if should_dispatch:
                conn.busy = True
        if should_dispatch:
            self._executor.submit(self._dispatch, conn)

    def _write_ready(self, conn: _Connection) -> None:
        with conn.lock:
            if not conn.wbuf:
                return
            try:
                sent = conn.sock.send(bytes(conn.wbuf))
            except BlockingIOError:
                return
            except OSError:
                conn.dead = True
                return
            del conn.wbuf[:sent]
        conn.last_activity = time.monotonic()

    def _reap(self) -> None:
        """Close dead/finished/idle connections (loop thread only)."""
        now = time.monotonic()
        for sock, conn in list(self._connections.items()):
            with conn.lock:
                finished = (conn.close_after_write and not conn.wbuf
                            and not conn.busy and not conn.pending)
            idle = (self.read_timeout is not None
                    and not conn.busy and not conn.pending
                    and now - conn.last_activity > self.read_timeout)
            if conn.dead or finished or idle:
                self._drop(sock, conn)

    def _drop(self, sock: socket.socket, conn: _Connection) -> None:
        self._connections.pop(sock, None)
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass
        try:
            # close() alone sends no FIN while a forked process (a shard
            # worker of a process-executor session) still holds the fd.
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected
        try:
            sock.close()
        except OSError:
            pass

    def _close_all_connections(self) -> None:
        for sock, conn in list(self._connections.items()):
            self._drop(sock, conn)

    # -- dispatch (executor threads) -------------------------------------------

    def _dispatch(self, conn: _Connection) -> None:
        """Drain one connection's pending lines, strictly in order.

        ``busy`` is cleared however this ends: if handling a line raises,
        the connection is dropped instead of wedged with no reply.
        """
        finished = False
        try:
            while True:
                with conn.lock:
                    if not conn.pending or conn.dead:
                        conn.busy = False
                        finished = True
                        break
                    line = conn.pending.popleft()
                self._handle_line(conn, line)
        finally:
            if not finished:
                with conn.lock:
                    conn.dead = True
                    conn.busy = False
            self._wake()

    def _handle_line(self, conn: _Connection, line: bytes) -> None:
        try:
            request = parse_line(line)
        except ServiceProtocolError as error:
            self._send(conn, dump_line(error_response(str(error))))
            return
        response = self.service.handle(request)
        self.requests_dispatched += 1
        injector = self.service.fault_injector
        if (injector is not None and request.get("op") == "ingest"
                and response.get("ok") and injector.client_sever_due()):
            # Sever *after* the request was applied but before the ack —
            # the harshest spot: the client must retry into the
            # sequence-number dedup.
            conn.dead = True
            self._wake()
            return
        self._send(conn, dump_line(response))
        if request.get("op") == "shutdown" and response.get("ok"):
            conn.close_after_write = True
            self.request_stop()

    def _send(self, conn: _Connection, payload: bytes) -> None:
        with conn.lock:
            conn.wbuf += payload
        self._wake()

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "transport": "selector",
            "connections_open": len(self._connections),
            "connections_accepted": self.connections_accepted,
            "requests_dispatched": self.requests_dispatched,
        }
