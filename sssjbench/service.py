"""The ``service_mt`` workload: a pooled server and a one-thread load generator.

The server (``python -m repro serve --port 0 --pool-workers 2``, or the
traced launcher) runs in its own process.  The generator is this process:
one thread, ``selectors`` over two non-blocking connections, 16 sessions
across 4 tenants.  Sessions of one tenant share that tenant's input stream.

Times are taken on the server's CPU clock: the CPU time of all its threads
(``common.task_cpu_ns``), read while none of them is runnable, so the
reading is exact and the server has finished what it was asked.  Time the
server spent waiting for a CPU, or waiting for the generator, does not
count, and neither does anything the generator itself does.  The generator
shares the server's CPU, so the median of its ``Yardstick`` factors,
taken while the server is idle (after each set-up, around Phase 1 and
between probes), scales those times to the reference CPU speed.

Phase 1 (closed loop, saturation): each session ingests the first
``saturation_vectors`` of its input back to back, one request of ``chunk``
vectors in flight, with ``block`` backpressure.  Once every request is
answered and the server is idle, every session is polled for its results.
Throughput is the vectors sent divided by the server CPU time from the
start of the phase to the end of those polls.

Between the phases, every session is brought to position ``probe_from``
of its stream the same way, untimed.  The engine grows its index arena
while a session's index fills, which costs 10-25 ms of CPU on each of a
few vectors, the last of them near position 880 of a session's stream
at the seeds tried; the probe starts past them, as ``engine_steady``'s
window starts past its warm-up.  The generator shares the server's CPU
(``common.pin_to_one_cpu``) and yields it while the server has work.

Phase 2 (sequential probe): one vector at a time, round-robin over the
sessions: ingest it, wait for the server to go idle, poll the session's
results, and repeat the poll (after the next idle) until the vector shows
processed.  Its latency is the server CPU time from the end of the
previous probe to the end of its own: decoding, admission, the scheduler
quantum that runs it, and serving the poll.  A vector never seen
processed counts as failed, with latency ``FAILED_LATENCY_S``.

The polls use cursors; the pairs they return (with a last read after the
drain) are what the correctness check compares.
"""

from __future__ import annotations

import gc
import json
import os
import selectors
import socket
import subprocess
import sys
import time
from statistics import median

from common import (FAILED_LATENCY_S, child_env, out_dir, percentile,
                    runnable_threads, task_cpu_ns, vm_hwm_mib)
from yardstick import Yardstick

_clock = time.perf_counter
START_TIMEOUT_S = 30.0
STATS_PERIOD_S = 0.25
PHASE1_DEADLINE_S = 60.0
#: Longest wait for the server to go idle, and for one probe vector.
IDLE_TIMEOUT_S = 5.0
PROBE_TIMEOUT_S = 10.0
#: Probes between two yardstick factors.
YARDSTICK_PROBES = 100


class ServerProcess:
    """The system under test, started and stopped by the benchmark."""

    def __init__(self, pool_workers: int, span_out: str | None = None) -> None:
        here = os.path.dirname(os.path.abspath(__file__))
        if span_out is None:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                       "--pool-workers", str(pool_workers)]
        else:
            command = [sys.executable, os.path.join(here, "traced_server.py"),
                       "--span-out", span_out, "--port", "0",
                       "--pool-workers", str(pool_workers)]
        self.started = _clock()
        self._log = open(os.path.join(out_dir("logs"), "server.log"), "ab")
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=self._log, env=child_env())
        self.address = self._await_listening()

    def _await_listening(self) -> tuple[str, int]:
        deadline = _clock() + START_TIMEOUT_S
        buffered = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while _clock() < deadline:
                if not selector.select(timeout=0.1):
                    continue
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buffered += chunk
                for line in buffered.decode(errors="replace").splitlines():
                    if "listening on" in line:
                        host, port = line.rsplit(" ", 1)[1].rsplit(":", 1)
                        return host, int(port)
        self.kill()
        raise RuntimeError("server did not start; see .sssjbench/logs/server.log")

    def await_idle(self) -> bool:
        """Wait until no server thread is runnable; False on timeout."""
        deadline = _clock() + IDLE_TIMEOUT_S
        while runnable_threads(self.proc.pid):
            if _clock() > deadline:
                return False
            # The server shares this CPU: let it run until it blocks.
            os.sched_yield()
        return True

    def cpu_seconds(self) -> float:
        """The server's CPU clock, read once it is idle."""
        self.await_idle()
        return task_cpu_ns(self.proc.pid) * 1e-9

    def peak_rss_mib(self) -> float:
        return vm_hwm_mib(self.proc.pid)

    def wait(self, timeout: float = 20.0) -> None:
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
        finally:
            self.proc.stdout.close()
            self._log.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


class _Connection:
    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=10)
        self.sock.setblocking(False)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rbuf = b""
        self.wbuf = bytearray()
        self.pending = []  # (callback, sent_at), answered in order
        self.head = 0
        self.closed = False


class Client:
    """Single-threaded NDJSON client over a few non-blocking connections."""

    def __init__(self, address, connections: int = 2) -> None:
        self.selector = selectors.DefaultSelector()
        self.conns = [_Connection(address) for _ in range(connections)]
        for conn in self.conns:
            self.selector.register(conn.sock, selectors.EVENT_READ, conn)
        self.requests = 0
        self.failed = 0
        self.reconnects = 0

    def send(self, index: int, message: dict, callback) -> None:
        conn = self.conns[index]
        conn.wbuf += json.dumps(message, separators=(",", ":")).encode() + b"\n"
        conn.pending.append((callback, _clock()))
        self.requests += 1
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        if conn.wbuf:
            try:
                sent = conn.sock.send(conn.wbuf)
                del conn.wbuf[:sent]
            except BlockingIOError:
                pass
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.wbuf else 0)
        self.selector.modify(conn.sock, events, conn)

    def pump(self, timeout: float) -> None:
        for key, events in self.selector.select(max(0.0, timeout)):
            conn = key.data
            if events & selectors.EVENT_WRITE:
                self._flush(conn)
            if events & selectors.EVENT_READ:
                chunk = conn.sock.recv(1 << 20)
                if not chunk:
                    if conn.head < len(conn.pending):
                        raise ConnectionError(
                            "server closed a connection with requests "
                            "unanswered")
                    self.selector.unregister(conn.sock)
                    conn.closed = True
                    continue
                received = _clock()
                conn.rbuf += chunk
                *lines, conn.rbuf = conn.rbuf.split(b"\n")
                for line in lines:
                    callback, sent_at = conn.pending[conn.head]
                    conn.pending[conn.head] = None
                    conn.head += 1
                    response = json.loads(line)
                    if not response.get("ok"):
                        self.failed += 1
                    callback(response, sent_at, received)

    def run_until(self, done, deadline: float) -> bool:
        while not done():
            if _clock() > deadline:
                return False
            self.pump(0.01)
        return True

    def close(self) -> None:
        for conn in self.conns:
            if not conn.closed:
                self.selector.unregister(conn.sock)
            conn.sock.close()
        self.selector.close()


class _Session:
    def __init__(self, index: int, tenant: int, lo: int,
                 payloads: list) -> None:
        self.index = index
        self.name = f"s{index:02d}"
        self.tenant = f"t{tenant}"
        self.segment = tenant
        self.lo = lo           # stream id of the first vector
        self.payloads = payloads
        self.conn = index % 2
        self.sent = 0          # vectors handed to the server so far
        self.refused = 0
        self.processed = 0     # as last seen by a poll
        self.cursor = 0
        self.pairs: dict = {}
        self.ingest_in_flight = False
        self.poll_in_flight = False


class Load:
    """One server lifetime's worth of load, phase by phase."""

    def __init__(self, workload, segments, server: ServerProcess,
                 theta: float, yardstick: Yardstick) -> None:
        self.workload = workload
        self.server = server
        self.yardstick = yardstick
        self.client = Client(server.address)
        self.sessions = []
        for k in range(workload.sessions):
            tenant = k % workload.tenants
            lo, payloads = segments[tenant]
            self.sessions.append(_Session(k, tenant, lo, payloads))
        self.theta = theta
        self.vectors_sent = 0
        self.ingest_rtt: list[tuple[float, float]] = []
        self.results_rtt: list[tuple[float, float]] = []
        self.backlog_max = 0
        self.stats_every = None

    # -- requests ------------------------------------------------------------

    def open_all(self, deadline: float) -> None:
        opened = []
        for s in self.sessions:
            self.client.send(s.conn, {
                "op": "open", "session": s.name, "tenant": s.tenant,
                "theta": self.theta, "decay": self.workload.decay,
                "algorithm": "STR-L2", "normalize": False,
                "backpressure": "block", "queue_max": self.workload.queue_max,
                "checkpoint": False}, lambda r, *_: opened.append(r))
        if not self.client.run_until(lambda: len(opened) == len(self.sessions),
                                     deadline):
            raise RuntimeError("sessions did not open in time")
        if not all(r.get("ok") for r in opened):
            raise RuntimeError(f"open failed: {opened}")

    def _ingest(self, s: _Session, count: int) -> None:
        first = s.sent
        vectors = s.payloads[first:first + count]
        s.sent += len(vectors)
        s.ingest_in_flight = True
        self.vectors_sent += len(vectors)

        def on_ack(response, sent_at, received):
            s.ingest_in_flight = False
            self.ingest_rtt.append((sent_at, received - sent_at))
            if not response.get("ok"):
                s.refused += len(vectors)

        self.client.send(s.conn, {"op": "ingest", "session": s.name,
                                  "seq": first, "vectors": vectors}, on_ack)

    def _poll(self, s: _Session) -> None:
        s.poll_in_flight = True

        def on_results(response, sent_at, received):
            s.poll_in_flight = False
            self.results_rtt.append((sent_at, received - sent_at))
            if not response.get("ok"):
                return
            for pair in response["pairs"]:
                s.pairs[(pair["id_a"], pair["id_b"])] = pair["similarity"]
            s.cursor = response["cursor"]
            s.processed = max(s.processed, response["processed"])

        self.client.send(s.conn, {"op": "results", "session": s.name,
                                  "cursor": s.cursor}, on_results)

    def _sample_backlog(self) -> None:
        def on_stats(response, *_):
            if response.get("ok"):
                queued = sum(row.get("queued", 0)
                             for row in response["sessions"].values())
                self.backlog_max = max(self.backlog_max, queued)
        self.client.send(0, {"op": "stats"}, on_stats)

    @staticmethod
    def _outstanding(s: _Session) -> bool:
        return s.processed < s.sent - s.refused

    def _collect(self, sessions, deadline: float) -> bool:
        """Poll ``sessions`` after each idle until all they were sent shows
        processed; False if that has not happened by ``deadline``."""
        waiting = [s for s in sessions if self._outstanding(s)]
        while waiting:
            if _clock() > deadline:
                return False
            self.server.await_idle()
            for s in waiting:
                self._poll(s)
            if not self.client.run_until(
                    lambda: not any(s.poll_in_flight for s in waiting),
                    deadline):
                return False
            waiting = [s for s in waiting if self._outstanding(s)]
        return True

    # -- phases --------------------------------------------------------------

    def _closed_loop(self, goal: int, deadline: float) -> bool:
        """Send each session's vectors up to position ``goal`` back to back,
        one request of ``chunk`` in flight per session, until every one
        shows processed; False if that has not happened by ``deadline``."""
        chunk = self.workload.chunk
        next_stats = _clock()
        while _clock() < deadline:
            busy = False
            for s in self.sessions:
                if s.ingest_in_flight:
                    busy = True
                elif s.sent < goal:
                    self._ingest(s, min(chunk, goal - s.sent))
                    busy = True
            if not busy:
                break
            if self.stats_every is not None and _clock() >= next_stats:
                next_stats = _clock() + self.stats_every
                self._sample_backlog()
            self.client.pump(0.002)
        return self._collect(self.sessions, deadline)

    def saturate(self) -> dict:
        """Phase 1: closed loop over a fixed number of vectors; throughput.

        Yardstick factors are taken just before and just after, with the
        server idle: taken while the server runs, the task would share the
        caches with it."""
        cpu_before = self.server.cpu_seconds()
        self.yardstick.factor()
        started = _clock()
        first_sent = self.vectors_sent
        finished = self._closed_loop(self.workload.saturation_vectors,
                                     started + PHASE1_DEADLINE_S)
        cpu = self.server.cpu_seconds() - cpu_before
        self.yardstick.factor()
        sent = self.vectors_sent - first_sent
        return {"vectors": sent, "server_cpu_s": round(cpu, 4),
                "wall_s": round(_clock() - started, 3),
                "throughput_vps": sent / cpu if finished else 0.0,
                "window": [started, _clock()]}

    def warm(self) -> None:
        """Bring every session to the probe's start, untimed (module docstring)."""
        self._closed_loop(self.workload.probe_from,
                          _clock() + PHASE1_DEADLINE_S)

    def probe(self, seconds: float) -> dict:
        """Phase 2: one vector at a time; latency on the server's CPU clock."""
        started = _clock()
        end = started + seconds
        latencies, walls = [], []
        requests = self.client.requests
        generator_cpu = time.process_time()
        index = 0
        while _clock() < end:
            if index % YARDSTICK_PROBES == 0:
                self.yardstick.factor()
                before = self.server.cpu_seconds()
            s = self.sessions[index % len(self.sessions)]
            index += 1
            if s.sent >= len(s.payloads):
                break
            sent_at = _clock()
            self._ingest(s, 1)
            deadline = sent_at + PROBE_TIMEOUT_S
            done = (self.client.run_until(lambda: not s.ingest_in_flight,
                                          deadline)
                    and self._collect([s], deadline))
            after = self.server.cpu_seconds()
            walls.append(_clock() - sent_at)
            if not done:
                latencies.append(FAILED_LATENCY_S)
                break
            latencies.append(after - before)
            before = after
        return {"latencies": latencies,
                "wall_p50_ms": round(percentile(walls, 0.5) * 1e3, 3)
                if walls else 0.0,
                "requests": self.client.requests - requests,
                "generator_cpu_s": round(time.process_time() - generator_cpu,
                                         3),
                "window": [started, _clock()]}

    def finish(self, deadline: float) -> None:
        """Drain every session, read its remaining pairs, close it."""
        drained = []
        for s in self.sessions:
            self.client.send(s.conn, {"op": "drain", "session": s.name},
                             lambda r, *_: drained.append(r))
        self.client.run_until(lambda: len(drained) == len(self.sessions),
                              deadline)
        for s in self.sessions:
            s.poll_in_flight = False
            self._poll(s)
        self.client.run_until(lambda: not any(s.poll_in_flight
                                              for s in self.sessions),
                              deadline)

    def engine_counters(self, deadline: float) -> dict:
        totals: dict = {}

        def on_stats(response, *_):
            for row in response.get("sessions", {}).values():
                for key, value in row.get("counters", {}).items():
                    if key == "max_index_size":
                        totals[key] = max(totals.get(key, 0), value)
                    else:
                        totals[key] = totals.get(key, 0) + value
            totals["_done"] = True
        self.client.send(0, {"op": "stats"}, on_stats)
        self.client.run_until(lambda: "_done" in totals, deadline)
        totals.pop("_done", None)
        return totals

    def shutdown(self, deadline: float) -> None:
        acked = []
        self.client.send(0, {"op": "shutdown"}, lambda r, *_: acked.append(r))
        self.client.run_until(lambda: bool(acked), deadline)
        self.client.close()


def payloads_for(stream, lo: int, hi: int) -> list:
    """Wire triples ``[id, ts, [dim, value, ...]]`` for ids ``lo..hi-1``."""
    out = []
    for i in range(lo, hi):
        a, b = int(stream.indptr[i]), int(stream.indptr[i + 1])
        coords = [0.0] * (2 * (b - a))
        coords[0::2] = stream.dims[a:b].tolist()
        coords[1::2] = stream.vals[a:b].tolist()
        out.append([i, float(stream.ts[i]), coords])
    return out


def run(workload, stream, seconds: float, repeats: int, theta: float,
        span_out: str | None = None) -> dict:
    """Set up ``repeats`` servers (keeping the last), then both phases.

    A set-up is the server's CPU time from its start to the end of opening
    the sessions: the interpreter's start, imports, listening, and the
    ``open`` requests.
    """
    per = workload.vectors_per_session
    segments = [(t * per, payloads_for(stream, t * per, (t + 1) * per))
                for t in range(workload.tenants)]
    # Phase 1 is fixed work, about a third of a 15-second window on a calm
    # 2-vCPU VM; the probe gets the rest.
    probe_s = seconds * 2 / 3
    setups, server, load = [], None, None
    yardstick = Yardstick()
    for rep in range(repeats):
        if server is not None:
            load.shutdown(_clock() + 20)
            server.wait()
        server = ServerProcess(workload.pool_workers,
                               span_out if rep == repeats - 1 else None)
        try:
            load = Load(workload, segments, server, theta, yardstick)
            load.open_all(_clock() + 20)
        except BaseException:
            server.kill()
            raise
        setups.append(server.cpu_seconds())
        yardstick.factor()
    # The generator must not pause to collect garbage while it keeps time.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        if span_out is not None:
            load.stats_every = STATS_PERIOD_S
        cpu_before = server.cpu_seconds()
        window_start = _clock()
        phase1 = load.saturate()
        load.stats_every = None
        load.warm()
        phase2 = load.probe(probe_s)
        window_end = _clock()
        cpu = server.cpu_seconds() - cpu_before
        load.finish(_clock() + 30)
        counters = load.engine_counters(_clock() + 10)
        rss = server.peak_rss_mib()
        load.shutdown(_clock() + 20)
    finally:
        gc.enable()
        gc.unfreeze()
        server.wait()
    vectors_ok = sum(min(s.processed, s.sent - s.refused) for s in load.sessions)
    factor = median(yardstick.factors)
    latencies = [x * factor for x in phase2.pop("latencies")]
    setups = [x * factor for x in setups]
    phase1["throughput_vps"] /= factor
    return {
        "setups": setups,
        "phase1": phase1,
        "phase2": phase2,
        "latencies": latencies,
        "sessions": [{"segment": s.segment, "lo": s.lo, "sent": s.sent,
                      "pairs": [[a, b, v] for (a, b), v in s.pairs.items()]}
                     for s in load.sessions],
        "requests": load.client.requests,
        "failed_requests": load.client.failed,
        "reconnects": load.client.reconnects,
        "vectors_sent": load.vectors_sent,
        "vectors_ok": vectors_ok,
        "peak_rss_mb": rss,
        "ingest_rtt": load.ingest_rtt,
        "results_rtt": load.results_rtt,
        "backlog_max": load.backlog_max,
        "counters": counters,
        "server_cpu_s": cpu,
        "speed": yardstick.summary(),
        "window": [window_start, window_end],
    }


def in_window(rows, window) -> list[float]:
    """Values of ``(time, value)`` rows whose time falls in ``window``."""
    lo, hi = window
    return [value for moment, value in rows if lo <= moment <= hi]


def percentile_ms(values, q: float) -> float:
    return percentile(values, q) * 1e3 if values else 0.0
