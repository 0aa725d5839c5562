"""Execution backends for the sharded join: serial in-process and multiprocess.

Both executors present the same tiny interface to the coordinator:

``queue_append(shard, slot, dims, values, prefix_norms, timestamp)``
    Buffer a posting append for ``shard``.  Appends are *not* sent
    immediately — they ride along with the next ``exchange`` (or an
    explicit ``flush``), so one vector costs one message per shard.
``exchange(requests, params)``
    Deliver the buffered appends plus one scan request per shard, in
    order, and return each shard's ``(partials, traversed, removed)``.
    The per-shard operation order (scan of vector *i* before the postings
    of vector *i*, before the scan of vector *i+1*) is what makes the
    sharded run bitwise identical to the single-process one.
``flush`` / ``counters`` / ``close``
    Drain buffered appends, snapshot per-shard counters, shut down.

:class:`SerialShardExecutor` runs every shard worker in-process and
synchronously — no processes, no pickling — which makes the whole
subsystem testable and CI-safe; it is also the natural ``workers=1``
configuration.  :class:`ProcessShardExecutor` spawns one child process
per shard (forked where available, else spawned) and ships requests
over pipes; all shards scan concurrently, which is where the parallel
speedup comes from.

Fault tolerance
---------------
:class:`ProcessShardExecutor` survives worker deaths.  Every receive is
bounded by ``recv_timeout`` and watches the child's ``Process.sentinel``,
so a SIGKILLed (or hung) worker is *detected* instead of hanging the
coordinator.  Recovery is respawn-and-replay: the executor keeps the
full per-shard step history (every message a shard acknowledged), spawns
a fresh worker, replays the history in chunks — a shard's state is a
deterministic function of its message sequence, so the rebuilt posting
arena, expiry bookkeeping and counters are bitwise identical to the lost
ones — then re-issues the in-flight step once.  After ``max_respawns``
failed attempts the executor degrades to in-process execution: every
shard's history is replayed into a local :class:`ShardWorker` and the run
continues serially rather than dying.  Set ``recovery=False`` to skip
the history log (saves memory; deaths then raise
:class:`~repro.exceptions.ShardWorkerError`).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from multiprocessing import connection as _mp_connection
from typing import Any

from repro import obs
from repro.core.results import ShardCounters
from repro.exceptions import InvalidParameterError, ShardWorkerError
from repro.shard.plan import ShardPlan
from repro.shard.worker import (
    ShardWorker,
    apply_step,
    shard_worker_main,
    unpack_partials,
)

__all__ = ["SerialShardExecutor", "ProcessShardExecutor", "create_executor"]


def _count_recovery(kind: str) -> None:
    """Recovery events are rare and exceptional — count them inline."""
    if obs.enabled():
        obs.get_registry().counter(
            "sssj_shard_recovery_events_total",
            "Shard worker recovery events by kind.",
            ("kind",)).labels(kind=kind).inc()


class SerialShardExecutor:
    """All shard workers in-process; calls run synchronously in shard order."""

    kind = "serial"

    def __init__(self, plan: ShardPlan) -> None:
        self.plan = plan
        self.workers = [ShardWorker(shard) for shard in range(plan.workers)]
        self._pending: list[list[tuple]] = [[] for _ in range(plan.workers)]

    def queue_append(self, shard: int, slot: int, dims, values, prefix_norms,
                     timestamp: float) -> None:
        self._pending[shard].append((slot, dims, values, prefix_norms, timestamp))

    def exchange(self, requests: list[list[tuple]],
                 params: dict[str, Any]) -> list[tuple[list, int, int]]:
        replies = []
        for shard, worker in enumerate(self.workers):
            pending = self._pending[shard]
            if pending:
                worker.apply_appends(pending)
                self._pending[shard] = []
            replies.append(worker.scan(requests[shard], params))
        return replies

    def flush(self) -> None:
        for shard, worker in enumerate(self.workers):
            pending = self._pending[shard]
            if pending:
                worker.apply_appends(pending)
                self._pending[shard] = []

    def counters(self) -> list[ShardCounters]:
        return [worker.snapshot_counters() for worker in self.workers]

    def close(self) -> None:
        self.flush()


class ProcessShardExecutor:
    """One child process per shard, pipes for control, shared-memory arenas.

    ``exchange`` first *sends* to every shard, then *collects* from every
    shard, so the per-vector scan work of all shards overlaps — the
    round-trip latency is paid once per vector, not once per shard.

    Worker deaths (and replies delayed past ``recv_timeout``) are
    recovered by respawn-and-replay, degrading to in-process execution
    after ``max_respawns`` failed attempts — see the module docstring.
    Recoveries are appended to :attr:`recovery_events`; :attr:`degraded`
    flips to ``True`` once the executor has fallen back to serial mode.
    """

    kind = "process"

    #: Steps per replay message during recovery — bounds both the pickled
    #: message size and the per-recv wait (each chunk is acknowledged
    #: within ``recv_timeout``).
    _REPLAY_CHUNK = 128

    def __init__(self, plan: ShardPlan, *,
                 recv_timeout: float = 10.0,
                 max_respawns: int = 3,
                 recovery: bool = True,
                 faults=None) -> None:
        self.plan = plan
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        if recv_timeout <= 0:
            raise InvalidParameterError(
                f"recv_timeout must be > 0, got {recv_timeout}")
        if max_respawns < 0:
            raise InvalidParameterError(
                f"max_respawns must be >= 0, got {max_respawns}")
        self.recv_timeout = float(recv_timeout)
        self.max_respawns = int(max_respawns)
        self.recovery_enabled = bool(recovery)
        self.faults = faults
        if faults is not None:
            faults.bind_workers(plan.workers)
        workers = plan.workers
        self._conns: list = [None] * workers
        self._procs: list = [None] * workers
        self._pending: list[list[tuple]] = [[] for _ in range(workers)]
        #: Per-shard log of acknowledged step messages — the replay source
        #: for crash recovery (grows with the stream; ``recovery=False``
        #: disables it).
        self._history: list[list[tuple]] = [[] for _ in range(workers)]
        self._steps = [0] * workers
        self._closed = False
        self.degraded = False
        self._serial_workers: list[ShardWorker] | None = None
        self.respawns = 0
        self.recovery_events: list[dict] = []
        try:
            for shard in range(workers):
                self._spawn(shard, initial=True)
        except BaseException:
            for process in self._procs:
                if process is not None and process.is_alive():
                    process.kill()
                    process.join(timeout=1)
            raise

    # -- worker lifecycle ------------------------------------------------------

    def _spawn(self, shard: int, *, initial: bool) -> None:
        parent_conn, child_conn = self._context.Pipe()
        worker_faults = None
        if initial and self.faults is not None:
            worker_faults = self.faults.worker_events_for(shard) or None
        process = self._context.Process(
            target=shard_worker_main,
            args=(child_conn, shard, worker_faults),
            name=f"sssj-shard-{shard}", daemon=True)
        process.start()
        child_conn.close()
        self._conns[shard] = parent_conn
        self._procs[shard] = process

    def _reap(self, shard: int) -> None:
        """Tear down a shard's (possibly dead) process and pipe."""
        conn, process = self._conns[shard], self._procs[shard]
        try:
            conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        if process.is_alive():
            process.kill()
        process.join(timeout=5)

    def _kill_worker(self, shard: int) -> None:
        """Fault injection: SIGKILL the shard's worker, for real."""
        process = self._procs[shard]
        if process.is_alive():
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=5)

    # -- coordinator-facing interface ------------------------------------------

    def queue_append(self, shard: int, slot: int, dims, values, prefix_norms,
                     timestamp: float) -> None:
        self._pending[shard].append((slot, dims, values, prefix_norms, timestamp))

    def exchange(self, requests: list[list[tuple]],
                 params: dict[str, Any]) -> list[tuple[list, int, int]]:
        messages = []
        for shard in range(self.plan.workers):
            messages.append(("step", self._pending[shard], requests[shard],
                             params))
            self._pending[shard] = []
        # Fan out first so every shard scans concurrently ...
        for shard, message in enumerate(messages):
            self._send_step(shard, message)
        # ... then fan in, in shard order (determinism of the merge).
        return [self._collect_step(shard, message)
                for shard, message in enumerate(messages)]

    def flush(self) -> None:
        messages = {}
        for shard in range(self.plan.workers):
            if self._pending[shard]:
                messages[shard] = ("step", self._pending[shard], None, None)
                self._pending[shard] = []
        for shard, message in messages.items():
            self._send_step(shard, message)
        for shard, message in messages.items():
            self._collect_step(shard, message)

    def counters(self) -> list[ShardCounters]:
        snapshots = []
        for shard in range(self.plan.workers):
            if self.degraded:
                snapshots.append(
                    self._serial_workers[shard].snapshot_counters())
                continue
            try:
                self._conns[shard].send(("counters",))
                reply = self._recv_with_deadline(shard)
            except ShardWorkerError as error:
                reply = self._recover(shard, ("counters",), error)
            except (BrokenPipeError, OSError) as error:
                reply = self._recover(
                    shard, ("counters",),
                    ShardWorkerError(str(error), shard=shard))
            if reply is None:  # degraded while recovering this query
                snapshots.append(
                    self._serial_workers[shard].snapshot_counters())
            else:
                snapshots.append(reply[1])
        return snapshots

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.flush()
        except ShardWorkerError:
            pass  # recovery disabled and a worker is gone; close anyway
        if self.degraded:
            return  # no processes left to stop
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            # Bounded farewell: a worker that already died never writes
            # ("bye",), so poll with a deadline instead of blocking in
            # recv() forever.
            try:
                if conn.poll(1.0):
                    conn.recv()
            except (EOFError, OSError):
                pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        for process in self._procs:
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1)
            if process.is_alive():  # pragma: no cover - defensive
                process.kill()
                process.join(timeout=1)

    # -- step plumbing ---------------------------------------------------------

    def _send_step(self, shard: int, message: tuple) -> None:
        if self.degraded:
            return  # applied in-process at collect time
        self._steps[shard] += 1
        if (self.faults is not None
                and self.faults.worker_kill_due(shard, self._steps[shard])):
            self._kill_worker(shard)
        try:
            self._conns[shard].send(message)
        except (BrokenPipeError, OSError):
            pass  # death is detected — and recovered — at collect time

    def _collect_step(self, shard: int, message: tuple):
        if self.degraded:
            return self._apply_step_serial(shard, message)
        try:
            reply = self._recv_with_deadline(shard)
        except ShardWorkerError as error:
            reply = self._recover(shard, message, error)
            if reply is None:  # recovery exhausted → executor degraded
                return self._apply_step_serial(shard, message)
            return self._reply_value(shard, reply)
        if self.recovery_enabled:
            self._history[shard].append(message)
        return self._reply_value(shard, reply)

    @staticmethod
    def _reply_value(shard: int, reply: tuple):
        if reply[0] == "partials":
            return (unpack_partials(reply[1]), reply[2], reply[3])
        if reply[0] == "ok":
            return None
        raise ShardWorkerError(
            f"shard {shard}: unexpected reply {reply[0]!r}", shard=shard)

    def _recv_with_deadline(self, shard: int):
        """Receive one reply, bounded by ``recv_timeout`` and death-aware.

        Waits on the pipe *and* the worker's ``Process.sentinel`` at once,
        so a SIGKILLed child surfaces immediately (draining a complete
        reply the child managed to write first) and a hung child surfaces
        at the deadline — the coordinator never blocks unboundedly.
        """
        conn = self._conns[shard]
        process = self._procs[shard]
        deadline = time.monotonic() + self.recv_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ShardWorkerError(
                    f"shard {shard} worker (pid {process.pid}) did not "
                    f"reply within {self.recv_timeout:g}s", shard=shard)
            ready = _mp_connection.wait([conn, process.sentinel],
                                        timeout=remaining)
            if conn in ready:
                try:
                    return conn.recv()
                except (EOFError, OSError):
                    raise ShardWorkerError(
                        f"shard {shard} worker (pid {process.pid}) died "
                        "mid-reply", shard=shard) from None
            if process.sentinel in ready:
                if conn.poll(0):  # full reply written before dying
                    try:
                        return conn.recv()
                    except (EOFError, OSError):
                        pass
                raise ShardWorkerError(
                    f"shard {shard} worker (pid {process.pid}) died "
                    f"(exit code {process.exitcode})", shard=shard)

    # -- crash recovery --------------------------------------------------------

    def _recover(self, shard: int, message: tuple, error: ShardWorkerError):
        """Respawn-and-replay ``shard``, then re-issue ``message`` once.

        Returns the raw reply on success, or ``None`` after degrading to
        in-process execution (the caller then applies ``message`` to the
        serial twin).  With ``recovery=False`` the original error is
        re-raised unchanged.
        """
        if not self.recovery_enabled:
            raise error
        started = time.monotonic()
        history = self._history[shard]
        last_error = error
        for attempt in range(1, self.max_respawns + 1):
            self._reap(shard)
            try:
                self._spawn(shard, initial=False)
                self._replay(shard)
                self._conns[shard].send(message)
                reply = self._recv_with_deadline(shard)
            except (ShardWorkerError, OSError) as respawn_error:
                last_error = respawn_error
                continue
            self.respawns += 1
            _count_recovery("respawn")
            details = {"shard": shard, "attempt": attempt,
                       "replayed_steps": len(history),
                       "latency_s": time.monotonic() - started}
            self.recovery_events.append(
                {"kind": "respawn", "cause": str(error), **details})
            if self.faults is not None:
                self.faults.record("recovered", **details)
            if message[0] == "step":
                history.append(message)
            return reply
        self._degrade(cause=str(last_error))
        return None

    def _replay(self, shard: int) -> None:
        """Rebuild a fresh worker's state from the shard's step history."""
        history = self._history[shard]
        conn = self._conns[shard]
        for start in range(0, len(history), self._REPLAY_CHUNK):
            chunk = history[start:start + self._REPLAY_CHUNK]
            conn.send(("replay", chunk))
            reply = self._recv_with_deadline(shard)
            if reply != ("replayed", len(chunk)):
                raise ShardWorkerError(
                    f"shard {shard}: replay acknowledged {reply!r} for a "
                    f"{len(chunk)}-step chunk", shard=shard)

    def _degrade(self, *, cause: str) -> None:
        """Last rung of the ladder: continue the run in-process.

        Every shard's history is replayed into a local
        :class:`ShardWorker`, the child processes are reaped, and all
        subsequent steps run serially.  Slower, but the stream — and the
        bitwise determinism contract — survive.
        """
        for shard in range(self.plan.workers):
            self._reap(shard)
        started = time.monotonic()
        workers = []
        for shard in range(self.plan.workers):
            worker = ShardWorker(shard)
            for message in self._history[shard]:
                apply_step(worker, message)
            workers.append(worker)
        self._serial_workers = workers
        self.degraded = True
        _count_recovery("degrade")
        replayed = sum(len(history) for history in self._history)
        self._history = [[] for _ in range(self.plan.workers)]
        event = {"kind": "degrade", "cause": cause,
                 "respawn_attempts": self.max_respawns,
                 "replayed_steps": replayed,
                 "latency_s": time.monotonic() - started}
        self.recovery_events.append(event)
        if self.faults is not None:
            self.faults.record("degraded", cause=cause,
                               replayed_steps=replayed)

    def _apply_step_serial(self, shard: int, message: tuple):
        return apply_step(self._serial_workers[shard], message)


def create_executor(plan: ShardPlan, kind: str = "process", *,
                    recv_timeout: float = 10.0, max_respawns: int = 3,
                    recovery: bool = True, faults=None):
    """Build the executor named by ``kind`` (``"serial"`` or ``"process"``)."""
    if kind == "serial":
        if faults is not None and faults.plan.worker_events:
            raise InvalidParameterError(
                "worker fault injection (kill-worker/exit-in-*/drop-reply/"
                "delay-reply) requires the process executor; the serial "
                "executor has no worker processes to break")
        return SerialShardExecutor(plan)
    if kind == "process":
        return ProcessShardExecutor(plan, recv_timeout=recv_timeout,
                                    max_respawns=max_respawns,
                                    recovery=recovery, faults=faults)
    raise ValueError(f"unknown shard executor {kind!r}; "
                     f"expected 'serial' or 'process'")
