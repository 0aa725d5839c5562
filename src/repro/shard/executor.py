"""The executor of the sharded join: its partitions, here or forked.

:class:`ProcessShardExecutor` runs partition 0 in the coordinator, on
the join's own kernel, and forks one child per other partition; a
pickled vector goes out to each child and its pairs and counters come
back.  ``exchange(vectors, step)`` runs the stream's next vectors (the
first of arrival step ``step``) through every partition and returns,
in partition order, each one's :meth:`~repro.shard.partition.Partition.step`
results.  It is called once per ``process()`` with one vector, and once
per chunk of ``feed()`` and ``run()``, so a chunk costs one round trip
per forked partition, however many vectors it holds.  Built with
``fork=False`` it runs every partition in-process, one after the
other: no processes, no pickling, no replay history (the parity
suites' seam).  After :meth:`~ProcessShardExecutor.close`, every call
that would reach a partition raises :class:`~repro.exceptions.SSSJError`.

Fault tolerance
---------------
Worker deaths are survived.  Every receive is bounded by
``RECV_TIMEOUT`` and watches the child's ``Process.sentinel``, so a
SIGKILLed (or hung) worker is *detected* instead of hanging the
coordinator.  Recovery is respawn-and-replay: the executor retains the
input vectors, spawns a fresh worker, replays them in chunks — a
partition's state is a deterministic function of the vectors it has
seen, so the rebuilt index, expiry bookkeeping and counters are bitwise
identical to the lost ones — then re-issues the in-flight step once.
After ``MAX_RESPAWNS`` failed attempts the partition degrades to
in-process execution: a local twin replays the retained input and the
run continues rather than dying.  With ``RECOVERY`` off no input is
kept and deaths raise :class:`~repro.exceptions.ShardWorkerError`.
The three are class constants; tests patch them.

A worker fault plan that targets partition 0 forks it as well, so every
shard a fault names is a process it can break.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import selectors
import signal
import time

from repro import obs
from repro.backends import SimilarityKernel
from repro.core.results import ShardCounters
from repro.core.vector import SparseVector
from repro.exceptions import InvalidParameterError, ShardWorkerError, SSSJError
from repro.shard.partition import Partition, PartitionSpec, partition_worker_main

__all__ = ["ProcessShardExecutor"]


def _count_recovery(kind: str) -> None:
    """Recovery events are rare and exceptional — count them inline."""
    if obs.enabled():
        obs.get_registry().counter(
            "sssj_shard_recovery_events_total",
            "Shard worker recovery events by kind.",
            ("kind",)).labels(kind=kind).inc()


class ProcessShardExecutor:
    """Partition 0 in the coordinator, one child process per other partition.

    ``exchange`` sends the vectors to every child first, runs the
    in-process partitions while they work, then collects the children's
    replies in partition order.  With ``fork=False`` every partition is
    in-process.

    Worker deaths (and replies delayed past ``RECV_TIMEOUT``) are
    recovered by respawn-and-replay, degrading the partition to
    in-process execution after ``MAX_RESPAWNS`` failed attempts — see the
    module docstring.  Recoveries are appended to :attr:`recovery_events`;
    :attr:`degraded` flips to ``True`` once a partition fell back.
    """

    #: Seconds to wait for a forked partition's reply before treating the
    #: worker as dead.
    RECV_TIMEOUT = 10.0
    #: Failed respawns per incident before a partition degrades.
    MAX_RESPAWNS = 3
    #: Retain the input for replay; off, the first worker death raises.
    RECOVERY = True
    #: Vectors per replay message during recovery — bounds both the
    #: pickled message size and the per-recv wait (each chunk is
    #: acknowledged within ``RECV_TIMEOUT``).
    _REPLAY_CHUNK = 128

    def __init__(self, spec: PartitionSpec, kernel: SimilarityKernel, *,
                 fork: bool = True, faults=None) -> None:
        self.spec = spec
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self.faults = faults
        workers = spec.workers
        forked: set[int] = set()
        if fork:
            forked = set(range(1, workers))
            if faults is not None:
                faults.bind_workers(workers)
                forked |= faults.worker_shards()
        elif faults is not None and faults.plan.worker_events:
            raise InvalidParameterError(
                "worker fault injection (kill-worker/exit-in-*/drop-reply/"
                "delay-reply) requires the process executor; the serial "
                "executor has no worker processes to break")
        #: In-process partitions by id: partition 0 unless a fault targets
        #: it (every partition without ``fork``), plus every partition
        #: that degraded.
        self._local = {shard: Partition(spec, shard,
                                        kernel if shard == 0 else None)
                       for shard in range(workers) if shard not in forked}
        #: Partitions running in a worker process, in partition order.
        self._forked = sorted(forked)
        self._conns: list = [None] * workers
        self._procs: list = [None] * workers
        #: Per worker, one poll set over its pipe and its process sentinel.
        self._waits: list = [None] * workers
        self._steps = [0] * workers
        #: The vectors every partition has processed — the replay source
        #: for crash recovery (grows with the stream while a partition is
        #: forked and ``RECOVERY`` is on).
        self._history: list[SparseVector] = []
        self._closed = False
        self.degraded = False
        self.respawns = 0
        self.recovery_events: list[dict] = []
        try:
            for shard in self._forked:
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
            target=partition_worker_main,
            args=(child_conn, self.spec, shard, worker_faults),
            name=f"sssj-shard-{shard}", daemon=True)
        process.start()
        child_conn.close()
        self._conns[shard] = parent_conn
        self._procs[shard] = process
        wait = selectors.PollSelector()
        wait.register(parent_conn, selectors.EVENT_READ)
        wait.register(process.sentinel, selectors.EVENT_READ)
        self._waits[shard] = wait

    def _reap(self, shard: int) -> None:
        """Tear down a partition's (possibly dead) process and pipe."""
        conn, process = self._conns[shard], self._procs[shard]
        self._waits[shard].close()
        try:
            conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        if process.is_alive():
            process.kill()
        process.join(timeout=5)

    def _kill_worker(self, index: int) -> None:
        """Fault injection: SIGKILL forked partition ``index`` (0 is the
        first partition that runs in a worker process), for real."""
        process = self._procs[self._forked[index]]
        if process.is_alive():
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=5)

    # -- coordinator-facing interface ------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise SSSJError("the sharded join is closed")

    def exchange(self, vectors: list[SparseVector],
                 step: int) -> list[list[tuple]]:
        self._check_open()
        forked = self._forked
        payload = (pickle.dumps(("step", step, vectors),
                                pickle.HIGHEST_PROTOCOL) if forked else b"")
        # Fan out first so the children work while partition 0 does ...
        for shard in forked:
            self._send_step(shard, payload, len(vectors))
        replies: list = [None] * self.spec.workers
        for shard, partition in self._local.items():
            replies[shard] = partition.steps(vectors)
        # ... then fan in, in partition order.
        for shard in forked:
            replies[shard] = self._collect_step(shard, payload, vectors)
        if forked and self.RECOVERY:
            self._history.extend(vectors)
        return replies

    def counters(self) -> list[ShardCounters]:
        self._check_open()
        snapshots = []
        for shard in range(self.spec.workers):
            if shard not in self._local:
                try:
                    self._conns[shard].send(("counters",))
                    reply = self._recv_with_deadline(shard)
                except ShardWorkerError as error:
                    reply = self._recover(shard, ("counters",), error)
                except OSError as error:
                    reply = self._recover(
                        shard, ("counters",),
                        ShardWorkerError(str(error), shard=shard))
                if reply is not None:
                    snapshots.append(reply[1])
                    continue
            snapshots.append(self._local[shard].counters())
        return snapshots

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        forked = self._forked
        for shard in forked:
            try:
                self._conns[shard].send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for shard in forked:
            # Bounded farewell: a worker that already died never writes
            # ("bye",), so poll with a deadline instead of blocking in
            # recv() forever.
            conn = self._conns[shard]
            try:
                if conn.poll(1.0):
                    conn.recv()
            except (EOFError, OSError):
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        for shard in forked:
            process = self._procs[shard]
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1)
            if process.is_alive():  # pragma: no cover - defensive
                process.kill()
                process.join(timeout=1)

    # -- step plumbing ---------------------------------------------------------

    def _send_step(self, shard: int, payload: bytes, count: int) -> None:
        first = self._steps[shard] + 1
        self._steps[shard] += count
        if self.faults is not None and any(
                self.faults.worker_kill_due(shard, step)
                for step in range(first, first + count)):
            self._kill_worker(self._forked.index(shard))
        try:
            self._conns[shard].send_bytes(payload)
        except (BrokenPipeError, OSError):
            pass  # death is detected — and recovered — at collect time

    def _collect_step(self, shard: int, payload: bytes,
                      vectors: list[SparseVector]) -> list[tuple]:
        try:
            reply = self._checked(shard, self._recv_with_deadline(shard))
        except ShardWorkerError as error:
            reply = self._recover(shard, payload, error)
            if reply is None:  # the partition degraded to in-process
                return self._local[shard].steps(vectors)
        return reply

    @staticmethod
    def _checked(shard: int, reply):
        if isinstance(reply, list):
            return reply
        detail = reply[1] if reply and reply[0] == "error" else repr(reply)
        raise ShardWorkerError(f"shard {shard}: {detail}", shard=shard)

    def _recv_with_deadline(self, shard: int):
        """Receive one reply, bounded by ``RECV_TIMEOUT`` and death-aware.

        Waits on the pipe *and* the worker's ``Process.sentinel`` at once,
        so a SIGKILLed child surfaces immediately (draining a complete
        reply the child managed to write first) and a hung child surfaces
        at the deadline — the coordinator never blocks unboundedly.
        """
        conn = self._conns[shard]
        process = self._procs[shard]
        wait = self._waits[shard]
        deadline = time.monotonic() + self.RECV_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ShardWorkerError(
                    f"shard {shard} worker (pid {process.pid}) did not "
                    f"reply within {self.RECV_TIMEOUT:g}s", shard=shard)
            ready = [key.fileobj for key, _ in wait.select(remaining)]
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

    def _recover(self, shard: int, message, error: ShardWorkerError):
        """Respawn-and-replay ``shard``, then re-issue ``message`` once.

        ``message`` is a pickled step or a ``("counters",)`` request.
        Returns the reply on success, or ``None`` after the partition
        degraded to in-process execution.  With ``RECOVERY`` off the
        original error is re-raised unchanged.
        """
        if not self.RECOVERY:
            raise error
        started = time.monotonic()
        last_error = error
        for attempt in range(1, self.MAX_RESPAWNS + 1):
            self._reap(shard)
            try:
                self._spawn(shard, initial=False)
                self._replay(shard)
                if isinstance(message, bytes):
                    self._conns[shard].send_bytes(message)
                    reply = self._checked(shard,
                                          self._recv_with_deadline(shard))
                else:
                    self._conns[shard].send(message)
                    reply = self._recv_with_deadline(shard)
            except (ShardWorkerError, OSError) as respawn_error:
                last_error = respawn_error
                continue
            self.respawns += 1
            _count_recovery("respawn")
            details = {"shard": shard, "attempt": attempt,
                       "replayed_steps": len(self._history),
                       "latency_s": time.monotonic() - started}
            self.recovery_events.append(
                {"kind": "respawn", "cause": str(error), **details})
            if self.faults is not None:
                self.faults.record("recovered", **details)
            return reply
        self._degrade(shard, cause=str(last_error))
        return None

    def _replay(self, shard: int) -> None:
        """Rebuild a fresh worker's partition from the retained input."""
        history = self._history
        conn = self._conns[shard]
        for start in range(0, len(history), self._REPLAY_CHUNK):
            chunk = history[start:start + self._REPLAY_CHUNK]
            conn.send(("replay", chunk))
            reply = self._recv_with_deadline(shard)
            if reply != ("replayed", len(chunk)):
                raise ShardWorkerError(
                    f"shard {shard}: replay acknowledged {reply!r} for a "
                    f"{len(chunk)}-vector chunk", shard=shard)

    def _degrade(self, shard: int, *, cause: str) -> None:
        """Last rung of the ladder: run the partition in-process.

        A local twin replays the retained input and takes over the
        partition's steps.  Slower, but the stream — and the bitwise
        determinism contract — survive.
        """
        self._reap(shard)
        self._procs[shard] = self._conns[shard] = None
        started = time.monotonic()
        twin = Partition(self.spec, shard)
        for vector in self._history:
            twin.step(vector)
        self._local[shard] = twin
        self._forked = [other for other in self._forked if other != shard]
        self.degraded = True
        _count_recovery("degrade")
        event = {"kind": "degrade", "cause": cause, "shard": shard,
                 "respawn_attempts": self.MAX_RESPAWNS,
                 "replayed_steps": len(self._history),
                 "latency_s": time.monotonic() - started}
        self.recovery_events.append(event)
        if self.faults is not None:
            self.faults.record("degraded", cause=cause, shard=shard,
                               replayed_steps=len(self._history))
