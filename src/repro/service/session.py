"""Join sessions: one long-running streaming join behind a bounded queue.

A :class:`JoinSession` turns the batch-oriented join engine into something
a producer can feed indefinitely:

* it wraps a :func:`repro.core.join.create_join` framework (any
  algorithm/backend, optionally the sharded engine via ``workers``) with
  per-session parameters (θ, λ, backend, workers),
* ingestion goes through a **bounded queue** with an explicit
  backpressure policy — ``"block"`` (producer waits), ``"drop"`` (newest
  items are discarded and counted) or ``"error"``
  (:class:`BackpressureError`) — so a fast producer cannot OOM the
  server,
* a worker pool (:mod:`repro.service.scheduler.pool`) drains the queue
  in **quanta** of up to ``batch_max_items``-vector micro-batches
  (:meth:`JoinSession.run_quantum`), feeds the join, and streams
  reported pairs to the session's sinks (:mod:`repro.service.sinks`);
  a session built without a scheduler runs on a process-wide default
  pool, started on first use,
* when a checkpoint path is configured, quanta write **atomic
  checkpoints** between batches via
  :class:`repro.core.checkpoint.PeriodicCheckpointer`; a crashed session
  is rebuilt by :meth:`JoinSession.resume`, which restores the join
  state, rolls durable sinks back to the checkpointed offset, and
  reports how many vectors the checkpoint covers so the producer can
  re-feed from there.

Because the queue is FIFO and at most one pool worker runs a session at
any time, the pairs a session emits are **identical** to
:func:`repro.core.join.streaming_self_join` over the same vectors,
whatever the batching or backpressure settings (pinned by a hypothesis
test in ``tests/test_service.py``).
"""

from __future__ import annotations

import json
import threading
import time
import traceback as _traceback
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro import obs
from repro.bench.metrics import LatencyStats
from repro.core.checkpoint import (
    CheckpointError,
    PeriodicCheckpointer,
    atomic_write_json,
    restore_join,
    snapshot_join,
)
from repro.core.join import create_join, parse_algorithm
from repro.core.results import SimilarPair
from repro.core.vector import SparseVector
from repro.exceptions import SSSJError, StreamOrderError
from repro.service.sinks import MemorySink, ResultSink, SinkError, create_sink

__all__ = [
    "SERVICE_CHECKPOINT_VERSION",
    "BACKPRESSURE_POLICIES",
    "RUN_STATES",
    "SessionError",
    "BackpressureError",
    "SessionConfig",
    "JoinSession",
]

SERVICE_CHECKPOINT_VERSION = 1

#: What ingestion does when the bounded queue is full.
BACKPRESSURE_POLICIES = ("block", "drop", "error")

#: Scheduler-visible run states of a session.
RUN_STATES = ("idle", "ready", "running", "evicted")

#: Micro-batches one quantum may run before the session goes back to the
#: ready queue — trades per-session burst throughput against
#: cross-session latency.
QUANTUM_BATCHES = 4


class SessionError(SSSJError):
    """Raised when a session is used in a state that cannot serve the call.

    When the session failed while processing a batch,
    ``worker_traceback`` carries the original traceback so the caller
    sees *where* the pool worker blew up, not just that it did.
    """

    def __init__(self, message: str, *,
                 worker_traceback: str | None = None) -> None:
        super().__init__(message)
        self.worker_traceback = worker_traceback


class BackpressureError(SessionError):
    """Raised by ingestion under the ``"error"`` backpressure policy."""


@dataclass(frozen=True)
class SessionConfig:
    """Everything that defines one session (and survives its checkpoint)."""

    name: str
    threshold: float
    decay: float
    #: Owning tenant for quota accounting and fairness under the
    #: scheduler; standalone sessions keep the default.  Travels in the
    #: checkpoint envelope, so an evicted session resumes under the same
    #: tenant.
    tenant: str = "default"
    algorithm: str = "STR-L2"
    backend: str | None = None
    workers: int | None = None
    approx: str | None = None
    queue_max: int = 4096
    batch_max_items: int = 128
    backpressure: str = "block"
    normalize: bool = True
    results_capacity: int = 100_000
    checkpoint_every_items: int | None = None
    checkpoint_every_seconds: float | None = None
    sink_retries: int = 3
    #: Bounded window backing the per-item latency percentiles; old
    #: checkpoints without the field restore at the default.
    latency_window: int = 65536

    def __post_init__(self) -> None:
        if self.sink_retries < 0:
            raise SessionError(
                f"sink_retries must be >= 0, got {self.sink_retries}")
        if self.latency_window <= 0:
            raise SessionError(
                f"latency_window must be positive, got {self.latency_window}")
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise SessionError(
                f"unknown backpressure policy {self.backpressure!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}")
        if self.queue_max <= 0:
            raise SessionError(f"queue_max must be positive, got {self.queue_max}")
        if self.batch_max_items <= 0:
            raise SessionError(
                f"batch_max_items must be positive, got {self.batch_max_items}")
        parse_algorithm(self.algorithm)  # fail fast on unknown algorithms

    def as_dict(self) -> dict[str, Any]:
        """Plain-dictionary form (checkpoint envelope, wire, stats)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SessionConfig":
        """Rebuild a config from :meth:`as_dict` output (unknown keys ignored)."""
        fields = {name for name in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{key: value for key, value in payload.items()
                      if key in fields})


class JoinSession:
    """One live streaming join fed through a bounded queue, run by a pool.

    Lifecycle: ``active`` → (``drain()``, briefly ``draining``) →
    ``drained`` → (``close()``) → ``closed``; an exception while
    processing moves it to ``failed`` and a simulated crash
    (:meth:`kill`) to ``killed``.
    All public methods are thread-safe; pairs stream out through
    ``session.results`` (the built-in :class:`MemorySink` cursor) and any
    extra sinks.
    """

    def __init__(self, config: SessionConfig, *,
                 sinks: Sequence[ResultSink] | None = None,
                 checkpoint_path: str | Path | None = None,
                 fault_injector=None,
                 scheduler=None,
                 _join=None) -> None:
        self.config = config
        self._fault_injector = fault_injector
        #: The session is a *schedulable unit*: a worker pool runs
        #: :meth:`run_quantum` whenever the scheduler's ready queue hands
        #: it out.  The scheduler only needs one method:
        #: ``notify(session)``, called (outside the session lock) whenever
        #: work is enqueued.  Without one, the process-wide default pool
        #: runs the session.
        if scheduler is None:
            from repro.service.scheduler.pool import default_pool

            scheduler = default_pool()
        self._scheduler = scheduler
        #: Scheduler-owned run state; mutated only under the ready
        #: queue's lock (see ``repro.service.scheduler.ready``).
        self.run_state = "idle"
        framework_name, _ = parse_algorithm(config.algorithm)
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        if self.checkpoint_path and framework_name != "STR":
            raise SessionError(
                f"only STR sessions are checkpointable (got {config.algorithm!r}); "
                "drop the checkpoint path or use a STR algorithm")
        if self.checkpoint_path and config.workers is not None:
            raise SessionError(
                "sharded sessions (workers=N) are not checkpointable yet; "
                "drop the checkpoint path or run single-process")
        # Worker faults reach the sharded engine only when there are real
        # worker processes to break; other sessions ignore that part of
        # the plan (sink/sever faults are injected at this layer instead).
        join_faults = None
        if (fault_injector is not None and config.workers is not None
                and fault_injector.plan.worker_events):
            join_faults = fault_injector
        self.join = _join if _join is not None else create_join(
            config.algorithm, config.threshold, config.decay,
            backend=config.backend, workers=config.workers,
            approx=config.approx, fault_plan=join_faults)
        self.results = MemorySink(capacity=config.results_capacity)
        self.sinks: list[ResultSink] = [self.results, *(sinks or [])]
        self.latency = LatencyStats(window=config.latency_window)
        # Hot-path instrument handles bound once (labels are per-tenant —
        # bounded cardinality — with per-session series left to the
        # scrape-time collectors in the service layer).
        self._obs_batch_seconds = None
        self._obs_vectors = self._obs_pairs = self._obs_batches = None
        if obs.enabled():
            registry = obs.get_registry()
            self._obs_batch_seconds = registry.histogram(
                "sssj_batch_seconds",
                "Session micro-batch processing time (seconds).",
                ("tenant",)).labels(tenant=config.tenant)
            self._obs_vectors = registry.counter(
                "sssj_session_vectors_total",
                "Vectors processed through session micro-batches.",
                ("tenant",)).labels(tenant=config.tenant)
            self._obs_pairs = registry.counter(
                "sssj_session_pairs_total",
                "Similar pairs emitted to session sinks.",
                ("tenant",)).labels(tenant=config.tenant)
            self._obs_batches = registry.counter(
                "sssj_session_batches_total",
                "Session micro-batches flushed.",
                ("tenant",)).labels(tenant=config.tenant)
        self.status = "active"
        self.resumed = _join is not None
        self.accepted = 0
        self.dropped = 0
        self.processed = self.join.stats.vectors_processed
        self.pairs_emitted = 0
        self.error: str | None = None
        self.error_traceback: str | None = None
        #: Vectors consumed (accepted + policy-dropped) since the session
        #: started — the dedup anchor for idempotent, sequence-numbered
        #: ingest across client reconnects.
        self.ingest_seq = 0
        self.deduped = 0
        self.sink_retried = 0
        self.batches_flushed = 0
        #: Last ingest or processing activity (monotonic clock) — the
        #: idle measure the scheduler's checkpoint-evict sweeper uses.
        self.last_activity = time.monotonic()
        #: Cached observability snapshot taken at eviction, so ``stats()``
        #: keeps answering after the join engine is dropped.
        self._evicted_stats: dict[str, Any] | None = None
        self.started_at = time.monotonic()
        self._queue: deque[tuple] = deque()
        self._queued_vectors = 0
        self._last_timestamp = float("-inf")
        self._last_processed_timestamp = float("-inf")
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        #: Held by the pool worker for the whole of :meth:`run_quantum`;
        #: :meth:`kill` and :meth:`close` take it to wait out a running
        #: quantum (re-entrant, so a quantum that kills its own session
        #: does not deadlock).
        self._quantum_lock = threading.RLock()
        self._stop = False
        self._checkpointer: PeriodicCheckpointer | None = None
        if self.checkpoint_path is not None:
            self._checkpointer = PeriodicCheckpointer(
                self.join, self.checkpoint_path,
                every_vectors=config.checkpoint_every_items,
                every_seconds=config.checkpoint_every_seconds,
                save=self._write_envelope)

    # -- checkpoint envelope ---------------------------------------------------

    def _write_envelope(self, join, path: Path, *,
                        status: str | None = None) -> Path:
        """Snapshot the join plus the session/sink state (inside a quantum)."""
        with obs.span("checkpoint", session=self.config.name,
                      tenant=self.config.tenant):
            return self._write_envelope_inner(join, path, status=status)

    def _write_envelope_inner(self, join, path: Path, *,
                              status: str | None = None) -> Path:
        payload = {
            "service_version": SERVICE_CHECKPOINT_VERSION,
            "config": self.config.as_dict(),
            "status": status or self.status,
            "processed": self.processed,
            "last_timestamp": (self._last_processed_timestamp
                               if self.processed else None),
            "accepted": self.accepted,
            "dropped": self.dropped,
            # Only trusted by resume() when the envelope was written at a
            # queue-empty barrier (status "evicted"): a mid-stream
            # checkpoint's counters include vectors still queued, which a
            # crash loses.
            "ingest_seq": self.ingest_seq,
            "deduped": self.deduped,
            "pairs_emitted": self.pairs_emitted,
            "join": snapshot_join(join),
            "sinks": [{"spec": sink.spec(), "position": sink.position()}
                      for sink in self.sinks],
        }
        return atomic_write_json(path, payload)

    @classmethod
    def resume(cls, checkpoint_path: str | Path, *,
               extra_sinks: Sequence[ResultSink] | None = None,
               scheduler=None) -> "JoinSession":
        """Rebuild a session from its checkpoint after a crash or restart.

        The join state is restored exactly; reconstructible sinks (JSONL)
        are rebuilt and rolled back to their checkpointed positions, so
        pairs they wrote *after* the checkpoint are discarded and
        re-derived when the producer re-feeds the uncovered vectors
        (``session.processed`` tells it where to resume from).  Volatile
        sinks (callback) cannot be rebuilt from a file — pass live
        replacements via ``extra_sinks``.

        An envelope written by :meth:`try_evict` (status ``"evicted"``) is
        a queue-empty barrier, not a crash: nothing was in flight, so the
        ingest counters (``ingest_seq``, ``accepted``, ``deduped``) are
        restored exactly and clients continue their sequence numbers
        transparently — the evict/restore cycle is invisible on the wire.
        """
        checkpoint_path = Path(checkpoint_path)
        with open(checkpoint_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        version = payload.get("service_version")
        if version != SERVICE_CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported service checkpoint version: {version!r}")
        config = SessionConfig.from_dict(payload["config"])
        join = restore_join(payload["join"])
        sink_states = payload.get("sinks", [])
        # Rebuild reconstructible sinks and roll each back to its
        # checkpointed position (the JSONL sink truncates pairs written
        # after the checkpoint).  Volatile sinks (callbacks) cannot be
        # rebuilt from a file — the caller re-attaches live replacements
        # via ``extra_sinks``.
        sinks: list[ResultSink] = []
        restores: list[tuple[ResultSink, dict[str, Any]]] = []
        for state in sink_states[1:]:  # element 0 is the built-in memory sink
            spec = state.get("spec")
            if spec is None:
                continue
            sink = create_sink(spec)
            sinks.append(sink)
            if state.get("position") is not None:
                restores.append((sink, state["position"]))
        sinks.extend(extra_sinks or [])
        session = cls(config, sinks=sinks, checkpoint_path=checkpoint_path,
                      scheduler=scheduler, _join=join)
        if payload.get("status") == "drained":
            # The join was flushed before this checkpoint; the session
            # comes back readable but refuses further ingestion.
            session.status = "drained"
        session.processed = int(payload.get("processed", 0))
        if payload.get("status") == "evicted":
            # Barrier envelope: the queue was empty when it was written,
            # so every consumed vector is covered — restore the ingest
            # counters exactly and let clients continue where they were.
            session.accepted = int(payload.get("accepted",
                                               session.processed))
            session.ingest_seq = int(payload.get("ingest_seq",
                                                 session.processed))
            session.deduped = int(payload.get("deduped", 0))
        else:
            # Vectors accepted but still queued at the crash were lost
            # with the queue; only the processed ones count as accepted
            # now.  The producer re-feeds from `processed`; the open
            # response tells the client to reset its sequence counter to
            # match.
            session.accepted = session.processed
            session.ingest_seq = session.processed
        session.dropped = int(payload.get("dropped", 0))
        session.pairs_emitted = int(payload.get("pairs_emitted", 0))
        # The checkpoint covers the stream up to this timestamp; re-fed
        # vectors must continue from there (ordering stays enforced).
        last_timestamp = payload.get("last_timestamp")
        if last_timestamp is not None:
            session._last_timestamp = float(last_timestamp)
            session._last_processed_timestamp = float(last_timestamp)
        if sink_states and sink_states[0].get("position") is not None:
            session.results.restore(sink_states[0]["position"])
        for sink, position in restores:
            sink.restore(position)
        return session

    # -- ingestion -------------------------------------------------------------

    def has_pending(self) -> bool:
        """Whether any queued work (vectors or control tokens) awaits a run.

        Called by the scheduler *while holding the ready-queue lock* to
        decide idle-vs-ready at quantum end; the lock order is always
        ready-queue lock → session lock, never the reverse.
        """
        with self._lock:
            return bool(self._queue) and not self._stop

    def _state_error(self) -> SessionError:
        return SessionError(
            f"session {self.config.name!r} is {self.status}"
            + (f": {self.error}" if self.error else ""),
            worker_traceback=self.error_traceback)

    def raise_if_failed(self) -> None:
        """Raise the session's failure (with the worker traceback) if any."""
        if self.status in ("failed", "killed"):
            raise self._state_error()

    def ingest(self, vectors: Iterable[SparseVector], *,
               seq: int | None = None) -> tuple[int, int]:
        """Enqueue vectors for processing; return ``(accepted, dropped)``.

        Applies the session's backpressure policy when the bounded queue
        is full.  Order is preserved: vectors are processed in exactly
        the order they were accepted.  Timestamps must be non-decreasing
        across the whole session (:class:`StreamOrderError` otherwise) —
        enforced here, at the boundary, so a misbehaving producer is told
        immediately instead of poisoning the join.

        ``seq`` makes ingestion idempotent across reconnects: it states
        how many vectors the producer had already sent before this batch.
        A batch (or prefix of one) the session already consumed — the
        resend of a request whose ack was lost — is acknowledged and
        dropped instead of being double-processed (counted in
        ``deduped``); a ``seq`` beyond the session's counter means
        vectors were lost in between and raises immediately.
        """
        accepted = dropped = 0
        if seq is not None:
            if seq < 0:
                raise SessionError(f"ingest seq must be >= 0, got {seq}")
            vectors = list(vectors)
            with self._lock:
                expected = self.ingest_seq
                if seq > expected:
                    raise SessionError(
                        f"ingest sequence gap for session "
                        f"{self.config.name!r}: batch starts at seq {seq} "
                        f"but only {expected} vectors were received — the "
                        "producer must re-feed from the session's counter")
                skip = min(expected - seq, len(vectors))
                if skip:
                    self.deduped += skip
            if skip == len(vectors):
                return 0, 0  # full duplicate: ack without re-processing
            vectors = vectors[skip:]
        try:
            for vector in vectors:
                enqueued_at = time.monotonic()
                with self._not_full:
                    notified_block = False
                    while (self.config.backpressure == "block"
                           and self._queued_vectors >= self.config.queue_max
                           and self.status == "active"):
                        if not notified_block:
                            # The notify in ``finally`` has not run yet, so
                            # the scheduler may not know this burst exists
                            # — nudge it before blocking, or nothing would
                            # ever drain the queue.  The session lock is
                            # dropped first (lock order is ready-queue →
                            # session, never the reverse).
                            self._not_full.release()
                            try:
                                self._scheduler.notify(self)
                            finally:
                                self._not_full.acquire()
                            notified_block = True
                            continue  # re-check the queue after the gap
                        self._not_full.wait(0.05)
                    if self.status != "active":
                        raise self._state_error()
                    # Checked and advanced under the lock, atomically with
                    # the append: concurrent producers cannot interleave an
                    # out-of-order pair of vectors into the queue — the
                    # slower producer is rejected here instead of failing
                    # the join.
                    if vector.timestamp < self._last_timestamp:
                        raise StreamOrderError(
                            f"vector {vector.vector_id} arrived at "
                            f"t={vector.timestamp} after "
                            f"t={self._last_timestamp}; session streams "
                            "must have non-decreasing timestamps")
                    self._last_timestamp = vector.timestamp
                    if self._queued_vectors >= self.config.queue_max:
                        if self.config.backpressure == "drop":
                            dropped += 1
                            self.dropped += 1
                            self.ingest_seq += 1  # consumed, even if discarded
                            continue
                        raise BackpressureError(
                            f"session {self.config.name!r} queue is full "
                            f"({self.config.queue_max} vectors) and the "
                            "policy is 'error'")
                    self._queue.append(("vec", vector, enqueued_at))
                    self._queued_vectors += 1
                    accepted += 1
                    self.accepted += 1
                    self.ingest_seq += 1
        finally:
            # Also when a vector mid-batch was refused: the ones accepted
            # before it are queued and must still be scheduled.
            if accepted or dropped:
                self.last_activity = time.monotonic()
            if accepted:
                self._scheduler.notify(self)
        return accepted, dropped

    def _enqueue_control(self, kind: str) -> tuple[dict, threading.Event]:
        reply: dict[str, Any] = {}
        done = threading.Event()
        with self._lock:
            if self.status != "active":
                raise self._state_error()
            self._queue.append(("ctl", kind, reply, done))
        self._scheduler.notify(self)
        return reply, done

    def _await_control(self, done: threading.Event, reply: dict,
                       timeout: float | None) -> dict:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not done.wait(0.05):
            if self.status in ("failed", "killed"):
                raise SessionError(
                    f"session {self.config.name!r} {self.status}"
                    + (f": {self.error}" if self.error else ""),
                    worker_traceback=self.error_traceback)
            if deadline is not None and time.monotonic() > deadline:
                raise SessionError(
                    f"timed out waiting for session {self.config.name!r}")
        if "error" in reply:
            raise SessionError(reply["error"])
        return reply

    # -- processing (pool worker) -----------------------------------------------

    def _emit(self, pairs: list[SimilarPair]) -> None:
        if not pairs:
            return
        for sink in self.sinks:
            self._emit_to_sink(sink, pairs)
        self.pairs_emitted += len(pairs)

    def _emit_to_sink(self, sink: ResultSink, pairs: list[SimilarPair]) -> None:
        """Emit with bounded retry: transient sink failures (a full disk
        that clears, a flaky remote) get ``config.sink_retries`` more
        chances with exponential backoff before they fail the session."""
        retries = self.config.sink_retries
        delay = 0.05
        for attempt in range(retries + 1):
            try:
                if (self._fault_injector is not None
                        and self._fault_injector.sink_fail_due()):
                    raise SinkError("injected sink failure")
                sink.emit(pairs)
                return
            except Exception:
                if attempt >= retries:
                    raise
                self.sink_retried += 1
                time.sleep(delay)
                delay = min(delay * 2, 1.0)

    def _process_vectors(self, work: list[tuple]) -> None:
        """Feed one micro-batch of queued vectors through the join.

        The batch goes to ``join.feed`` whole, so a sharded join sends it
        to its partitions in chunks rather than one vector per round
        trip.  A vector's latency runs from its enqueue to the end of its
        batch, when its pairs are emitted.
        """
        started = time.perf_counter()
        with obs.span("batch", session=self.config.name,
                      tenant=self.config.tenant) as span:
            pairs = self.join.feed([vector for _, vector, _ in work])
            done = time.monotonic()
            for _, _, enqueued_at in work:
                self.latency.record(done - enqueued_at)
            self.processed += len(work)
            self._last_processed_timestamp = work[-1][1].timestamp
            self._emit(pairs)
            span.note(items=len(work), pairs=len(pairs))
        self.batches_flushed += 1
        if self._obs_batches is not None:
            self._obs_batch_seconds.observe(time.perf_counter() - started)
            self._obs_vectors.inc(len(work))
            self._obs_pairs.inc(len(pairs))
            self._obs_batches.inc()

    def _flush_pending_controls(self) -> None:
        """Answer control tokens that will never be handled (session stopping)."""
        with self._lock:
            for item in self._queue:
                if item[0] == "ctl" and not item[3].is_set():
                    item[2].setdefault(
                        "error", f"session {self.config.name!r} is {self.status}")
                    item[3].set()
            self._queue = deque(
                item for item in self._queue if item[0] != "ctl")

    def _process_queue_remainder(self, final_status: str) -> None:
        """Stop accepting, then process every vector still in the queue.

        A producer racing a drain/close can append vectors *behind* the
        control token (its status check passed before the flip); they
        were reported as accepted, so they must be processed, not
        silently dropped.  Flipping the status first closes the race —
        afterwards the one extraction below sees the final queue.
        """
        with self._lock:
            self.status = final_status
            leftovers = [item for item in self._queue if item[0] == "vec"]
            self._queue = deque(item for item in self._queue
                                if item[0] != "vec")
            self._queued_vectors = 0
            self._not_full.notify_all()
        if leftovers:
            self._process_vectors(leftovers)

    def _handle_control(self, token: tuple) -> bool:
        """Run one control token; return True when the session stops running."""
        _, kind, reply, done = token
        try:
            if kind == "checkpoint":
                if self._checkpointer is None:
                    reply["error"] = (
                        f"session {self.config.name!r} has no checkpoint path")
                else:
                    reply["path"] = str(self._checkpointer.tick(force=True))
            elif kind == "drain":
                # Transitional status: ingestion is already refused, but
                # readers only see "drained" once the flush pairs landed.
                self._process_queue_remainder("draining")
                self._emit(self.join.flush())
                with self._lock:
                    self.status = "drained"
                if self._checkpointer is not None:
                    reply["checkpoint"] = str(self._checkpointer.tick(force=True))
                for sink in self.sinks:
                    sink.flush()
                reply["processed"] = self.processed
                reply["pairs_emitted"] = self.pairs_emitted
            elif kind == "stop":
                self._process_queue_remainder("closed")
                if self._checkpointer is not None:
                    reply["checkpoint"] = str(self._checkpointer.tick(force=True))
                return True
            else:  # pragma: no cover - internal invariant
                reply["error"] = f"unknown control token {kind!r}"
        finally:
            done.set()
        return kind == "drain"

    def _collect_ready(self, limit: int) -> list[tuple] | tuple | None:
        """Next unit of work: whatever is queued, now.

        Pool workers must never sleep inside one session (that would
        stall every other ready session behind them), so nothing waits
        for a batch to fill — the scheduler's visit cadence decides how
        much has queued up.  Returns ``None`` when nothing is queued (or
        the session was stopped), a control token 4-tuple (a queue
        barrier: every vector ahead of it was returned earlier), or up to
        ``limit`` vector entries.
        """
        with self._lock:
            if self._stop or not self._queue:
                return None
            head = self._queue.popleft()
            if head[0] == "ctl":
                return head
            self._queued_vectors -= 1
            batch = [head]
            while (len(batch) < limit and self._queue
                   and self._queue[0][0] == "vec"):
                batch.append(self._queue.popleft())
                self._queued_vectors -= 1
            self._not_full.notify_all()
            return batch

    def run_quantum(self) -> tuple[bool, int]:
        """Run up to ``QUANTUM_BATCHES`` micro-batches on the caller's thread.

        The only code that runs a session: a pool worker calls this after
        popping the session from the ready queue (which guarantees
        exclusive execution — at most one worker runs a given session at
        any time, so the FIFO determinism contract holds under any pool
        size).  Control tokens are executed in queue order.

        Returns ``(more_pending, vectors_processed)``; ``more_pending``
        is advisory — the pool re-checks under the ready-queue lock.
        """
        limit = max(1, self.config.batch_max_items)
        processed = 0
        with self._quantum_lock:
            try:
                for _ in range(QUANTUM_BATCHES):
                    work = self._collect_ready(limit)
                    if work is None:
                        break
                    if isinstance(work, tuple):  # control token
                        if self._handle_control(work):
                            self._flush_pending_controls()
                            return False, processed
                        continue
                    self._process_vectors(work)
                    processed += len(work)
                    if self._checkpointer is not None:
                        self._checkpointer.tick()
            except BaseException as error:  # noqa: BLE001 - reported via status
                self._fail(error)
                self._flush_pending_controls()
                return False, processed
        if processed:
            self.last_activity = time.monotonic()
        with self._lock:
            more = bool(self._queue) and not self._stop
        return more, processed

    def try_evict(self) -> Path | None:
        """Checkpoint-and-evict an idle session; return the envelope path.

        Only callable when the scheduler has claimed the session (run
        state ``"evicted"``, so no pool worker can pick it up) and only
        succeeds at a queue-empty barrier: with nothing in flight the
        envelope covers every consumed vector, the join engine and the
        retained result pairs can be dropped entirely, and a later
        :meth:`resume` restores the ingest counters exactly — clients
        never notice the round trip.  Returns ``None`` (and leaves the
        session live) when there is no checkpoint path or work snuck into
        the queue; concurrent ingests that lose the race see the
        transitional ``"evicting"`` (then ``"evicted"``) status and
        trigger the service's lazy restore.  ``"evicted"`` is published
        last, once the engine is released, so an observed-evicted
        session never holds a join.
        """
        if self.checkpoint_path is None or self.join is None:
            return None
        with self._lock:
            if self.status != "active" or self._queue or self._queued_vectors:
                return None
            # Transitional fence: ingest sees a non-active status and
            # raises (routing the caller to the service's restore path),
            # but the public "evicted" state is only published below,
            # once the engine is gone — an observer that reads status
            # "evicted" may rely on the placeholder holding no join.
            self.status = "evicting"
        try:
            # The envelope is stamped "evicted" (the barrier contract
            # resume() trusts), not the transitional in-memory status.
            path = self._write_envelope(self.join, self.checkpoint_path,
                                        status="evicted")
        except BaseException:
            with self._lock:
                if self.status == "evicting":
                    self.status = "active"
            raise
        self._evicted_stats = {
            "counters": self.join.stats.as_dict(),
            "backend": self.backend,
            "kernel": self.kernel,
            "approx": getattr(self.join, "approx", self.config.approx),
            # Wall-clock eviction time: stats() for the placeholder must
            # say *when* the engine was dropped, not pretend it's live.
            "evicted_at": time.time(),
        }
        self._checkpointer = None
        closer = getattr(self.join, "close", None)
        if closer is not None:
            closer()
        self.join = None
        # Free the retained pairs but keep the cursor base monotonic:
        # readers that come back after a restore see ``first_retained``
        # jump, exactly as after a crash recovery.
        self.results.restore(self.results.position())
        for sink in self.sinks:
            if sink is not self.results:
                sink.close()
        with self._lock:
            if self.status == "evicting":  # a concurrent close() wins
                self.status = "evicted"
        return path

    def _fail(self, error: BaseException) -> None:
        with self._lock:
            self.status = "failed"
            self.error = f"{type(error).__name__}: {error}"
            self.error_traceback = _traceback.format_exc()
            self._not_full.notify_all()
            # Unblock any control waiters.
            for item in self._queue:
                if item[0] == "ctl":
                    item[2]["error"] = self.error
                    item[3].set()
            self._queue.clear()
            self._queued_vectors = 0

    # -- lifecycle -------------------------------------------------------------

    def checkpoint_now(self, timeout: float | None = 30.0) -> Path:
        """Barrier checkpoint: covers every vector ingested before the call."""
        reply, done = self._enqueue_control("checkpoint")
        self._await_control(done, reply, timeout)
        return Path(reply["path"])

    def drain(self, timeout: float | None = 60.0) -> dict[str, Any]:
        """Process everything queued, flush the join, checkpoint, stop.

        Returns ``{"processed": ..., "pairs_emitted": ..., "checkpoint": ...}``.
        The session refuses further ingestion afterwards; results remain
        readable through the sinks.
        """
        reply, done = self._enqueue_control("drain")
        return dict(self._await_control(done, reply, timeout))

    def close(self, timeout: float | None = 30.0) -> None:
        """Stop the session (final checkpoint if configured) and free sinks."""
        with self._lock:
            still_active = self.status == "active"
        if still_active:
            # The pool executes the stop token (a service keeps its pool
            # running until every session is closed).
            try:
                reply, done = self._enqueue_control("stop")
                self._await_control(done, reply, timeout)
            except SessionError:
                pass  # already failed/killed: fall through to teardown
        with self._lock:
            self._stop = True
            if self.status in ("active", "drained", "evicting", "evicted"):
                self.status = "closed"
            self._not_full.notify_all()
        with self._quantum_lock:  # a quantum still running must not emit
            pass                  # into the sinks closed below
        for sink in self.sinks:
            sink.close()
        closer = getattr(self.join, "close", None)
        if closer is not None:  # sharded joins own worker processes
            closer()

    def kill(self) -> None:
        """Simulate a crash: stop immediately, no flush, no checkpoint.

        Used by the recovery tests — everything after the last checkpoint
        is lost, exactly as in a real ``kill -9``.  Returns only once no
        quantum of this session is running, so nothing (a checkpoint
        write included) happens after the "crash".
        """
        with self._lock:
            self._stop = True
            self.status = "killed"
            self._not_full.notify_all()
        with self._quantum_lock:
            pass

    # -- observability ---------------------------------------------------------

    @property
    def backend(self) -> str | None:
        """The backend as configured: ``"auto"`` for an adaptive join.

        A pinned join reports its kernel.  This labels the session's
        ``sssj_engine_*`` series, so an adaptive join's counters stay one
        series across its kernel switch.
        """
        join = self.join
        if join is None:  # evicted placeholder: last-known snapshot
            return (self._evicted_stats or {}).get("backend",
                                                   self.config.backend)
        if getattr(join, "adaptive", False):
            return "auto"
        return join.backend_name

    @property
    def kernel(self) -> str | None:
        """Name of the compute kernel the session's join runs now."""
        join = self.join
        if join is None:
            return (self._evicted_stats or {}).get("kernel",
                                                   self.config.backend)
        return join.backend_name

    @property
    def queued(self) -> int:
        """Vectors currently waiting in the bounded queue."""
        with self._lock:
            return self._queued_vectors

    def stats(self) -> dict[str, Any]:
        """Live counters + latency percentiles (the ``stats`` endpoint row).

        Works on an evicted placeholder too (the engine is gone, but the
        snapshot cached by :meth:`try_evict` keeps the counters visible)
        — observability must never force a restore.
        """
        with self._lock:
            queued = self._queued_vectors
        evicted_at = None
        backend, kernel = self.backend, self.kernel
        join = self.join
        if join is None:
            cached = self._evicted_stats or {}
            approx = cached.get("approx", self.config.approx)
            counters = cached.get("counters", {})
            evicted_at = cached.get("evicted_at")
        else:
            approx = getattr(join, "approx", self.config.approx)
            counters = join.stats.as_dict()
        return {
            "name": self.config.name,
            "tenant": self.config.tenant,
            "status": self.status,
            "run_state": self.run_state,
            "algorithm": self.config.algorithm,
            "threshold": self.config.threshold,
            "decay": self.config.decay,
            "backend": backend,
            "kernel": kernel,
            "workers": self.config.workers,
            # Canonical spec from the live join (None on an exact session).
            "approx": approx,
            "backpressure": self.config.backpressure,
            "queue_max": self.config.queue_max,
            "queued": queued,
            "accepted": self.accepted,
            "dropped": self.dropped,
            "deduped": self.deduped,
            "ingest_seq": self.ingest_seq,
            "processed": self.processed,
            "pairs_emitted": self.pairs_emitted,
            "batches_flushed": self.batches_flushed,
            "sink_retried": self.sink_retried,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "evicted_at": evicted_at,
            "resumed": self.resumed,
            "error": self.error,
            "latency": self.latency.summary(),
            "counters": counters,
            "sinks": [sink.describe() for sink in self.sinks],
        }
