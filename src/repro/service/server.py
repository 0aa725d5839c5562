"""The join service: many sessions behind one NDJSON socket endpoint.

:class:`JoinService` is the transport-independent core: a registry of
named :class:`~repro.service.session.JoinSession` objects, the request
dispatcher (``open`` / ``ingest`` / ``results`` / ``stats`` / ``evict``
/ ``checkpoint`` / ``drain`` / ``close`` / ``shutdown``; tests drive it
directly with plain dictionaries), and the scheduler that runs N
sessions over M threads:

* a :class:`~repro.service.scheduler.pool.WorkerPool` (one worker per
  CPU by default) runs quanta handed out by a weighted
  deficit-round-robin :class:`~repro.service.scheduler.ready.DRRReadyQueue`,
  so one hot tenant cannot starve the rest;
* per-tenant :class:`~repro.service.scheduler.tenants.TenantState`
  enforces session-count, standing-queue and ingest-rate quotas before
  any vector is consumed (rejections carry machine-readable codes and
  never advance the ingest sequence);
* idle sessions are **checkpointed and evicted** — the engine and the
  retained pairs are dropped, leaving a placeholder whose memory cost is
  a config and a handful of counters; the next ingest (or results read)
  **lazily restores** the session from its envelope, transparently to
  the client (sequence numbers continue exactly).

:func:`serve` puts the service behind the single-loop selector transport
(:class:`~repro.service.scheduler.aserver.SelectorServiceServer`), which
speaks the line-delimited JSON protocol of :mod:`repro.service.protocol`;
``sssj serve`` wraps it.

Determinism: scheduling only decides *when* a session's FIFO queue is
drained, never in what order or by how many concurrent workers (quanta
are exclusive), so each session emits exactly the pairs of
``streaming_self_join`` over its accepted vectors — under any pool size,
quota configuration or eviction timing (pinned in
``tests/test_scheduler.py``).

Crash recovery: when the service is given a checkpoint directory, every
session with checkpointing enabled writes its envelope there
(atomically), and :meth:`JoinService.recover_sessions` — called at
server start — resumes every ``*.ckpt`` found, so a ``kill -9`` loses at
most the vectors ingested after the last checkpoint (which the producer
re-feeds, guided by the resumed session's ``processed`` counter; the
JSONL sink rollback guarantees no duplicated pairs).
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.core.join import parse_algorithm
from repro.exceptions import SSSJError
from repro.service.protocol import (
    ServiceProtocolError,
    decode_vector,
    error_response,
    pair_to_wire,
)
from repro.service.scheduler.aserver import SelectorServiceServer
from repro.service.scheduler.pool import WorkerPool
from repro.service.scheduler.ready import DRRReadyQueue
from repro.service.scheduler.tenants import TenantQuota, TenantState
from repro.service.session import (
    BackpressureError,
    JoinSession,
    SessionConfig,
    SessionError,
)
from repro.service.sinks import SinkError, create_sink

__all__ = ["JoinService", "serve"]

_SESSION_NAME_OK = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")

#: ``JoinStatistics`` counters that only ever grow — exported as
#: Prometheus counters via delta tracking (several sessions feed the
#: same labeled series).
_ENGINE_MONOTONE = (
    "vectors_processed", "pairs_output", "entries_traversed",
    "candidates_generated", "candidates_sketch_pruned", "full_similarities",
    "entries_indexed", "entries_pruned", "reindexings", "reindexed_entries",
    "index_rebuilds",
)
#: Level-style engine statistics — exported as gauges.
_ENGINE_GAUGES = ("residual_entries", "max_index_size", "max_residual_size")


def _collect_service(service: "JoinService") -> None:
    """Scrape-time collector: export the session registry to the metrics
    registry.  Reads plain attributes and cached snapshots only — never
    forces a restore, never touches per-posting state."""
    registry = obs.get_registry()
    tracker = service._obs_tracker
    with service._lock:
        sessions = dict(service.sessions)
    registry.gauge("sssj_server_sessions",
                   "Sessions currently registered.").labels().set(
        len(sessions))
    registry.gauge("sssj_server_uptime_seconds",
                   "Service uptime.").labels().set(
        time.monotonic() - service.started_at)
    queue_gauge = registry.gauge(
        "sssj_session_queue_depth", "Vectors waiting in the bounded queue.",
        ("session", "tenant"))
    tenant_ingest = registry.counter(
        "sssj_tenant_ingested_vectors_total",
        "Vectors accepted for ingestion per tenant.", ("tenant",))
    for name, session in sessions.items():
        config = session.config
        epoch = round(session.started_at, 6)
        join = session.join
        if join is not None:
            counters = join.stats.as_dict()
        else:  # evicted placeholder: last-known snapshot
            counters = (session._evicted_stats or {}).get("counters", {})
        backend = session.backend or "default"
        labels = {"session": name, "tenant": config.tenant,
                  "backend": backend}
        for key in _ENGINE_MONOTONE:
            if key not in counters:
                continue
            child = registry.counter(
                f"sssj_engine_{key}_total",
                f"Engine statistic {key} (see JoinStatistics).",
                ("session", "tenant", "backend")).labels(**labels)
            tracker.export(child, (key, name, epoch), counters[key])
        for key in _ENGINE_GAUGES:
            if key not in counters:
                continue
            registry.gauge(
                f"sssj_engine_{key}",
                f"Engine statistic {key} (see JoinStatistics).",
                ("session", "tenant", "backend")).labels(**labels).set(
                counters[key])
        queue_gauge.labels(session=name, tenant=config.tenant).set(
            session.queued)
        tracker.export(tenant_ingest.labels(tenant=config.tenant),
                       ("tenant_ingest", name, epoch), session.accepted)
    _collect_scheduler(service, registry, tracker)


def _collect_scheduler(service: "JoinService", registry, tracker) -> None:
    """The scrape's scheduler part: pool, DRR queue, eviction, tenants."""
    pool = service.pool.stats()
    registry.gauge("sssj_pool_workers",
                   "Threads in the worker pool.").labels().set(
        pool["workers"])
    tracker.export(registry.counter(
        "sssj_pool_quanta_total", "Quanta run by the worker pool.").labels(),
        "pool_quanta", pool["quanta_run"])
    tracker.export(registry.counter(
        "sssj_pool_vectors_total",
        "Vectors processed by pooled quanta.").labels(),
        "pool_vectors", pool["vectors_processed"])
    ready = service.ready.stats()
    registry.gauge("sssj_scheduler_ready_sessions",
                   "Sessions waiting in the DRR ready queue.").labels().set(
        ready["ready_sessions"])
    registry.gauge("sssj_scheduler_tenants_in_rotation",
                   "Tenants currently in the DRR rotation.").labels().set(
        ready["tenants_in_rotation"])
    tracker.export(registry.counter(
        "sssj_scheduler_pushes_total", "Ready-queue pushes.").labels(),
        "ready_pushes", ready["pushes"])
    tracker.export(registry.counter(
        "sssj_scheduler_pops_total", "Ready-queue pops.").labels(),
        "ready_pops", ready["pops"])
    deficit_gauge = registry.gauge(
        "sssj_scheduler_drr_deficit",
        "DRR deficit per tenant (negative values are carried debt).",
        ("tenant",))
    for tenant, deficit in ready["deficit"].items():
        deficit_gauge.labels(tenant=tenant).set(deficit)
    tracker.export(registry.counter(
        "sssj_scheduler_evictions_total",
        "Idle sessions checkpoint-evicted.").labels(),
        "evictions", service.evictions)
    tracker.export(registry.counter(
        "sssj_scheduler_restores_total",
        "Evicted sessions lazily restored.").labels(),
        "restores", service.restores)
    with service._lock:
        tenants = list(service.tenants.values())
    admitted = registry.counter(
        "sssj_tenant_admitted_vectors_total",
        "Vectors admitted past tenant quotas.", ("tenant",))
    tenant_sessions = registry.gauge(
        "sssj_tenant_sessions", "Open sessions per tenant.", ("tenant",))
    for state in tenants:
        tracker.export(admitted.labels(tenant=state.name),
                       ("tenant_admitted", state.name), state.admitted)
        tenant_sessions.labels(tenant=state.name).set(state.session_count)


def _session_name(request: dict[str, Any]) -> str:
    name = request.get("session")
    if not isinstance(name, str) or not name:
        raise ServiceProtocolError("request needs a 'session' name")
    if not set(name) <= _SESSION_NAME_OK:
        raise ServiceProtocolError(
            f"session name {name!r} may only use letters, digits, '.', '_', '-'")
    return name


class JoinService:
    """Session registry, request dispatcher and the pool that runs them.

    ``pool_workers`` defaults to ``os.cpu_count()``.  Quanta execute
    Python under the GIL, so the size buys concurrency — a slow session
    does not hold up the others — rather than CPU parallelism.
    """

    def __init__(self, *, checkpoint_dir: str | Path | None = None,
                 checkpoint_every_items: int | None = None,
                 checkpoint_every_seconds: float | None = None,
                 fault_injector=None,
                 pool_workers: int | None = None,
                 default_quota: TenantQuota | None = None,
                 tenant_quotas: dict[str, TenantQuota] | None = None,
                 evict_after: float | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if evict_after is not None and evict_after <= 0:
            raise ValueError(f"evict_after must be positive, got {evict_after}")
        #: Optional service-wide :class:`~repro.faults.FaultInjector`:
        #: sink faults are injected inside every session's emit loop,
        #: sever faults by the transport, worker faults by the sharded
        #: engine of sessions opened with process workers.
        self.fault_injector = fault_injector
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        #: Server-level defaults applied to sessions that enable
        #: checkpointing without naming their own cadence.
        self.checkpoint_every_items = checkpoint_every_items
        self.checkpoint_every_seconds = checkpoint_every_seconds
        self.sessions: dict[str, JoinSession] = {}
        self._lock = threading.RLock()
        self.started_at = time.monotonic()
        self.requests_handled = 0
        self.shutting_down = False
        #: Quota applied to tenants without an explicit entry in
        #: ``tenant_quotas`` (the all-None default imposes no limits).
        self.default_quota = default_quota or TenantQuota()
        self.tenant_quotas = dict(tenant_quotas or {})
        self._clock = clock
        self.tenants: dict[str, TenantState] = {}
        self.ready = DRRReadyQueue()
        #: Runs every session's quanta and is the sessions' scheduler
        #: (``notify`` pushes a session onto the ready queue).
        self.pool = WorkerPool(self.ready, workers=pool_workers)
        #: Seconds of inactivity after which an idle checkpointable
        #: session is evicted (None disables the sweeper).
        self.evict_after = evict_after
        self.evictions = 0
        self.restores = 0
        self._restore_locks: dict[str, threading.Lock] = {}
        self._sweeper: threading.Thread | None = None
        self._sweeper_stop = threading.Event()
        self._obs_requests = None
        self._obs_tracker = obs.DeltaTracker()
        if obs.enabled():
            self._obs_requests = obs.get_registry().counter(
                "sssj_server_requests_total",
                "Requests dispatched by op.", ("op",))
            obs.get_registry().add_collector(_collect_service, owner=self)
        self.pool.start()
        if evict_after is not None:
            self._sweeper = threading.Thread(
                target=self._sweep_loop, name="sssj-evict-sweeper",
                daemon=True)
            self._sweeper.start()

    # -- session management ----------------------------------------------------

    def checkpoint_path_for(self, name: str) -> Path | None:
        if self.checkpoint_dir is None:
            return None
        return self.checkpoint_dir / f"{name}.ckpt"

    def tenant_state(self, tenant: str) -> TenantState:
        """The (lazily created) accounting state for a tenant."""
        with self._lock:
            state = self.tenants.get(tenant)
            if state is None:
                quota = self.tenant_quotas.get(tenant, self.default_quota)
                state = self.tenants[tenant] = TenantState(
                    tenant, quota, clock=self._clock)
                self.ready.set_weight(tenant, quota.weight)
            return state

    def recover_sessions(self) -> list[str]:
        """Resume every checkpointed session found in the checkpoint dir."""
        if self.checkpoint_dir is None:
            return []
        recovered: list[str] = []
        with self._lock:
            for path in sorted(self.checkpoint_dir.glob("*.ckpt")):
                name = path.stem
                if name in self.sessions:
                    continue
                self.sessions[name] = JoinSession.resume(
                    path, scheduler=self.pool)
                recovered.append(name)
        return recovered

    def _config_from_request(self, name: str,
                             request: dict[str, Any]) -> SessionConfig:
        threshold = request.get("theta", request.get("threshold"))
        decay = request.get("decay")
        if threshold is None or decay is None:
            raise ServiceProtocolError(
                "open needs 'theta' (or 'threshold') and 'decay'")
        checkpointed = self.checkpoint_dir is not None and bool(
            request.get("checkpoint", True))
        every_items = request.get("checkpoint_every_items",
                                  self.checkpoint_every_items)
        every_seconds = request.get("checkpoint_every_seconds",
                                    self.checkpoint_every_seconds)
        if checkpointed and every_items is None and every_seconds is None:
            every_items = 500  # sane default cadence for served sessions
        return SessionConfig(
            name=name,
            threshold=float(threshold),
            decay=float(decay),
            tenant=str(request.get("tenant", "default")),
            algorithm=str(request.get("algorithm", "STR-L2")),
            backend=request.get("backend"),
            workers=(int(request["workers"])
                     if request.get("workers") is not None else None),
            shard_executor=str(request.get("shard_executor", "serial")),
            approx=request.get("approx"),
            queue_max=int(request.get("queue_max", 4096)),
            batch_max_items=int(request.get("batch_max_items", 128)),
            backpressure=str(request.get("backpressure", "block")),
            normalize=bool(request.get("normalize", True)),
            results_capacity=int(request.get("results_capacity", 100_000)),
            checkpoint_every_items=every_items if checkpointed else None,
            checkpoint_every_seconds=every_seconds if checkpointed else None,
        )

    def open_session(self, request: dict[str, Any]) -> dict[str, Any]:
        name = _session_name(request)
        with self._lock:
            known = name in self.sessions
        state = None
        if not known:
            # Only a new session is charged against its tenant's quota;
            # re-opening an existing (possibly evicted) one answers from
            # the registry.
            state = self.tenant_state(str(request.get("tenant", "default")))
            state.admit_session(name)  # QuotaError propagates to handle()
        try:
            return self._open_locked(name, request)
        except BaseException:
            if state is not None:
                state.release_session(name)
            raise

    def _open_locked(self, name: str,
                     request: dict[str, Any]) -> dict[str, Any]:
        with self._lock:
            existing = self.sessions.get(name)
            if existing is not None:
                return {"ok": True, "session": name, "existing": True,
                        "resumed": existing.resumed,
                        "processed": existing.processed,
                        "ingest_seq": existing.ingest_seq,
                        "status": existing.status}
            checkpoint_path = self.checkpoint_path_for(name)
            wants_checkpoint = bool(request.get("checkpoint", True))
            if checkpoint_path is not None and wants_checkpoint \
                    and checkpoint_path.exists():
                session = JoinSession.resume(checkpoint_path,
                                             scheduler=self.pool)
            else:
                config = self._config_from_request(name, request)
                sinks = [create_sink(spec) for spec in request.get("sinks", [])]
                path = checkpoint_path if wants_checkpoint else None
                # Non-STR / sharded sessions cannot checkpoint; serve them
                # without recovery rather than refusing them outright.
                framework, _ = parse_algorithm(config.algorithm)
                if path is not None and (config.workers is not None
                                         or framework != "STR"):
                    path = None
                if path is None:
                    config = SessionConfig.from_dict({
                        **config.as_dict(),
                        "checkpoint_every_items": None,
                        "checkpoint_every_seconds": None,
                    })
                session = JoinSession(config, sinks=sinks,
                                      checkpoint_path=path,
                                      fault_injector=self.fault_injector,
                                      scheduler=self.pool)
            self.sessions[name] = session
            return {"ok": True, "session": name, "existing": False,
                    "resumed": session.resumed,
                    "processed": session.processed,
                    "ingest_seq": session.ingest_seq,
                    "status": session.status}

    def _session(self, name: str) -> JoinSession:
        with self._lock:
            session = self.sessions.get(name)
        if session is None:
            raise SessionError(f"no session named {name!r}; open it first")
        if session.status not in ("evicted", "evicting"):
            return session
        # "evicting" routes here too: the restore gate is held by the
        # in-flight evict, so this blocks until the envelope is final
        # instead of reading a half-written checkpoint.
        return self._restore_session(name)

    def _restore_session(self, name: str) -> JoinSession:
        """Swap an evicted placeholder for a live session (serialised)."""
        with self._lock:
            gate = self._restore_locks.setdefault(name, threading.Lock())
        with gate:
            with self._lock:
                session = self.sessions.get(name)
            if session is None:
                raise SessionError(f"no session named {name!r}; open it first")
            if session.status != "evicted":
                return session  # another caller restored it first
            path = session.checkpoint_path
            if path is None:  # pragma: no cover - evict requires a path
                raise SessionError(
                    f"session {name!r} is evicted but has no checkpoint")
            with obs.span("restore", session=name):
                restored = JoinSession.resume(path, scheduler=self.pool)
            with self._lock:
                self.sessions[name] = restored
            self.restores += 1
            return restored

    # -- request dispatch ------------------------------------------------------

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Serve one request dictionary; always returns a response dict."""
        self.requests_handled += 1
        op = request.get("op")
        if self._obs_requests is not None:
            self._obs_requests.labels(op=str(op)).inc()
        try:
            if op == "ping":
                return {"ok": True, "pong": True,
                        "uptime_s": round(time.monotonic() - self.started_at, 3)}
            if op == "open":
                return self.open_session(request)
            if op == "ingest":
                return self._handle_ingest(request)
            if op == "results":
                return self._handle_results(request)
            if op == "stats":
                return self.stats(request.get("session"))
            if op == "metrics":
                return self.metrics_snapshot()
            if op == "sessions":
                return self.session_list(request.get("tenant"))
            if op == "evict":
                return self._handle_evict(request)
            if op == "checkpoint":
                session = self._session(_session_name(request))
                return {"ok": True,
                        "checkpoint": str(session.checkpoint_now())}
            if op == "drain":
                return self._handle_drain(request)
            if op == "close":
                return self.close_session(_session_name(request))
            if op == "shutdown":
                return self.shutdown()
            raise ServiceProtocolError(f"unknown op {op!r}")
        except BackpressureError as error:
            return error_response(str(error), backpressure=True)
        except (ServiceProtocolError, SessionError, SinkError,
                SSSJError, ValueError, TypeError, OSError) as error:
            # TypeError: a wrong-typed field (``"cursor": {}``) is the
            # client's error too, never a reason to drop the request.
            extra = {}
            worker_traceback = getattr(error, "worker_traceback", None)
            if worker_traceback:
                extra["traceback"] = worker_traceback
            # Quota rejections carry a machine-readable code and, for
            # rate limits, a precise back-off hint.
            code = getattr(error, "code", None)
            if code:
                extra["code"] = code
                extra["quota"] = True
            retry_after = getattr(error, "retry_after_s", None)
            if retry_after is not None:
                extra["retry_after_s"] = retry_after
            return error_response(str(error), **extra)

    def close_session(self, name: str) -> dict[str, Any]:
        """Close and deregister one session.

        Idempotent: closing a session that is already gone is a success,
        so a client retrying a close whose ack was lost does not see a
        spurious error.
        """
        with self._lock:
            session = self.sessions.pop(name, None)
            self._restore_locks.pop(name, None)
        if session is None:
            return {"ok": True, "session": name, "missing": True}
        session.close()
        self.tenant_state(session.config.tenant).release_session(name)
        return {"ok": True, "session": name}

    def _handle_ingest(self, request: dict[str, Any]) -> dict[str, Any]:
        name = _session_name(request)
        payloads = request.get("vectors")
        if not isinstance(payloads, list):
            raise ServiceProtocolError("ingest needs a 'vectors' list")
        seq = request.get("seq")
        seq = None if seq is None else int(seq)
        for attempt in (0, 1):
            session = self._session(name)
            self._admit_ingest(session, seq, len(payloads))
            vectors = [decode_vector(payload,
                                     normalize=session.config.normalize)
                       for payload in payloads]
            deduped_before = session.deduped
            try:
                accepted, dropped = session.ingest(vectors, seq=seq)
            except SessionError:
                # The sweeper may evict between our lookup and the
                # session's own status check; restore once and retry.
                with self._lock:
                    current = self.sessions.get(name)
                if (attempt == 0 and current is not None
                        and current.status in ("evicted", "evicting")):
                    continue
                raise
            return {"ok": True, "accepted": accepted, "dropped": dropped,
                    "deduped": session.deduped - deduped_before,
                    "ingest_seq": session.ingest_seq,
                    "queued": session.queued}
        raise AssertionError("unreachable")  # pragma: no cover

    def _admit_ingest(self, session: JoinSession, seq: int | None,
                      count: int) -> None:
        """Charge the batch's *fresh* vectors against the tenant's quotas.

        Resends deduplicated by the sequence number are free — the
        session already consumed them — so a client retrying a lost ack
        is never double-charged (or spuriously rate-limited).
        """
        fresh = count
        if seq is not None:
            fresh = max(0, count - max(0, session.ingest_seq - seq))
        if not fresh:
            return
        tenant = session.config.tenant
        self.tenant_state(tenant).admit_vectors(fresh,
                                                self._tenant_queued(tenant))

    def _tenant_queued(self, tenant: str) -> int:
        with self._lock:
            sessions = list(self.sessions.values())
        return sum(session.queued for session in sessions
                   if session.config.tenant == tenant)

    def _handle_drain(self, request: dict[str, Any]) -> dict[str, Any]:
        session = self._session(_session_name(request))

        def _summary() -> dict[str, Any]:
            return {"ok": True, "processed": session.processed,
                    "pairs_emitted": session.pairs_emitted,
                    "already_drained": True}

        # Idempotent: re-draining a drained session (a client retrying a
        # drain whose ack was severed) returns the summary again.
        if session.status == "drained":
            return _summary()
        try:
            summary = session.drain()
        except SessionError:
            if session.status == "drained":
                return _summary()
            raise
        return {"ok": True, **summary}

    def _handle_results(self, request: dict[str, Any]) -> dict[str, Any]:
        session = self._session(_session_name(request))
        # A failed session must surface on the next read, not as an
        # indefinitely-quiet result stream.
        session.raise_if_failed()
        cursor = int(request.get("cursor", 0))
        limit = request.get("limit")
        pairs, next_cursor, first_retained = session.results.read(
            cursor, None if limit is None else int(limit))
        return {
            "ok": True,
            "pairs": [pair_to_wire(pair) for pair in pairs],
            "cursor": next_cursor,
            "first_retained": first_retained,
            "status": session.status,
            "processed": session.processed,
            "queued": session.queued,
        }

    # -- eviction --------------------------------------------------------------

    def evict_session(self, name: str) -> Path | None:
        """Checkpoint-and-evict one idle session; None when not possible.

        The session is first *claimed* under the ready-queue lock (idle →
        EVICTED), which fences out the pool; the barrier checkpoint then
        only succeeds if the queue is still empty.  Any work racing in
        aborts the eviction and reschedules the session.
        """
        with self._lock:
            session = self.sessions.get(name)
            if session is not None:
                gate = self._restore_locks.setdefault(name, threading.Lock())
        if (session is None or session.status != "active"
                or session.checkpoint_path is None or session.join is None):
            return None
        if not self.ready.claim_for_evict(session):
            return None
        path = None
        try:
            # Hold the restore gate across the checkpoint write so a
            # concurrent lazy restore serialises behind this eviction
            # instead of reading a stale (or half-written) envelope.
            with gate:
                with obs.span("evict", session=name,
                              tenant=session.config.tenant):
                    path = session.try_evict()
        finally:
            if path is None:
                self.ready.release_evict_claim(session)
        if path is not None:
            self.evictions += 1
        return path

    def _handle_evict(self, request: dict[str, Any]) -> dict[str, Any]:
        name = _session_name(request)
        with self._lock:
            session = self.sessions.get(name)
        if session is None:
            raise SessionError(f"no session named {name!r}; open it first")
        if session.status in ("evicted", "evicting"):
            return {"ok": True, "session": name, "already_evicted": True}
        # Brief retry: a session whose queue just drained is still
        # RUNNING until its worker calls finish() — an explicit evict
        # request should ride out that window rather than bounce.
        path = None
        deadline = time.monotonic() + 1.0
        while path is None:
            path = self.evict_session(name)
            if path is not None or time.monotonic() >= deadline:
                break
            with self._lock:
                session = self.sessions.get(name)
            if (session is None or session.status != "active"
                    or session.queued or session.checkpoint_path is None):
                break  # not transient — report the failure now
            time.sleep(0.01)
        if path is None:
            raise SessionError(
                f"session {name!r} cannot be evicted right now: it must be "
                "active, idle, checkpointable, and have an empty queue")
        return {"ok": True, "session": name, "evicted": True,
                "checkpoint": str(path)}

    def _sweep_loop(self) -> None:
        interval = max(0.05, min(1.0, (self.evict_after or 1.0) / 4))
        while not self._sweeper_stop.wait(interval):
            now = time.monotonic()
            with self._lock:
                candidates = list(self.sessions.items())
            for name, session in candidates:
                if (session.status == "active"
                        and session.join is not None
                        and session.checkpoint_path is not None
                        and session.queued == 0
                        and now - session.last_activity >= self.evict_after):
                    try:
                        self.evict_session(name)
                    except Exception:  # noqa: BLE001 - sweeping is best-effort
                        pass  # a failed evict leaves the session live

    # -- observability / lifecycle ---------------------------------------------

    def metrics_snapshot(self) -> dict[str, Any]:
        """Prometheus text over the wire (the ``metrics`` protocol op)."""
        return {"ok": True, "content_type": obs.CONTENT_TYPE,
                "metrics": obs.render()}

    def stats(self, session: str | None = None) -> dict[str, Any]:
        """Live counters and latency percentiles (the ``stats`` endpoint)."""
        with self._lock:
            sessions = dict(self.sessions)
            tenants = dict(self.tenants)
        if session is not None:
            target = sessions.get(session)
            if target is None:
                raise SessionError(f"no session named {session!r}")
            return {"ok": True, "sessions": {session: target.stats()}}
        return {
            "ok": True,
            "server": {
                "uptime_s": round(time.monotonic() - self.started_at, 3),
                "sessions": len(sessions),
                "requests_handled": self.requests_handled,
                "checkpoint_dir": (str(self.checkpoint_dir)
                                   if self.checkpoint_dir else None),
            },
            "sessions": {name: s.stats() for name, s in sessions.items()},
            "scheduler": {
                "pool": self.pool.stats(),
                "ready": self.ready.stats(),
                "evictions": self.evictions,
                "restores": self.restores,
                "evict_after_s": self.evict_after,
            },
            "tenants": {name: state.stats()
                        for name, state in sorted(tenants.items())},
        }

    def session_list(self, tenant: str | None = None) -> dict[str, Any]:
        """One summary row per session (the ``sessions`` op / CLI table).

        Unlike ``stats`` this never touches the join engine, so it is
        safe (and free) on evicted placeholders — the scheduler's
        observability surface at any session count.
        """
        with self._lock:
            sessions = dict(self.sessions)
        rows = [self._session_row(name, session)
                for name, session in sorted(sessions.items())
                if tenant is None or session.config.tenant == tenant]
        return {"ok": True, "count": len(rows), "sessions": rows}

    @staticmethod
    def _session_row(name: str, session: JoinSession) -> dict[str, Any]:
        latency = session.latency.summary()
        return {
            "session": name,
            "tenant": session.config.tenant,
            "status": session.status,
            "run_state": session.run_state,
            "kernel": session.kernel,
            "queued": session.queued,
            "processed": session.processed,
            "pairs_emitted": session.pairs_emitted,
            "batches_flushed": session.batches_flushed,
            "p50_ms": latency["p50_ms"],
            "p95_ms": latency["p95_ms"],
            "p99_ms": latency["p99_ms"],
        }

    def shutdown(self) -> dict[str, Any]:
        """Checkpoint and close every session, then stop the sweeper and
        the pool; idempotent.

        Ordering matters: sessions are closed *before* the pool stops,
        because a pool worker executes each session's stop token.
        """
        with self._lock:
            if self.shutting_down:
                return {"ok": True, "closed": 0}
            self.shutting_down = True
            sessions = list(self.sessions.items())
            self.sessions.clear()
        self._sweeper_stop.set()
        for _name, session in sessions:
            session.close()
        self.pool.stop()
        if self._sweeper is not None:
            self._sweeper.join(timeout=5.0)
        return {"ok": True, "closed": len(sessions)}


def serve(*, host: str = "127.0.0.1", port: int = 0,
          checkpoint_dir: str | Path | None = None,
          checkpoint_every_items: int | None = None,
          checkpoint_every_seconds: float | None = None,
          read_timeout: float | None = None,
          fault_plan=None,
          pool_workers: int | None = None,
          scheduler_options: dict[str, Any] | None = None,
          dispatch_workers: int = 8,
          metrics_port: int | None = None,
          metrics_host: str = "127.0.0.1",
          trace_sample: float | None = None,
          span_log: str | Path | None = None,
          slow_batch_ms: float | None = None,
          trace_seed: int = 0,
          ):
    """Build a service + selector server and recover checkpointed sessions.

    Returns ``(server, recovered_session_names)``; the caller runs
    ``server.serve_until_shutdown()`` (blocking) or drives
    ``serve_forever`` on its own thread (tests).  ``fault_plan`` (a spec
    string or :class:`~repro.faults.FaultPlan`) arms service-wide fault
    injection; the injector is reachable as ``server.service.fault_injector``
    (e.g. to write its event log after shutdown).

    ``pool_workers`` sizes the worker pool (default ``os.cpu_count()``);
    ``scheduler_options`` passes extra :class:`JoinService` keyword
    arguments (quotas, ``evict_after``, ...).

    Observability: ``metrics_port`` exposes the process metrics registry
    as a plain-HTTP Prometheus endpoint (``GET /metrics``; port 0 picks
    a free one — the bound address is ``server.obs_metrics_server.address``).
    ``trace_sample`` / ``span_log`` / ``slow_batch_ms`` configure the
    process tracer: sampled spans (and every slow batch) are appended to
    the NDJSON ``span_log``; slow batches are also reported on stderr.
    """
    if trace_sample or span_log is not None or slow_batch_ms is not None:
        def _report_slow(record: dict) -> None:
            print(f"[obs] slow span {record.get('span')} "
                  f"dur_ms={record.get('dur_ms')} "
                  f"session={record.get('session')}",
                  file=sys.stderr, flush=True)

        obs.configure(
            trace_sample=trace_sample,
            span_path=span_log,
            slow_batch_ms=slow_batch_ms,
            seed=trace_seed,
            on_slow=_report_slow if slow_batch_ms is not None else None)
    metrics_server = None
    if metrics_port is not None:
        metrics_server = obs.start_metrics_server(
            obs.get_registry(), host=metrics_host, port=metrics_port)
    fault_injector = None
    if fault_plan is not None:
        from repro.faults import FaultInjector, parse_fault_plan

        fault_injector = (fault_plan if isinstance(fault_plan, FaultInjector)
                          else FaultInjector(parse_fault_plan(fault_plan)))
    service = JoinService(
        pool_workers=pool_workers,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every_items=checkpoint_every_items,
        checkpoint_every_seconds=checkpoint_every_seconds,
        fault_injector=fault_injector,
        **(scheduler_options or {}))
    recovered = service.recover_sessions()
    server = SelectorServiceServer(service, host=host, port=port,
                                   read_timeout=read_timeout,
                                   dispatch_workers=dispatch_workers)
    server.obs_metrics_server = metrics_server
    return server, recovered
