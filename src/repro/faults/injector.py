"""Runtime half of fault injection: counting sites and firing events.

A :class:`FaultInjector` wraps a parsed :class:`~repro.faults.plan.FaultPlan`
and is consulted by the components that can break:

* the multiprocess shard executor asks :meth:`worker_kill_due` before
  sending each step message (and SIGKILLs the real child on ``True``),
  and ships :meth:`worker_events_for` to each worker at spawn so
  delay/drop/self-exit faults fire inside the child itself;
* the service session asks :meth:`sink_fail_due` on each sink emit
  attempt;
* the server's request handler (or the client, whichever side carries
  the plan) asks :meth:`client_sever_due` after each ingest request.

Every event fires exactly once, at a deterministic site occurrence, so
a seeded plan reproduces the same chaos on every run.  All counters are
lock-protected — sessions, dispatch threads and executors share one
injector.  Fired faults and observed recoveries are appended to
:attr:`log` (list of dicts) and can be written as JSON lines via
:meth:`write_log` for the service-smoke CI artifact.
"""

from __future__ import annotations

import json
import threading
import time

from repro import obs
from repro.exceptions import InvalidParameterError
from repro.faults.plan import (
    WORKER_FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    parse_fault_plan,
)

__all__ = ["FaultInjector"]


def _splitmix64(state: int) -> int:
    """One splitmix64 step — a tiny, seed-stable integer mixer."""
    state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    mixed = state
    mixed = ((mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    mixed = ((mixed ^ (mixed >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return mixed ^ (mixed >> 31)


class _Armed:
    """One armed event instance (mutable fire flag around a FaultEvent)."""

    __slots__ = ("event", "shard", "fired")

    def __init__(self, event: FaultEvent, shard: int | None) -> None:
        self.event = event
        self.shard = shard
        self.fired = False


class FaultInjector:
    """Thread-safe occurrence counting + exactly-once firing of a plan."""

    def __init__(self, plan: "FaultPlan | str | None") -> None:
        plan = parse_fault_plan(plan)
        if plan is None:
            plan = FaultPlan(events=())
        self.plan = plan
        self._lock = threading.Lock()
        self._armed = [_Armed(event, event.shard) for event in plan.events]
        self._workers_bound: int | None = None
        self._emit_attempts = 0
        self._ingest_requests = 0
        #: Chronological record of fired faults (and recovery observations
        #: recorded by the components that healed them).
        self.log: list[dict] = []

    # -- site: shard workers ---------------------------------------------------

    def bind_workers(self, workers: int) -> None:
        """Resolve worker-fault targets against the actual shard count.

        Events that omitted ``shard=`` get a seeded pick; events naming a
        shard outside ``range(workers)`` fail fast.
        """
        with self._lock:
            self._workers_bound = workers
            for position, armed in enumerate(self._armed):
                if armed.event.kind not in WORKER_FAULT_KINDS:
                    continue
                if armed.shard is None:
                    armed.shard = _splitmix64(self.plan.seed * 1000003
                                              + position) % workers
                elif armed.shard >= workers:
                    raise InvalidParameterError(
                        f"fault {armed.event.kind!r} targets shard="
                        f"{armed.shard} but only {workers} worker(s) exist")

    def worker_shards(self) -> set[int]:
        """Shards the plan's worker faults target (after :meth:`bind_workers`)."""
        with self._lock:
            return {armed.shard for armed in self._armed
                    if armed.event.kind in WORKER_FAULT_KINDS}

    def worker_kill_due(self, shard: int, step: int) -> bool:
        """Is a ``kill-worker`` due for ``shard`` at step ``step``?"""
        with self._lock:
            for armed in self._armed:
                if (not armed.fired and armed.event.kind == "kill-worker"
                        and armed.shard == shard
                        and armed.event.after == step):
                    armed.fired = True
                    self._record("kill-worker", shard=shard, step=step)
                    return True
        return False

    def worker_events_for(self, shard: int) -> list[tuple[str, int, float]]:
        """Faults the worker for ``shard`` should fire on itself.

        Returned as plain ``(kind, after_step, ms)`` tuples so they pickle
        cheaply into the child at spawn.  Only the *initial* spawn gets
        them — a respawned worker runs fault-free, which is what lets the
        recovery replay converge.
        """
        kinds = ("exit-in-append", "exit-in-scan", "drop-reply",
                 "delay-reply")
        with self._lock:
            out = []
            for armed in self._armed:
                if (armed.event.kind in kinds and armed.shard == shard
                        and not armed.fired):
                    armed.fired = True  # handed to the child; fires there
                    self._record(armed.event.kind, shard=shard,
                                 step=armed.event.after, armed=True)
                    out.append((armed.event.kind, armed.event.after,
                                armed.event.ms or 0.0))
            return out

    # -- site: sink writes -----------------------------------------------------

    def sink_fail_due(self) -> bool:
        """Count one sink emit attempt; is a ``fail-sink`` due for it?"""
        with self._lock:
            self._emit_attempts += 1
            for armed in self._armed:
                if (not armed.fired and armed.event.kind == "fail-sink"
                        and armed.event.after == self._emit_attempts):
                    armed.fired = True
                    self._record("fail-sink", attempt=self._emit_attempts)
                    return True
        return False

    # -- site: client connections ----------------------------------------------

    def client_sever_due(self) -> bool:
        """Count one ingest request; is a ``sever-client`` due for it?"""
        with self._lock:
            self._ingest_requests += 1
            for armed in self._armed:
                if (not armed.fired and armed.event.kind == "sever-client"
                        and armed.event.after == self._ingest_requests):
                    armed.fired = True
                    self._record("sever-client",
                                 request=self._ingest_requests)
                    return True
        return False

    # -- observability ---------------------------------------------------------

    def record(self, kind: str, **details) -> None:
        """Append an observation (e.g. a recovery) to the event log."""
        with self._lock:
            self._record(kind, **details)

    def _record(self, kind: str, **details) -> None:
        self.log.append({"kind": kind, "time": time.time(), **details})
        # Faults are rare by construction; count them inline.
        if obs.enabled():
            obs.get_registry().counter(
                "sssj_fault_events_total",
                "Injected-fault and recovery events by kind.",
                ("kind",)).labels(kind=kind).inc()

    @property
    def fired(self) -> list[dict]:
        """Fired-fault entries of the log (excludes recovery records)."""
        kinds = WORKER_FAULT_KINDS | {"fail-sink", "sever-client"}
        with self._lock:
            return [entry for entry in self.log if entry["kind"] in kinds]

    @property
    def pending(self) -> int:
        """Number of armed events that have not fired yet."""
        with self._lock:
            return sum(1 for armed in self._armed if not armed.fired)

    def write_log(self, path) -> None:
        """Write the event log as JSON lines (the chaos CI artifact)."""
        with self._lock:
            entries = list(self.log)
        with open(path, "w", encoding="utf-8") as handle:
            for entry in entries:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
