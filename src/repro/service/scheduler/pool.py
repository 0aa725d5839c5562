"""The bounded worker pool: M threads running N sessions' quanta.

The only thing that runs a session: each worker loops popping the next
ready session from the :class:`~repro.service.scheduler.ready.DRRReadyQueue`,
runs one quantum (:meth:`JoinSession.run_quantum` — exclusive, so the
per-session FIFO determinism contract is untouched), charges the
tenant's deficit with the vectors actually processed, and hands the
session back to the queue.  Capacity is therefore ``workers`` concurrent
quanta regardless of how many thousands of sessions exist.  Quanta run
Python code under the GIL, so the pool size buys concurrency (a slow
session cannot hold up the rest), not CPU parallelism.

The pool is also the sessions' scheduler: :meth:`WorkerPool.notify` is
the one callback a session makes when work is enqueued.  Sessions built
without a scheduler share :func:`default_pool`, started on first use.
"""

from __future__ import annotations

import os
import threading
from typing import Any

from repro import obs
from repro.service.scheduler.ready import DRRReadyQueue

__all__ = ["WorkerPool", "default_pool"]


class WorkerPool:
    """Fixed-size thread pool draining a DRR ready queue of sessions."""

    def __init__(self, ready: DRRReadyQueue, *,
                 workers: int | None = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self._ready = ready
        self.workers = workers
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self.quanta_run = 0
        self.vectors_processed = 0

    def notify(self, session) -> None:
        """Session callback: work was enqueued — make the session ready."""
        self._ready.push(session)

    def start(self) -> None:
        if self._threads:
            return
        for index in range(self.workers):
            thread = threading.Thread(target=self._run,
                                      name=f"sssj-pool-{index}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def _run(self) -> None:
        while not self._stop.is_set():
            session = self._ready.pop(timeout=0.1)
            if session is None:
                continue
            with obs.span("dispatch", session=session.config.name,
                          tenant=session.config.tenant) as span:
                try:
                    _more, processed = session.run_quantum()
                except BaseException:  # pragma: no cover - run_quantum reports
                    processed = 0      # its own failures; never kill the worker
                span.note(processed=processed)
            self._ready.charge(session.config.tenant, processed)
            with self._lock:
                self.quanta_run += 1
                self.vectors_processed += processed
            self._ready.finish(session)

    def stop(self, timeout: float = 5.0) -> None:
        """Stop accepting work and join the workers (idempotent)."""
        self._stop.set()
        self._ready.close()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "workers": self.workers,
                "quanta_run": self.quanta_run,
                "vectors_processed": self.vectors_processed,
            }


_default: WorkerPool | None = None
_default_lock = threading.Lock()


def default_pool() -> WorkerPool:
    """The process-wide pool running sessions built without a scheduler.

    Started on first use with the default size (one worker per CPU) and
    never stopped — its workers are daemon threads idling on the queue.
    """
    global _default
    with _default_lock:
        if _default is None:
            _default = WorkerPool(DRRReadyQueue())
            _default.start()
        return _default
