"""Result sinks: where a session's matched pairs stream out to.

A :class:`JoinSession` owns a list of sinks and hands every batch of
reported pairs to each of them, in report order, from its running quantum.
Three sinks cover the common shapes:

* :class:`MemorySink` — an in-memory subscription cursor: readers poll
  ``read(cursor)`` and get everything reported since their cursor.  This
  is what the server's ``results`` operation reads from.
* :class:`JsonlSink` — appends one JSON object per pair to a file.  It
  participates in checkpointing: the session records the sink's byte
  offset in each checkpoint, and on crash recovery the file is truncated
  back to that offset, so re-feeding the post-checkpoint vectors cannot
  duplicate pairs (exactly-once output per retained checkpoint).
* :class:`CallbackSink` — forwards each pair to a user callable
  (embedding the session in another Python process).

The sink contract is deliberately small: ``emit`` (called with a batch of
pairs), ``flush``/``close`` (durability and teardown), and the optional
checkpoint hooks ``position``/``restore`` for sinks with durable state.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.results import SimilarPair
from repro.exceptions import SSSJError
from repro.service.protocol import pair_from_wire, pair_to_wire

__all__ = [
    "SinkError",
    "ResultSink",
    "MemorySink",
    "JsonlSink",
    "CallbackSink",
    "create_sink",
    "read_jsonl_pairs",
]


class SinkError(SSSJError):
    """Raised when a sink cannot accept pairs or restore its state."""


class ResultSink:
    """Base class of result sinks; subclasses override :meth:`emit`.

    ``emit`` is only called from the session's running quantum (one pool
    worker at a time), so sinks only need internal locking when they are *also* read from other
    threads (as :class:`MemorySink` is).
    """

    #: Short machine-readable sink kind (used in checkpoints and stats).
    kind: str = "abstract"

    def emit(self, pairs: Sequence[SimilarPair]) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Make emitted pairs durable (no-op for volatile sinks)."""

    def close(self) -> None:
        """Release resources; the sink must not be emitted to afterwards."""

    def position(self) -> dict[str, Any] | None:
        """Checkpoint token for durable sinks, ``None`` for volatile ones."""
        return None

    def restore(self, token: dict[str, Any]) -> None:
        """Roll durable state back to a :meth:`position` token."""

    def spec(self) -> dict[str, Any] | None:
        """Reconstruction spec for :func:`create_sink`; ``None`` when the
        sink cannot be rebuilt from a checkpoint (e.g. callbacks)."""
        return None

    def describe(self) -> dict[str, Any]:
        """One stats row describing the sink."""
        return {"kind": self.kind}


class MemorySink(ResultSink):
    """In-memory subscription cursor over the reported pairs.

    Pairs get consecutive sequence numbers starting at 0; ``read(cursor)``
    returns the pairs with sequence ≥ cursor (up to ``limit``) plus the
    next cursor value.  At most ``capacity`` recent pairs are retained —
    a reader that falls further behind observes a gap, reported through
    the ``first_retained`` field, instead of the server growing without
    bound.
    """

    kind = "memory"

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._pairs: deque[SimilarPair] = deque(maxlen=capacity)
        self._next_seq = 0  # sequence number of the next pair to arrive
        self._lock = threading.Lock()

    def emit(self, pairs: Sequence[SimilarPair]) -> None:
        with self._lock:
            self._pairs.extend(pairs)
            self._next_seq += len(pairs)

    @property
    def count(self) -> int:
        """Total pairs ever emitted (including evicted ones)."""
        with self._lock:
            return self._next_seq

    @property
    def first_retained(self) -> int:
        """Sequence number of the oldest pair still in memory."""
        with self._lock:
            return self._next_seq - len(self._pairs)

    def read(self, cursor: int = 0, limit: int | None = None,
             ) -> tuple[list[SimilarPair], int, int]:
        """Pairs with sequence ≥ ``cursor``: ``(pairs, next_cursor, first_retained)``.

        ``first_retained > cursor`` signals that the reader fell behind
        the retention window and pairs were evicted unseen.
        """
        if cursor < 0:
            raise ValueError(f"cursor must be >= 0, got {cursor}")
        with self._lock:
            first_retained = self._next_seq - len(self._pairs)
            start = max(cursor, first_retained)
            skip = start - first_retained
            take = len(self._pairs) - skip
            if limit is not None:
                take = min(take, max(0, limit))
            window: list[SimilarPair] = []
            for index, pair in enumerate(self._pairs):
                if index < skip:
                    continue
                if len(window) >= take:
                    break
                window.append(pair)
            return window, start + len(window), first_retained

    def position(self) -> dict[str, Any]:
        # Memory contents do not survive a crash; checkpoint only the
        # sequence base so cursors stay monotonic across a recovery.
        with self._lock:
            return {"count": self._next_seq}

    def restore(self, token: dict[str, Any]) -> None:
        with self._lock:
            self._pairs.clear()
            self._next_seq = int(token.get("count", 0))

    def spec(self) -> dict[str, Any]:
        return {"kind": self.kind, "capacity": self.capacity}

    def describe(self) -> dict[str, Any]:
        with self._lock:
            return {"kind": self.kind, "count": self._next_seq,
                    "retained": len(self._pairs), "capacity": self.capacity}


class JsonlSink(ResultSink):
    """Appends one JSON object per pair to a file (the durable sink).

    Tracks the byte offset and pair count it has written; those form its
    checkpoint token.  On recovery, :meth:`restore` truncates the file
    back to the checkpointed offset, discarding pairs emitted after the
    checkpoint — the session then re-derives them by re-feeding the
    post-checkpoint vectors, so the file never holds duplicates.
    """

    kind = "jsonl"

    def __init__(self, path: str | Path, *, append: bool = True) -> None:
        self.path = Path(path)
        mode = "a" if append else "w"
        self._handle = open(self.path, mode, encoding="utf-8")
        self._offset = self._handle.tell()
        self._count = self._count_existing() if append and self._offset else 0

    def _count_existing(self) -> int:
        with open(self.path, "r", encoding="utf-8") as handle:
            return sum(1 for line in handle if line.strip())

    def emit(self, pairs: Sequence[SimilarPair]) -> None:
        for pair in pairs:
            line = json.dumps(pair_to_wire(pair), separators=(",", ":"))
            self._handle.write(line + "\n")
        self._count += len(pairs)
        self._handle.flush()
        self._offset = self._handle.tell()

    def flush(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def position(self) -> dict[str, Any]:
        return {"path": str(self.path), "offset": self._offset,
                "count": self._count}

    def restore(self, token: dict[str, Any]) -> None:
        offset = int(token.get("offset", 0))
        count = int(token.get("count", 0))
        self._handle.flush()
        size = self.path.stat().st_size
        if size < offset:
            raise SinkError(
                f"{self.path}: file shrank below the checkpointed offset "
                f"({size} < {offset}); refusing to recover from it")
        if size > offset:
            # Pairs written after the checkpoint: roll them back so the
            # re-fed vectors cannot produce duplicates.
            self._handle.truncate(offset)
        self._handle.seek(offset)
        self._offset = offset
        self._count = count

    def spec(self) -> dict[str, Any]:
        return {"kind": self.kind, "path": str(self.path)}

    def describe(self) -> dict[str, Any]:
        return {"kind": self.kind, "path": str(self.path),
                "count": self._count, "bytes": self._offset}

    def read_pairs(self) -> list[SimilarPair]:
        """Read every pair currently in the file (helper for clients/tests)."""
        self._handle.flush()
        pairs: list[SimilarPair] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    pairs.append(pair_from_wire(json.loads(line)))
        return pairs


class CallbackSink(ResultSink):
    """Forwards every pair to a user-provided callable."""

    kind = "callback"

    def __init__(self, callback: Callable[[SimilarPair], None]) -> None:
        self._callback = callback

    def emit(self, pairs: Sequence[SimilarPair]) -> None:
        for pair in pairs:
            self._callback(pair)


def create_sink(spec: dict[str, Any]) -> ResultSink:
    """Build a sink from a specification dict (``{"kind": ..., ...}``).

    Used by the server to materialise the sinks a client requested in its
    ``open`` message and by the recovery scan to rebuild them from a
    checkpoint.  Callback sinks are in-process only and cannot be
    requested over the wire.
    """
    kind = spec.get("kind")
    if kind == "jsonl":
        path = spec.get("path")
        if not path:
            raise SinkError("jsonl sink spec requires a 'path'")
        return JsonlSink(path)
    if kind == "memory":
        return MemorySink(capacity=int(spec.get("capacity", 100_000)))
    raise SinkError(f"unknown sink kind {kind!r}; expected 'memory' or 'jsonl'")


def read_jsonl_pairs(path: str | Path) -> list[SimilarPair]:
    """Read a JSONL pair file without constructing a sink."""
    pairs: list[SimilarPair] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                pairs.append(pair_from_wire(json.loads(line)))
    return pairs
