"""Checkpointing of streaming joins.

A long-running stream processor must be able to stop and resume without
losing the (bounded) state it keeps about the recent past.  This module
serialises the full state of a :class:`~repro.core.frameworks.streaming.StreamingFramework`
— the inverted index, the residual/Q store, the maximum vectors and the
operation counters — into a JSON-compatible dictionary, and restores it
into a fresh framework that behaves exactly as if it had processed the
whole stream itself.

Only the STR framework is checkpointable: it owns a single incremental
index, so its state is well defined between any two items.  The MiniBatch
framework buffers whole windows and rebuilds throw-away indexes, so
checkpointing it is intentionally unsupported (checkpoint at a window
boundary and replay the current window instead).

The payload names the kernel the way the join was configured.  A pinned
join records its backend (``"backend": "numpy"``) and restores pinned to
it.  An adaptive ``auto`` join records ``"backend": "auto"``, the kernel
it runs now (``"kernel"``) and, until it has switched, its rule's window
(``"auto_window"``); it restores adaptive, on that kernel, and switches at
the same query an uninterrupted join would.  Only kernel-agnostic state is
stored; :meth:`~repro.indexes.base.StreamingIndex.rebuild_kernel_state`
derives the rest on whichever kernel the restored join runs.

The serialised layout is versioned; :func:`restore_join` refuses payloads
with an unknown version rather than guessing.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable

from repro.backends import get_backend
from repro.core.frameworks.streaming import StreamingFramework
from repro.core.results import JoinStatistics
from repro.core.vector import SparseVector
from repro.exceptions import SSSJError, UnknownBackendError
from repro.indexes.inverted import InvertedStreamingIndex
from repro.indexes.maxvector import DecayedMaxVector, MaxVector
from repro.indexes.posting import PostingEntry
from repro.indexes.prefix import PrefixFilterStreamingIndex
from repro.indexes.residual import ResidualEntry

__all__ = [
    "CheckpointError",
    "snapshot_join",
    "restore_join",
    "save_checkpoint",
    "load_checkpoint",
    "atomic_write_json",
    "PeriodicCheckpointer",
]

_FORMAT_VERSION = 1


class CheckpointError(SSSJError):
    """Raised when a checkpoint cannot be produced or restored."""


# -- vector (de)serialisation -------------------------------------------------------


def _vector_to_state(vector: SparseVector) -> dict[str, Any]:
    return {
        "id": vector.vector_id,
        "t": vector.timestamp,
        "dims": list(vector.dims),
        "values": list(vector.values),
    }


def _vector_from_state(state: dict[str, Any]) -> SparseVector:
    entries = dict(zip(state["dims"], state["values"]))
    # Values were stored post-normalisation; do not normalise again.
    return SparseVector(state["id"], state["t"], entries, normalize=False)


# -- index (de)serialisation --------------------------------------------------------


def _posting_lists_to_state(index) -> dict[str, list[list[float]]]:
    return {
        str(dim): [[entry.vector_id, entry.value, entry.prefix_norm,
                    entry.timestamp] for entry in entries]
        for dim, entries in index.posting_entries().items()
    }


def _posting_entries_from_state(
        state: dict[str, list[list[float]]]) -> dict[int, list[PostingEntry]]:
    return {
        int(dim_text): [PostingEntry(vector_id=int(vector_id), value=value,
                                     prefix_norm=prefix_norm,
                                     timestamp=timestamp)
                        for vector_id, value, prefix_norm, timestamp
                        in entries]
        for dim_text, entries in state.items()
    }


def _residual_to_state(residual) -> list[dict[str, Any]]:
    return [
        {
            "vector": _vector_to_state(entry.vector),
            "boundary": entry.boundary,
            "pscore": entry.pscore,
            "residual_dims": list(entry.residual),
        }
        for entry in residual.entries()
    ]


def _restore_residual(residual, state: list[dict[str, Any]]) -> None:
    for item in state:
        vector = _vector_from_state(item["vector"])
        entry = ResidualEntry(vector=vector, boundary=item["boundary"],
                              pscore=item["pscore"])
        # The residual prefix may have shrunk after re-indexing; keep exactly
        # the dimensions that were stored.
        kept = set(item["residual_dims"])
        entry.set_residual({dim: value for dim, value in entry.residual.items()
                            if dim in kept})
        residual.add(entry)


def _max_vector_to_state(max_vector: MaxVector | None) -> dict[str, float] | None:
    if max_vector is None:
        return None
    return {str(dim): value for dim, value in max_vector.as_dict().items()}


def _restore_max_vector(state: dict[str, float] | None) -> MaxVector | None:
    if state is None:
        return None
    restored = MaxVector()
    restored._values = {int(dim): value for dim, value in state.items()}
    return restored


def _decayed_max_to_state(decayed: DecayedMaxVector | None) -> dict[str, list[float]] | None:
    if decayed is None:
        return None
    return {str(dim): [value, timestamp]
            for dim, (value, timestamp) in decayed._entries.items()}


def _restore_decayed_max(state: dict[str, list[float]] | None,
                         decay: float) -> DecayedMaxVector | None:
    if state is None:
        return None
    restored = DecayedMaxVector(decay)
    restored._entries = {int(dim): (value, timestamp)
                         for dim, (value, timestamp) in state.items()}
    return restored


# -- public API ----------------------------------------------------------------------


def snapshot_join(join: StreamingFramework) -> dict[str, Any]:
    """Serialise the full state of a STR framework into a plain dictionary."""
    if not isinstance(join, StreamingFramework):
        raise CheckpointError(
            "only the STR framework is checkpointable; checkpoint MiniBatch runs "
            "at a window boundary and replay the open window instead"
        )
    index = join.index
    state: dict[str, Any] = {
        "version": _FORMAT_VERSION,
        "algorithm": join.algorithm,
        **join.kernel_state(),
        "threshold": join.threshold,
        "decay": join.decay,
        "stats": join.stats.as_dict(),
        "postings": _posting_lists_to_state(index),
    }
    if join.approx is not None:
        # Canonical spec string only: signatures are a pure function of
        # (vector, config), so restore regenerates them from the residual
        # entries instead of serialising per-vector sketches.
        state["approx"] = join.approx
    if isinstance(index, PrefixFilterStreamingIndex):
        state["kind"] = "prefix"
        state["residual"] = _residual_to_state(index._residual)
        state["max_query"] = _max_vector_to_state(index._max_query)
        state["max_decayed"] = _decayed_max_to_state(index._max_decayed)
    elif isinstance(index, InvertedStreamingIndex):
        state["kind"] = "inverted"
    else:  # pragma: no cover - future index types must opt in explicitly
        raise CheckpointError(f"index type {type(index).__name__} is not checkpointable")
    return state


def restore_join(state: dict[str, Any]) -> StreamingFramework:
    """Rebuild a STR framework from a snapshot produced by :func:`snapshot_join`."""
    version = state.get("version")
    if version != _FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version: {version!r}")
    framework_name, index_name = state["algorithm"].split("-", maxsplit=1)
    if framework_name != "STR":
        raise CheckpointError(f"cannot restore framework {framework_name!r}")
    backend = state.get("backend")
    if backend != "auto":
        try:
            backend = get_backend(backend).name
        except UnknownBackendError:
            # The checkpoint was written with a backend that is unavailable
            # here (e.g. NumPy missing); fall back to the default — backends
            # are output-equivalent, so the restored join behaves identically.
            backend = None
    join = StreamingFramework(state["threshold"], state["decay"],
                              index=index_name, backend=backend,
                              approx=state.get("approx"))
    index = join.index
    if state["kind"] == "prefix":
        if not isinstance(index, PrefixFilterStreamingIndex):
            raise CheckpointError(
                f"checkpoint holds prefix-filter state but index {index_name!r} is not one"
            )
        _restore_residual(index._residual, state["residual"])
        if index.use_ap:
            index._max_query = _restore_max_vector(state["max_query"]) or MaxVector()
            index._max_decayed = (_restore_decayed_max(state["max_decayed"], join.decay)
                                  or DecayedMaxVector(join.decay))
    # The kernel-owned state (posting store, size-filter map, slot mirrors,
    # sketch tables) is rebuilt from the postings and the residual store by
    # the same path a live kernel switch takes, so the restored join
    # filters and counts exactly like an uninterrupted one.
    join.restore_kernel_state(
        state, _posting_entries_from_state(state["postings"]))
    stats_state = state.get("stats", {})
    restored_stats = JoinStatistics(**{
        key: (int(value) if key != "elapsed_seconds" else float(value))
        for key, value in stats_state.items()
        if key in JoinStatistics().as_dict()
    })
    join.stats.merge(restored_stats)
    index.stats = join.stats
    return join


def atomic_write_json(path: str | Path, payload: dict[str, Any]) -> Path:
    """Write ``payload`` as JSON to ``path`` atomically and crash-safely.

    The payload is written to a sibling temp file, flushed and fsynced,
    then moved over ``path`` with :func:`os.replace` — so a reader (or a
    recovery scan after ``kill -9``) only ever sees the old complete file
    or the new complete file, never a torn half-write.
    """
    path = Path(path)
    tmp_path = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    return path


def save_checkpoint(join: StreamingFramework, path: str | Path) -> Path:
    """Snapshot ``join`` and write it as JSON to ``path`` (atomically)."""
    return atomic_write_json(path, snapshot_join(join))


def load_checkpoint(path: str | Path) -> StreamingFramework:
    """Load a JSON checkpoint written by :func:`save_checkpoint`."""
    with open(path, "r", encoding="utf-8") as handle:
        state = json.load(handle)
    return restore_join(state)


class PeriodicCheckpointer:
    """Checkpoint a join every N processed vectors and/or every S seconds.

    The owner calls :meth:`tick` at natural barriers (between micro-batches
    in the service, between vectors in a driver loop); a checkpoint is
    written when either the vector-count or the wall-clock interval has
    elapsed since the last one.  ``save`` defaults to
    :func:`save_checkpoint`; the service substitutes a callable that wraps
    the join snapshot in its session envelope.  Both intervals ``None``
    makes :meth:`tick` a no-op (but ``tick(force=True)`` still writes).

    Periodic ticks tolerate transient write failures (a full disk, an
    NFS hiccup): the error is swallowed, counted in
    ``checkpoint_failures`` and kept in ``last_error``, and the cadence
    clock is NOT advanced so the next tick retries immediately.  After
    ``max_consecutive_failures`` failures in a row the error propagates —
    a persistently broken checkpoint path must not degrade silently into
    "no durability at all".  ``tick(force=True)`` always raises on
    failure: explicit checkpoint requests want the truth.
    """

    def __init__(self, join: StreamingFramework, path: str | Path, *,
                 every_vectors: int | None = None,
                 every_seconds: float | None = None,
                 save: Callable[[StreamingFramework, Path], Path] = save_checkpoint,
                 max_consecutive_failures: int = 5,
                 ) -> None:
        if every_vectors is not None and every_vectors <= 0:
            raise ValueError(f"every_vectors must be positive, got {every_vectors}")
        if every_seconds is not None and every_seconds <= 0:
            raise ValueError(f"every_seconds must be positive, got {every_seconds}")
        if max_consecutive_failures <= 0:
            raise ValueError("max_consecutive_failures must be positive, "
                             f"got {max_consecutive_failures}")
        self.join = join
        self.path = Path(path)
        self.every_vectors = every_vectors
        self.every_seconds = every_seconds
        self._save = save
        self._last_count = join.stats.vectors_processed
        self._last_time = time.monotonic()
        self.checkpoints_written = 0
        self.max_consecutive_failures = max_consecutive_failures
        self.checkpoint_failures = 0
        self._consecutive_failures = 0
        self.last_error: Exception | None = None

    def due(self) -> bool:
        """Whether an interval has elapsed since the last checkpoint."""
        if self.every_vectors is not None:
            processed = self.join.stats.vectors_processed
            if processed - self._last_count >= self.every_vectors:
                return True
        if self.every_seconds is not None:
            if time.monotonic() - self._last_time >= self.every_seconds:
                return True
        return False

    def tick(self, *, force: bool = False) -> Path | None:
        """Write a checkpoint if one is due (or ``force``); return its path.

        Returns ``None`` when nothing was due, or when a periodic write
        failed transiently (see the class docstring for the failure
        policy).
        """
        if not force and not self.due():
            return None
        try:
            written = self._save(self.join, self.path)
        except Exception as error:
            self.checkpoint_failures += 1
            self._consecutive_failures += 1
            self.last_error = error
            if force or self._consecutive_failures >= self.max_consecutive_failures:
                raise
            return None
        self._last_count = self.join.stats.vectors_processed
        self._last_time = time.monotonic()
        self.checkpoints_written += 1
        self._consecutive_failures = 0
        return Path(written)
