"""Candidate partitions of a sharded join, and the worker process loop.

Partition ``k`` of ``W`` is a plain STR index built with
``partition=(k, W)``: it runs every vector of the stream as a query and
keeps the query-side state of every vector (``m``, and ``m̂^λ`` through
the indexing split), but stores postings, residuals and size-filter
entries only for the vectors of arrival steps ``k mod W``.  A candidate's
admission, accumulation, pruning and verification read only that
candidate's own data, so the partition takes exactly the single-process
decisions for its own candidates; nothing crosses between partitions
except the input vectors and the reported pairs.

:meth:`Partition.step` is the one definition of what a partition does
with a vector: the coordinator's in-process partitions, the worker loop
:func:`partition_worker_main` and crash-recovery replay all call it, so a
rebuilt partition is bitwise identical to the one it replaces.
"""

from __future__ import annotations

import operator
import os
import pickle
import signal
import time
from typing import NamedTuple

from repro.backends import SimilarityKernel
from repro.core.results import JoinStatistics, ShardCounters
from repro.core.vector import SparseVector
from repro.indexes.base import create_streaming_index

__all__ = ["PartitionSpec", "Partition", "partition_worker_main",
           "SUMMED_COUNTERS"]

#: Counters that add up across partitions.  ``reindexings`` counts events
#: (one per step) and the two ``max_*`` sizes are maxima of per-step sums,
#: so the coordinator merges those three from a step's ``counts``.
SUMMED_COUNTERS = ("entries_traversed", "candidates_generated",
                   "candidates_sketch_pruned", "full_similarities",
                   "entries_indexed", "entries_pruned", "residual_entries",
                   "reindexed_entries")
_summed = operator.attrgetter(*SUMMED_COUNTERS)


class PartitionSpec(NamedTuple):
    """Everything a worker process needs to build its partition."""

    index: str
    threshold: float
    decay: float
    workers: int
    #: Registered backend name of partitions built from scratch.
    backend: str


class Partition:
    """One candidate partition: a STR index that owns every W-th vector."""

    def __init__(self, spec: PartitionSpec, part: int,
                 kernel: SimilarityKernel | None = None) -> None:
        self.part = part
        self.stats = JoinStatistics()
        self.index = create_streaming_index(
            spec.index, spec.threshold, spec.decay, stats=self.stats,
            backend=spec.backend if kernel is None else kernel,
            partition=(part, spec.workers))
        self._totals = (0,) * len(SUMMED_COUNTERS)

    def step(self, vector: SparseVector) -> tuple:
        """Process the stream's next vector.

        Returns ``(pairs, keys, counts)``: the pairs in this partition's
        report order, each pair's
        :meth:`~repro.indexes.base.StreamingIndex.merge_key`, and
        ``(reindexed, index size, residual size, SUMMED_COUNTERS
        deltas)``.  A plain tuple, because forked partitions pickle one
        per vector.
        """
        stats = self.stats
        index = self.index
        reindexings = stats.reindexings
        pairs = index.process(vector)
        keys = []
        if pairs:
            query_id = vector.vector_id
            keys = [index.merge_key(vector, pair.id_b if pair.id_a == query_id
                                    else pair.id_a) for pair in pairs]
        totals = _summed(stats)
        deltas = tuple(map(operator.sub, totals, self._totals))
        self._totals = totals
        return pairs, keys, (stats.reindexings != reindexings, index.size,
                             index.residual_size, deltas)

    def steps(self, vectors: list[SparseVector]) -> list[tuple]:
        """Process the stream's next vectors, in order."""
        return [self.step(vector) for vector in vectors]

    def counters(self) -> ShardCounters:
        """This partition's traffic and balance counters."""
        stats = self.stats
        index = self.index
        arena = getattr(index.kernel, "_arena", None)
        return ShardCounters(
            shard=self.part,
            dimensions=sum(1 for _ in index._index.dimensions()),
            entries_indexed=stats.entries_indexed,
            entries_traversed=stats.entries_traversed,
            entries_removed=stats.entries_pruned,
            scans=index.steps,
            arena_compactions=arena.compactions if arena is not None else 0)


def _die() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def partition_worker_main(conn, spec: PartitionSpec, part: int,
                          faults=None) -> None:
    """Message loop of one forked partition.

    Requests over ``conn``:

    * ``("step", step, vectors)`` — process the stream's next vectors,
      the first of arrival step ``step``; replies with their
      :meth:`Partition.step` results, or with ``("error", message)`` when
      ``step`` is not the partition's next one;
    * ``("replay", vectors)`` — crash recovery: process a chunk of the
      retained input, discarding the pairs; replies ``("replayed", n)``;
    * ``("counters",)`` — replies ``("counters", ShardCounters)``;
    * ``("stop",)`` — replies ``("bye",)`` and exits.

    ``faults`` is an optional list of ``(kind, after_step, ms)`` tuples
    from :meth:`repro.faults.FaultInjector.worker_events_for`, fired by
    this worker on itself, on the message that carries vector number
    ``after_step`` (counting from 1): ``exit-in-append`` dies on receiving
    it, ``exit-in-scan`` after processing it but before replying,
    ``drop-reply``/``delay-reply`` swallow or delay the reply.  Replay
    messages do not advance the fault step counter, and respawned
    workers start fault-free.
    """
    partition = Partition(spec, part)
    fault_map: dict[int, list[tuple[str, float]]] = {}
    for kind, after, ms in faults or ():
        fault_map.setdefault(after, []).append((kind, ms))
    steps = 0
    try:
        while True:
            message = conn.recv()
            op = message[0]
            if op == "step":
                vectors = message[2]
                due = [fault for step in range(steps + 1,
                                               steps + len(vectors) + 1)
                       for fault in fault_map.get(step, ())]
                steps += len(vectors)
                active = [kind for kind, _ in due]
                if "exit-in-append" in active:
                    _die()
                if message[1] != partition.index.steps:
                    conn.send(("error", f"partition {part} is at step "
                               f"{partition.index.steps}, got step "
                               f"{message[1]}"))
                    continue
                reply = partition.steps(vectors)
                if "exit-in-scan" in active:
                    _die()
                if "drop-reply" in active:
                    continue  # swallow exactly this reply; stay alive
                for kind, ms in due:
                    if kind == "delay-reply":
                        time.sleep(ms / 1000.0)
                conn.send_bytes(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
            elif op == "replay":
                for vector in message[1]:
                    partition.step(vector)
                conn.send(("replayed", len(message[1])))
            elif op == "counters":
                conn.send(("counters", partition.counters()))
            elif op == "stop":
                conn.send(("bye",))
                break
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass  # coordinator went away; shut down quietly
    finally:
        conn.close()
