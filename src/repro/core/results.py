"""Result model and per-run statistics.

Similar pairs discovered by any of the algorithms are reported as
:class:`SimilarPair` objects.  The algorithms also keep detailed operation
counters in a :class:`JoinStatistics` instance; those counters are the
machine-independent metrics the paper uses to explain its running-time
results (index entries traversed, candidates generated, full similarities
computed, re-indexings, ...).

Collectors decouple *how* pairs are consumed from the join algorithms:

* :class:`ListCollector` accumulates every pair in memory,
* :class:`CountingCollector` only counts them (useful for benchmarks),
* :class:`CallbackCollector` forwards each pair to a user callback,
* :class:`TopKCollector` keeps only the ``k`` most similar pairs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "SimilarPair",
    "JoinStatistics",
    "ShardCounters",
    "PairCollector",
    "ListCollector",
    "CountingCollector",
    "CallbackCollector",
    "TopKCollector",
]


@dataclass(frozen=True, order=True)
class SimilarPair:
    """A reported pair of similar vectors.

    Attributes
    ----------
    id_a, id_b:
        Identifiers of the two vectors; ``id_a`` is always the smaller id so
        that pairs compare and deduplicate consistently.
    similarity:
        The time-dependent similarity ``sim_Δt`` of the pair.
    time_delta:
        Absolute difference of the arrival times.
    dot:
        The raw content similarity (cosine) before time decay.
    reported_at:
        Stream time at which the pair was emitted; for the STR framework
        this equals the later arrival time, for MB it can be up to ``τ``
        later (the reporting delay the paper discusses).
    """

    id_a: int
    id_b: int
    similarity: float = field(compare=False)
    time_delta: float = field(compare=False, default=0.0)
    dot: float = field(compare=False, default=0.0)
    reported_at: float = field(compare=False, default=0.0)

    @staticmethod
    def make(id_x: int, id_y: int, similarity: float, *, time_delta: float = 0.0,
             dot: float = 0.0, reported_at: float = 0.0) -> "SimilarPair":
        """Create a pair with canonically ordered ids."""
        id_a, id_b = (id_x, id_y) if id_x <= id_y else (id_y, id_x)
        return SimilarPair(id_a=id_a, id_b=id_b, similarity=similarity,
                           time_delta=time_delta, dot=dot, reported_at=reported_at)

    @property
    def key(self) -> tuple[int, int]:
        """Canonical ``(smaller id, larger id)`` key of the pair."""
        return (self.id_a, self.id_b)



@dataclass
class JoinStatistics:
    """Operation counters accumulated during one join run.

    These mirror the quantities reported in the paper's evaluation:
    ``entries_traversed`` (Figures 2 and 6), ``candidates_generated`` and
    ``full_similarities`` (mentioned in Q2), plus maintenance counters for
    the streaming indexes.
    """

    vectors_processed: int = 0
    pairs_output: int = 0
    entries_traversed: int = 0
    candidates_generated: int = 0
    candidates_sketch_pruned: int = 0
    full_similarities: int = 0
    entries_indexed: int = 0
    entries_pruned: int = 0
    residual_entries: int = 0
    reindexings: int = 0
    reindexed_entries: int = 0
    index_rebuilds: int = 0
    max_index_size: int = 0
    max_residual_size: int = 0
    elapsed_seconds: float = 0.0

    def merge(self, other: "JoinStatistics") -> None:
        """Accumulate another statistics object into this one."""
        self.vectors_processed += other.vectors_processed
        self.pairs_output += other.pairs_output
        self.entries_traversed += other.entries_traversed
        self.candidates_generated += other.candidates_generated
        self.candidates_sketch_pruned += other.candidates_sketch_pruned
        self.full_similarities += other.full_similarities
        self.entries_indexed += other.entries_indexed
        self.entries_pruned += other.entries_pruned
        self.residual_entries += other.residual_entries
        self.reindexings += other.reindexings
        self.reindexed_entries += other.reindexed_entries
        self.index_rebuilds += other.index_rebuilds
        self.max_index_size = max(self.max_index_size, other.max_index_size)
        self.max_residual_size = max(self.max_residual_size, other.max_residual_size)
        self.elapsed_seconds += other.elapsed_seconds

    def as_dict(self) -> dict[str, float]:
        """Plain-dictionary view used by the benchmark harness and the CLI."""
        return {
            "vectors_processed": self.vectors_processed,
            "pairs_output": self.pairs_output,
            "entries_traversed": self.entries_traversed,
            "candidates_generated": self.candidates_generated,
            "candidates_sketch_pruned": self.candidates_sketch_pruned,
            "full_similarities": self.full_similarities,
            "entries_indexed": self.entries_indexed,
            "entries_pruned": self.entries_pruned,
            "residual_entries": self.residual_entries,
            "reindexings": self.reindexings,
            "reindexed_entries": self.reindexed_entries,
            "index_rebuilds": self.index_rebuilds,
            "max_index_size": self.max_index_size,
            "max_residual_size": self.max_residual_size,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @property
    def operations(self) -> int:
        """Aggregate operation count used for budget enforcement (Table 2)."""
        return (self.entries_traversed + self.full_similarities
                + self.entries_indexed + self.reindexed_entries)


@dataclass
class ShardCounters:
    """Per-partition operation counters of the sharded join (:mod:`repro.shard`).

    The coordinator merges every partition's per-step counts into the
    global :class:`JoinStatistics` (so sharded runs report identical
    counters to single-process runs); these per-partition totals exist for
    *observability* — the benchmark artifact's per-shard breakdown and the
    balance assertions in the tests read them.  ``scans`` counts the
    vectors the partition ran as queries (all of them), ``dimensions``
    its non-empty posting lists.
    """

    shard: int = 0
    dimensions: int = 0
    entries_indexed: int = 0
    entries_traversed: int = 0
    entries_removed: int = 0
    scans: int = 0
    arena_compactions: int = 0


class PairCollector:
    """Base class for pair sinks; subclasses override :meth:`collect`."""

    def collect(self, pair: SimilarPair) -> None:
        raise NotImplementedError

    def __call__(self, pair: SimilarPair) -> None:
        self.collect(pair)


class ListCollector(PairCollector):
    """Accumulates every reported pair in a list."""

    def __init__(self) -> None:
        self.pairs: list[SimilarPair] = []

    def collect(self, pair: SimilarPair) -> None:
        self.pairs.append(pair)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[SimilarPair]:
        return iter(self.pairs)

    def keys(self) -> set[tuple[int, int]]:
        """Set of canonical pair keys, convenient for equivalence tests."""
        return {pair.key for pair in self.pairs}


class CountingCollector(PairCollector):
    """Counts reported pairs without storing them."""

    def __init__(self) -> None:
        self.count = 0

    def collect(self, pair: SimilarPair) -> None:
        self.count += 1


class CallbackCollector(PairCollector):
    """Forwards every pair to a user-provided callable."""

    def __init__(self, callback: Callable[[SimilarPair], None]) -> None:
        self._callback = callback

    def collect(self, pair: SimilarPair) -> None:
        self._callback(pair)


class TopKCollector(PairCollector):
    """Keeps only the ``k`` pairs with the highest similarity."""

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self._heap: list[tuple[float, int, SimilarPair]] = []
        self._counter = 0

    def collect(self, pair: SimilarPair) -> None:
        self._counter += 1
        item = (pair.similarity, self._counter, pair)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, item)
        elif item[0] > self._heap[0][0]:
            heapq.heapreplace(self._heap, item)

    @property
    def pairs(self) -> list[SimilarPair]:
        """The retained pairs, most similar first."""
        return [entry[2] for entry in sorted(self._heap, reverse=True)]
