"""Plain inverted index (INV), batch and streaming variants.

Section 5.1 of the paper.  INV applies no index-pruning bound: every
coordinate of every vector is indexed, candidate generation accumulates the
*exact* dot product from the posting lists, and candidate verification only
applies the threshold.

The streaming variant (``STR-INV``) keeps the posting lists in time order,
which enables the two time-filtering optimisations of Sections 5.1 and 6.2:
candidate generation scans each list backwards (newest first), stops at the
first entry older than the horizon ``τ`` and truncates everything before it
in constant time.
"""

from __future__ import annotations

from repro import obs
from repro.backends import CandidateSet, SimilarityKernel
from repro.core.results import JoinStatistics, SimilarPair
from repro.core.similarity import time_horizon
from repro.core.vector import SparseVector
from repro.exceptions import InvalidParameterError
from repro.indexes.base import (
    BatchIndex,
    StreamingIndex,
    register_batch_index,
    register_streaming_index,
)
from repro.indexes.linked_map import LinkedHashMap
from repro.indexes.posting import InvertedIndex

__all__ = ["InvertedBatchIndex", "InvertedStreamingIndex"]


@register_batch_index
class InvertedBatchIndex(BatchIndex):
    """Batch INV: index everything, accumulate exact dot products."""

    name = "INV"

    def __init__(self, threshold: float, *, stats: JoinStatistics | None = None,
                 backend: str | SimilarityKernel | None = None,
                 approx=None) -> None:
        if approx is not None:
            raise InvalidParameterError(
                "the INV schemes accumulate exact dot products during the "
                "scan and have no prefilter stage; approx mode requires a "
                "prefix-filter scheme (AP, L2, L2AP)")
        super().__init__(threshold, stats=stats, backend=backend)
        self._index = InvertedIndex(self.kernel.new_posting_list)
        self._vectors: dict[int, SparseVector] = {}

    @property
    def size(self) -> int:
        return len(self._index)

    def index_vector(self, vector: SparseVector) -> None:
        indexed = self.kernel.index_vector_postings(self._index, vector)
        self._vectors[vector.vector_id] = vector
        self.stats.entries_indexed += indexed
        self.stats.max_index_size = max(self.stats.max_index_size, len(self._index))

    def candidate_generation(self, vector: SparseVector) -> CandidateSet:
        stats = self.stats
        kernel = self.kernel
        accumulator = kernel.new_accumulator()
        # One fused kernel call covers every query dimension's list.
        stats.entries_traversed += kernel.scan_query_inv_batch(
            vector, self._index, accumulator)
        candidates = accumulator.finalize()
        stats.candidates_generated += len(candidates)
        return candidates

    def candidate_verification(
        self, vector: SparseVector, candidates: CandidateSet
    ) -> list[tuple[SparseVector, float]]:
        # CG already produced the exact dot product; CV just thresholds.
        matches: list[tuple[SparseVector, float]] = []
        for candidate_id, score in candidates.above(self.threshold):
            self.stats.full_similarities += 1
            matches.append((self._vectors[candidate_id], score))
        return matches


@register_streaming_index
class InvertedStreamingIndex(StreamingIndex):
    """STR-INV: inverted index with lazy time filtering on time-ordered lists."""

    name = "INV"
    time_ordered = True

    def __init__(self, threshold: float, decay: float, *,
                 stats: JoinStatistics | None = None,
                 backend: str | SimilarityKernel | None = None,
                 approx=None,
                 partition: tuple[int, int] | None = None) -> None:
        if approx is not None:
            raise InvalidParameterError(
                "the INV schemes accumulate exact dot products during the "
                "scan and have no prefilter stage; approx mode requires a "
                "prefix-filter scheme (AP, L2, L2AP)")
        super().__init__(threshold, decay, stats=stats, backend=backend,
                         partition=partition)
        self.horizon = time_horizon(threshold, decay)
        self._index = self._make_index()
        #: Partition only: the owned vectors inside the horizon and their
        #: arrival steps, for :meth:`merge_key`.
        self._owned: LinkedHashMap[int, tuple[SparseVector, int]] | None = (
            None if partition is None else LinkedHashMap())
        # Counter export only (shared with the prefix schemes); the scan
        # and append hot paths are untouched.
        from repro.indexes.prefix import collect_index_stats

        self._obs_tracker = obs.DeltaTracker()
        if obs.enabled():
            obs.get_registry().add_collector(collect_index_stats, owner=self)

    @property
    def size(self) -> int:
        return len(self._index)

    def process(self, vector: SparseVector) -> list[SimilarPair]:
        now = vector.timestamp
        cutoff = now - self.horizon
        stats = self.stats

        owned = self._owned
        if owned is not None:
            owned.evict_while(lambda _vector_id, item: item[0].timestamp < cutoff)

        # -- CG: accumulate exact dot products from the time-ordered lists,
        # truncating the expired head of each list (lazy time filtering).
        # The whole query is one fused kernel call.
        kernel = self.kernel
        accumulator = kernel.new_accumulator()
        traversed, removed = kernel.scan_query_inv_stream(
            vector, self._index, cutoff, accumulator)
        stats.entries_traversed += traversed
        if removed:
            self._index.note_removed(removed)
            stats.entries_pruned += removed
        candidates = accumulator.finalize()
        stats.candidates_generated += len(candidates)

        # -- CV: apply the time decay and the threshold (fused in the kernel).
        pairs = kernel.verify_inv_stream(
            vector, candidates, self.threshold, self.decay, now, stats)

        # -- IC: append every coordinate (no index pruning in INV).
        if self.owns_current():
            stats.entries_indexed += kernel.index_vector_postings(
                self._index, vector)
            if owned is not None:
                owned[vector.vector_id] = (vector, self.steps)
        self.steps += 1
        stats.vectors_processed += 1
        stats.pairs_output += len(pairs)
        stats.max_index_size = max(stats.max_index_size, len(self._index))
        return pairs

    def merge_key(self, query: SparseVector, candidate_id: int) -> tuple:
        """Where ``candidate_id`` entered this query's candidate order.

        The INV scan runs query positions upwards and each list newest
        first, accumulating every live posting: a candidate enters at its
        lowest query position, ranked there by its arrival step.
        """
        vector, step = self._owned[candidate_id]  # type: ignore[index]
        dims = set(vector.dims)
        for position, dim in enumerate(query.dims):
            if dim in dims:
                return (position, -step)
        raise KeyError(candidate_id)  # pragma: no cover - not a candidate
