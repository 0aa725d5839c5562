"""Pure-Python reference backend.

This backend is the semantic ground truth: its scan kernels are the
per-entry loops that used to live inline in the index classes, moved here
verbatim when the compute-backend subsystem was introduced.  Posting lists
are :class:`~repro.indexes.posting.PostingList` objects, plain Python
lists scanned backwards with ``reversed`` and truncated at the head with
``del``, and the score table is a plain insertion-ordered dictionary.

It has no dependencies beyond the standard library, works for arbitrarily
sparse vector ids and dimensions, and is the backend the vectorised
implementations are equivalence-tested against.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Any

from repro.backends.base import (
    CandidateSet,
    ScoreAccumulator,
    SimilarityKernel,
    SizeFilterMap,
)
from repro.core.results import JoinStatistics, SimilarPair
from repro.core.vector import SparseVector
from repro.indexes.bounds import verification_bounds
from repro.indexes.posting import PostingList
from repro.indexes.residual import ResidualIndex

__all__ = ["ReferenceKernel"]


class ReferenceCandidateSet(CandidateSet):
    """Insertion-ordered score and arrival dictionaries, handed over as-is."""

    __slots__ = ("scores", "arrival")

    def __init__(self, scores: dict[int, float],
                 arrival: dict[int, float]) -> None:
        self.scores = scores
        self.arrival = arrival

    def __len__(self) -> int:
        return len(self.scores)

    def to_dict(self) -> dict[int, float]:
        return self.scores

    def above(self, threshold: float) -> list[tuple[int, float]]:
        return [(candidate_id, score) for candidate_id, score in self.scores.items()
                if score >= threshold]


class ReferenceAccumulator(ScoreAccumulator):
    """Dict-based score table: ``scores``, the ``pruned`` set and arrivals."""

    __slots__ = ("scores", "pruned", "arrival", "sketch_pruned")

    def __init__(self) -> None:
        self.scores: dict[int, float] = {}
        self.pruned: set[int] = set()
        self.arrival: dict[int, float] = {}
        self.sketch_pruned: int = 0

    def finalize(self) -> ReferenceCandidateSet:
        return ReferenceCandidateSet(self.scores, self.arrival)


class ReferenceSizeFilter(SizeFilterMap):
    """Plain dictionary ``vector_id → |x| · vm_x``."""

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: dict[int, float] = {}

    def set(self, vector_id: int, value: float) -> None:
        self._values[vector_id] = value

    def discard(self, vector_id: int) -> None:
        self._values.pop(vector_id, None)

    def get(self, vector_id: int) -> float | None:
        return self._values.get(vector_id)


class ReferenceKernel(SimilarityKernel):
    """The per-entry Python loops of Algorithms 3, 4, 7 and 8."""

    name = "python"
    description = "pure-Python reference loops (the semantic ground truth)"

    # -- storage factories ---------------------------------------------------

    def new_posting_list(self) -> PostingList:
        return PostingList()

    def new_accumulator(self) -> ReferenceAccumulator:
        return ReferenceAccumulator()

    def new_size_filter(self) -> ReferenceSizeFilter:
        return ReferenceSizeFilter()

    # -- candidate generation ------------------------------------------------
    #
    # One scan_query_* call per query: the per-term driver loops maintain
    # the remaining-score bounds across query positions and hand each
    # posting list to the per-entry loop of its scheme.

    def scan_query_batch(self, vector: SparseVector, index: Any, *,
                         threshold: float, rs1: float,
                         maxima: Sequence[float] | None, sz1: float,
                         use_ap: bool, use_l2: bool,
                         size_filter: SizeFilterMap,
                         acc: ScoreAccumulator) -> int:
        self._install_query_sketch(vector)
        dims = vector.dims
        values = vector.values
        rst = vector.norm * vector.norm
        rs2 = math.sqrt(rst) if use_l2 else math.inf
        traversed = 0
        for position in range(len(dims) - 1, -1, -1):
            value = values[position]
            posting_list = index.get(dims[position])
            if posting_list is not None:
                admit_new = min(rs1, rs2) >= threshold
                traversed += self._scan_prefix_batch(
                    posting_list, value, vector.prefix_norm_before(position),
                    admit_new, threshold, use_ap, use_l2,
                    sz1, size_filter, acc,
                )
            if use_ap:
                rs1 -= value * maxima[position]  # type: ignore[index]
            rst -= value * value
            if use_l2:
                rs2 = math.sqrt(max(rst, 0.0))
        return traversed

    def scan_query_stream(self, vector: SparseVector, index: Any, *,
                          now: float, cutoff: float, decay: float,
                          rs1: float,
                          decayed_maxima: Sequence[float] | None,
                          sz1: float, threshold: float,
                          use_ap: bool, use_l2: bool, time_ordered: bool,
                          size_filter: SizeFilterMap,
                          acc: ScoreAccumulator) -> tuple[int, int]:
        self._install_query_sketch(vector)
        dims = vector.dims
        values = vector.values
        prefix_norms = vector._prefix_norms
        rst = vector.norm * vector.norm
        rs2 = math.sqrt(rst) if use_l2 else math.inf
        index_get = index.get
        scan = self._scan_prefix_stream
        traversed = 0
        removed = 0
        for position in range(len(dims) - 1, -1, -1):
            value = values[position]
            posting_list = index_get(dims[position])
            if posting_list is not None and len(posting_list):
                scanned, pruned = scan(
                    posting_list, value, prefix_norms[position],
                    now, cutoff, decay, rs1, rs2, sz1, threshold,
                    use_ap, use_l2, time_ordered, size_filter, acc,
                )
                traversed += scanned
                removed += pruned
            if use_ap:
                rs1 -= value * decayed_maxima[position]  # type: ignore[index]
            rst -= value * value
            if use_l2:
                rs2 = math.sqrt(max(rst, 0.0))
        return traversed, removed

    def scan_query_inv_batch(self, vector: SparseVector, index: Any,
                             acc: ScoreAccumulator) -> int:
        traversed = 0
        for dim, value in vector:
            posting_list = index.get(dim)
            if posting_list is None:
                continue
            traversed += self._scan_inv_batch(posting_list, value, acc)
        return traversed

    def scan_query_inv_stream(self, vector: SparseVector, index: Any,
                              cutoff: float,
                              acc: ScoreAccumulator) -> tuple[int, int]:
        traversed = 0
        removed = 0
        for dim, value in vector:
            posting_list = index.get(dim)
            if posting_list is None:
                continue
            scanned, pruned = self._scan_inv_stream(posting_list, value,
                                                    cutoff, acc)
            traversed += scanned
            removed += pruned
        return traversed, removed

    # -- INV scans -----------------------------------------------------------

    def _scan_inv_batch(self, plist: PostingList, value: float,
                        acc: ScoreAccumulator) -> int:
        """INV batch scan: adds ``value * x_j`` for every posting."""
        scores = acc.scores
        traversed = 0
        for entry in plist:
            traversed += 1
            candidate_id = entry.vector_id
            scores[candidate_id] = scores.get(candidate_id, 0.0) + value * entry.value
        return traversed

    def _scan_inv_stream(self, plist: PostingList, value: float, cutoff: float,
                         acc: ScoreAccumulator) -> tuple[int, int]:
        """STR-INV scan: backward over the live postings, truncating the head."""
        scores = acc.scores
        arrival = acc.arrival
        alive = 0
        for entry in reversed(plist):
            if entry.timestamp < cutoff:
                # Everything older than this entry is also expired:
                # truncate the head of the list (lazy time filtering).
                break
            alive += 1
            candidate_id = entry.vector_id
            scores[candidate_id] = scores.get(candidate_id, 0.0) + value * entry.value
            arrival.setdefault(candidate_id, entry.timestamp)
        removed = len(plist) - alive
        if removed:
            del plist[:removed]
        return alive, removed

    # -- prefix-filter scans -------------------------------------------------

    def _scan_prefix_batch(self, plist: PostingList, value: float,
                           query_prefix_norm: float, admit_new: bool,
                           threshold: float, use_ap: bool, use_l2: bool,
                           sz1: float, size_filter: SizeFilterMap,
                           acc: ScoreAccumulator) -> int:
        """Algorithm 3 inner loop over one posting list."""
        scores = acc.scores
        pruned = acc.pruned
        sketch = self._sketch_scheme is not None
        traversed = 0
        for entry in plist:
            traversed += 1
            candidate_id = entry.vector_id
            if sketch and not self._sketch_admits(acc, candidate_id):
                continue
            if candidate_id in pruned:
                continue
            started = candidate_id in scores
            if not started and not admit_new:
                continue
            if use_ap and not started:
                candidate_size = size_filter.get(candidate_id)
                if candidate_size is not None and candidate_size < sz1:
                    continue
            accumulated = scores.get(candidate_id, 0.0) + value * entry.value
            if use_l2:
                l2bound = accumulated + query_prefix_norm * entry.prefix_norm
                if l2bound < threshold:
                    scores.pop(candidate_id, None)
                    pruned.add(candidate_id)
                    continue
            scores[candidate_id] = accumulated
        return traversed

    def _scan_prefix_stream(self, plist: PostingList, value: float,
                            query_prefix_norm: float, now: float,
                            cutoff: float, decay: float, rs1: float,
                            rs2: float, sz1: float, threshold: float,
                            use_ap: bool, use_l2: bool, time_ordered: bool,
                            size_filter: SizeFilterMap,
                            acc: ScoreAccumulator) -> tuple[int, int]:
        """Algorithm 7 inner loop over one posting list.

        Time-ordered lists are scanned backwards and truncated at the
        first expired posting; unordered lists are compacted eagerly.
        """
        if time_ordered:
            # Backward scan: stop at the first expired posting and truncate
            # the head.  Only live postings count as traversed — the expired
            # sentinel is charged to pruning.
            alive = 0
            for entry in reversed(plist):
                if entry.timestamp < cutoff:
                    break
                alive += 1
                self._accumulate_stream(
                    entry, value, query_prefix_norm, now, decay, rs1, rs2,
                    sz1, threshold, use_ap, use_l2, size_filter, acc)
            removed = len(plist) - alive
            if removed:
                del plist[:removed]
            return alive, removed
        traversed = 0
        kept = []
        for entry in plist:
            traversed += 1
            if entry.timestamp < cutoff:
                continue
            kept.append(entry)
            self._accumulate_stream(
                entry, value, query_prefix_norm, now, decay, rs1, rs2,
                sz1, threshold, use_ap, use_l2, size_filter, acc)
        removed = traversed - len(kept)
        if removed:
            plist[:] = kept
        return traversed, removed

    def _accumulate_stream(self, entry: Any, value: float,
                           query_prefix_norm: float,
                           now: float, decay: float, rs1: float, rs2: float,
                           sz1: float, threshold: float, use_ap: bool,
                           use_l2: bool, size_filter: SizeFilterMap,
                           acc: ScoreAccumulator) -> None:
        """Per-posting accumulation with the decayed bounds of Algorithm 7."""
        scores = acc.scores
        pruned = acc.pruned
        candidate_id = entry.vector_id
        if (self._sketch_scheme is not None
                and not self._sketch_admits(acc, candidate_id)):
            return
        if candidate_id in pruned:
            return
        delta = now - entry.timestamp
        decay_factor = math.exp(-decay * delta)
        started = candidate_id in scores
        if not started:
            remscore = min(rs1, rs2 * decay_factor)
            if remscore < threshold:
                return
            if use_ap:
                candidate_size = size_filter.get(candidate_id)
                if candidate_size is not None and candidate_size < sz1:
                    return
        accumulated = scores.get(candidate_id, 0.0) + value * entry.value
        if use_l2:
            l2bound = accumulated + query_prefix_norm * entry.prefix_norm * decay_factor
            if l2bound < threshold:
                scores.pop(candidate_id, None)
                pruned.add(candidate_id)
                return
        scores[candidate_id] = accumulated

    # -- candidate verification ------------------------------------------------

    def verify_batch(self, query: SparseVector, candidates: CandidateSet,
                     residual: ResidualIndex, threshold: float,
                     stats: JoinStatistics) -> list[tuple[SparseVector, float]]:
        matches: list[tuple[SparseVector, float]] = []
        for candidate_id, accumulated in candidates.to_dict().items():
            entry = residual.get(candidate_id)
            if entry is None:  # pragma: no cover - defensive; indexed vectors have entries
                continue
            ps1, ds1, sz2 = verification_bounds(accumulated, query, entry)
            if ps1 >= threshold and ds1 >= threshold and sz2 >= threshold:
                stats.full_similarities += 1
                score = accumulated + entry.residual_dot(query)
                if score >= threshold:
                    matches.append((entry.vector, score))
        return matches

    def verify_stream(self, query: SparseVector, candidates: CandidateSet,
                      residual: ResidualIndex, threshold: float,
                      decay: float, now: float,
                      stats: JoinStatistics) -> list[SimilarPair]:
        pairs: list[SimilarPair] = []
        for candidate_id, accumulated in candidates.to_dict().items():
            entry = residual.get(candidate_id)
            if entry is None:  # pragma: no cover - defensive
                continue
            delta = now - entry.timestamp
            decay_factor = math.exp(-decay * delta)
            ps1, ds1, sz2 = verification_bounds(accumulated, query, entry)
            if (ps1 * decay_factor >= threshold and ds1 * decay_factor >= threshold
                    and sz2 * decay_factor >= threshold):
                stats.full_similarities += 1
                dot = accumulated + entry.residual_dot(query)
                similarity = dot * decay_factor
                if similarity >= threshold:
                    pairs.append(SimilarPair.make(
                        query.vector_id, candidate_id, similarity,
                        time_delta=delta, dot=dot, reported_at=now,
                    ))
        return pairs

    def verify_inv_stream(self, query: SparseVector, candidates: CandidateSet,
                          threshold: float, decay: float, now: float,
                          stats: JoinStatistics) -> list[SimilarPair]:
        # Only this backend's own STR-INV scans fill the arrival table.
        arrival = candidates.arrival
        pairs: list[SimilarPair] = []
        for candidate_id, dot in candidates.to_dict().items():
            stats.full_similarities += 1
            delta = now - arrival[candidate_id]
            similarity = dot * math.exp(-decay * delta)
            if similarity >= threshold:
                pairs.append(SimilarPair.make(
                    query.vector_id, candidate_id, similarity,
                    time_delta=delta, dot=dot, reported_at=now,
                ))
        return pairs

    # -- baseline dot products -----------------------------------------------

    def dots_for(self, query: SparseVector,
                 others: Sequence[SparseVector]) -> list[float]:
        return [query.dot(other) for other in others]
