"""Shared prefix-filtering engine behind the AP, L2AP and L2 indexes.

The three schemes of Sections 5.2–5.4 differ only in which bound families
they enable:

===========  =====================  =====================
scheme       AP bounds (``b1``,     ℓ₂ bounds (``b2``,
             ``sz1``, ``rs1``)      ``rs2``, ``l2bound``)
===========  =====================  =====================
AP           yes                    no
L2AP         yes                    yes
L2           no                     yes
===========  =====================  =====================

:class:`PrefixFilterBatchIndex` implements Algorithms 2–4 (index
construction, candidate generation, candidate verification) for a static
dataset, parameterised by the two flags.  :class:`PrefixFilterStreamingIndex`
implements the streaming counterparts (Algorithms 6–8) including time
filtering, decayed bounds and — when the AP bounds are enabled — the
re-indexing procedure of Section 5.3.

The per-posting inner loops (accumulation, time filtering, the ``l2bound``
and ``sz1`` checks) are delegated to the configured compute backend's
:class:`~repro.backends.base.SimilarityKernel`; this module keeps the
algorithmic driver — bound maintenance across query positions, the
residual/``Q`` store, re-indexing — which is identical for every backend.

The concrete classes in :mod:`repro.indexes.allpairs`, :mod:`repro.indexes.l2ap`
and :mod:`repro.indexes.l2` are thin subclasses that fix the flags.
"""

from __future__ import annotations

import math

from repro import obs
from repro.backends import CandidateSet, SimilarityKernel
from repro.core.results import JoinStatistics, SimilarPair
from repro.core.similarity import time_horizon
from repro.core.vector import SparseVector
from repro.exceptions import InvalidParameterError
from repro.indexes.base import BatchIndex, StreamingIndex
from repro.indexes.bounds import size_filter_threshold
from repro.indexes.maxvector import DecayedMaxVector, MaxVector
from repro.indexes.posting import InvertedIndex
from repro.indexes.residual import ResidualEntry, ResidualIndex

__all__ = ["PrefixFilterBatchIndex", "PrefixFilterStreamingIndex",
           "collect_index_stats"]

_INF = math.inf


def collect_index_stats(index) -> None:
    """Scrape-time collector: a streaming index's structural counters.

    Counter export only — the per-posting scan paths are untouched (the
    registry never appears on the hot path).  Shared with the INV index;
    the labels identify the scheme and backend, not the instance, so
    multiple engines of the same configuration feed one series (each via
    its own delta tracker).
    """
    registry = obs.get_registry()
    tracker = index._obs_tracker
    stats = index.stats
    labels = {"index": index.name, "backend": index.backend_name}
    for key, value in (
            ("entries_indexed", stats.entries_indexed),
            ("entries_traversed", stats.entries_traversed),
            ("entries_pruned", stats.entries_pruned),
            ("reindexings", stats.reindexings),
            ("reindexed_entries", stats.reindexed_entries)):
        tracker.export(registry.counter(
            f"sssj_index_{key}_total",
            f"Streaming-index {key.replace('_', ' ')}.",
            ("index", "backend")).labels(**labels), key, value)


class PrefixFilterBatchIndex(BatchIndex):
    """Batch prefix-filtering index (Algorithms 2–4) with selectable bounds.

    Parameters
    ----------
    threshold:
        Similarity threshold ``θ``.
    max_vector:
        The ``m`` vector over the data that will *query* the index.  Required
        when the AP bounds are enabled (``use_ap``); the batch driver computes
        it over the whole dataset, the MiniBatch framework over the previous
        and the current window (Section 6.1).  When omitted with ``use_ap``
        enabled, the index maintains ``m`` online from the vectors it sees,
        which is only correct if queries never exceed the indexed maxima.
    backend:
        Compute backend for the hot loops (see :mod:`repro.backends`).
    """

    use_ap: bool = True
    use_l2: bool = True

    def __init__(self, threshold: float, *, stats: JoinStatistics | None = None,
                 max_vector: MaxVector | None = None,
                 backend: str | SimilarityKernel | None = None,
                 approx=None) -> None:
        super().__init__(threshold, stats=stats, backend=backend,
                         approx=approx)
        self._index = InvertedIndex(self.kernel.new_posting_list)
        self._residual = ResidualIndex()
        self._size_filter = self.kernel.new_size_filter()
        self._max_query = max_vector            # m  (bounds future queries)
        self._max_indexed = MaxVector()         # m̂  (maxima of indexed data)

    # -- introspection ----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._index)

    @property
    def residual_size(self) -> int:
        return self._residual.total_residual_coordinates()

    # -- IC ---------------------------------------------------------------------

    def index_vector(self, vector: SparseVector) -> None:
        max_vector = self._max_query
        if self.use_ap and max_vector is None:
            # Fall back to the indexed maxima; see the class docstring.
            max_vector = self._max_indexed
            max_vector.update(vector)
        split = self.kernel.indexing_split(
            vector, self.threshold,
            max_vector=max_vector if self.use_ap else None,
            use_ap=self.use_ap, use_l2=self.use_l2,
        )
        if split.boundary >= len(vector):
            # The whole vector stays un-indexed: it cannot reach the threshold
            # against any other vector, so it will never need to be retrieved.
            return
        entry = ResidualEntry(
            vector=vector, boundary=split.boundary, pscore=split.pscore,
        )
        self._residual.add(entry)
        self._size_filter.set(vector.vector_id, len(vector) * vector.max_value)
        self.kernel.note_vector_indexed(entry)
        indexed = self.kernel.index_vector_postings(
            self._index, vector, split.boundary)
        self._max_indexed.update(vector)
        self.stats.entries_indexed += indexed
        self.stats.residual_entries += split.boundary
        self.stats.max_index_size = max(self.stats.max_index_size, len(self._index))
        self.stats.max_residual_size = max(
            self.stats.max_residual_size, self._residual.total_residual_coordinates()
        )

    # -- CG ---------------------------------------------------------------------

    def candidate_generation(self, vector: SparseVector) -> CandidateSet:
        stats = self.stats
        threshold = self.threshold
        kernel = self.kernel
        accumulator = kernel.new_accumulator()

        sz1 = size_filter_threshold(threshold, vector.max_value) if self.use_ap else 0.0
        if self.use_ap:
            # One m̂ gather per query: the rs1 seed matches MaxVector.dot
            # add for add and the kernel's per-position decrements reuse
            # the same values the per-term loop would fetch.
            max_get = self._max_indexed.get
            maxima = [max_get(dim) for dim in vector.dims]
            rs1 = self._max_indexed.dot(vector)
        else:
            maxima = None
            rs1 = _INF

        # The whole query's scan — bound maintenance across positions
        # included — is one kernel call (Algorithm 3's outer loop); see
        # SimilarityKernel.scan_query_batch.
        stats.entries_traversed += kernel.scan_query_batch(
            vector, self._index, threshold=threshold, rs1=rs1, maxima=maxima,
            sz1=sz1, use_ap=self.use_ap, use_l2=self.use_l2,
            size_filter=self._size_filter, acc=accumulator,
        )

        candidates = accumulator.finalize()
        stats.candidates_generated += len(candidates)
        stats.candidates_sketch_pruned += getattr(accumulator,
                                                  "sketch_pruned", 0)
        return candidates

    # -- CV ---------------------------------------------------------------------

    def candidate_verification(
        self, vector: SparseVector, candidates: CandidateSet
    ) -> list[tuple[SparseVector, float]]:
        return self.kernel.verify_batch(
            vector, candidates, self._residual, self.threshold, self.stats)


class PrefixFilterStreamingIndex(StreamingIndex):
    """Streaming prefix-filtering index (Algorithms 6–8) with selectable bounds.

    When the AP bounds are enabled the index maintains the online maximum
    vector ``m`` and performs the re-indexing procedure of Section 5.3
    whenever ``m`` grows; its posting lists then lose time order and are
    pruned by full compaction.  When only the ℓ₂ bounds are enabled (the L2
    scheme) the lists stay time ordered, so candidate generation scans them
    backwards and truncates lazily, exactly as Section 6.2 describes.
    """

    use_ap: bool = True
    use_l2: bool = True

    def __init__(self, threshold: float, decay: float, *,
                 stats: JoinStatistics | None = None,
                 backend: str | SimilarityKernel | None = None,
                 approx=None,
                 partition: tuple[int, int] | None = None) -> None:
        super().__init__(threshold, decay, stats=stats, backend=backend,
                         approx=approx, partition=partition)
        if decay <= 0:
            raise InvalidParameterError(
                "the streaming indexes require a strictly positive decay rate; "
                "with decay == 0 the horizon is unbounded and the index can never "
                "forget items (use the batch all_pairs driver instead)"
            )
        self.horizon = time_horizon(threshold, decay)
        self.time_ordered = not self.use_ap
        self._index = self._make_index()
        self._obs_tracker = obs.DeltaTracker()
        if obs.enabled():
            obs.get_registry().add_collector(collect_index_stats, owner=self)
        self._residual = ResidualIndex()
        self._size_filter = self.kernel.new_size_filter()
        self._max_query = MaxVector() if self.use_ap else None          # m
        self._max_decayed = DecayedMaxVector(decay) if self.use_ap else None  # m̂^λ
        #: Partition only: owned vector id -> ``[(start, step), ...]``, the
        #: first position and the step of each of its posting appends
        #: (indexing, then every re-indexing move), for :meth:`merge_key`.
        self._appends: dict[int, list[tuple[int, int]]] | None = (
            None if partition is None else {})

    def _announce_vectors(self) -> None:
        # The sz1 size-filter map and the kernel's verification mirrors
        # (and sketch signatures) are filled at indexing time; a fresh
        # kernel gets both from the residual store, so it filters and
        # counts exactly like the kernel that indexed the vectors.
        self._size_filter = self.kernel.new_size_filter()
        entries = list(self._residual.entries())
        for entry in entries:
            self._size_filter.set(entry.vector_id, entry.size_filter_value)
        self.kernel.note_vectors_indexed(entries)

    # -- introspection ----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._index)

    @property
    def residual_size(self) -> int:
        return self._residual.total_residual_coordinates()

    # -- main entry point (Algorithm 6) ------------------------------------------

    def process(self, vector: SparseVector) -> list[SimilarPair]:
        now = vector.timestamp
        cutoff = now - self.horizon
        stats = self.stats

        # Time filtering of the residual/Q store: entries are in arrival
        # order, so eviction pops from the head (Section 6.2).
        appends = self._appends
        for evicted in self._residual.evict_older_than(cutoff):
            self._size_filter.discard(evicted.vector_id)
            self.kernel.note_vector_evicted(evicted.vector_id)
            if appends is not None:
                del appends[evicted.vector_id]

        # Maintaining the AP invariant must happen before candidate
        # generation: if the new vector raises the maximum of a dimension,
        # residual prefixes that relied on the old maximum may now need to
        # be (partially) indexed, otherwise the query could miss them.
        if self.use_ap:
            grown = self._max_query.update(vector)  # type: ignore[union-attr]
            if grown:
                self._reindex(grown, cutoff)

        scores = self._candidate_generation(vector, cutoff)
        pairs = self._candidate_verification(vector, scores)
        self._index_vector(vector)
        self.steps += 1

        stats.vectors_processed += 1
        stats.pairs_output += len(pairs)
        stats.max_index_size = max(stats.max_index_size, len(self._index))
        stats.max_residual_size = max(
            stats.max_residual_size, self._residual.total_residual_coordinates()
        )
        return pairs

    # -- CG (Algorithm 7) ---------------------------------------------------------

    def _candidate_generation(self, vector: SparseVector, cutoff: float) -> CandidateSet:
        stats = self.stats
        threshold = self.threshold
        decay = self.decay
        now = vector.timestamp
        kernel = self.kernel
        accumulator = kernel.new_accumulator()

        sz1 = size_filter_threshold(threshold, vector.max_value) if self.use_ap else 0.0
        if self.use_ap:
            # One m̂^λ gather per query; the rs1 initialisation below matches
            # DecayedMaxVector.dot add for add, and the kernel's per-position
            # decrements reuse the same values.
            value_at = self._max_decayed.value_at  # type: ignore[union-attr]
            decayed_maxima = [value_at(dim, now) for dim in vector.dims]
            rs1 = sum(value * decayed
                      for value, decayed in zip(vector.values, decayed_maxima))
        else:
            decayed_maxima = None
            rs1 = _INF

        # The whole query's scan — time filtering, decayed bound
        # maintenance across positions — is one kernel call (Algorithm 7's
        # outer loop); see SimilarityKernel.scan_query_stream.
        traversed, removed = kernel.scan_query_stream(
            vector, self._index, now=now, cutoff=cutoff, decay=decay,
            rs1=rs1, decayed_maxima=decayed_maxima, sz1=sz1,
            threshold=threshold, use_ap=self.use_ap, use_l2=self.use_l2,
            time_ordered=self.time_ordered, size_filter=self._size_filter,
            acc=accumulator,
        )
        stats.entries_traversed += traversed
        if removed:
            self._index.note_removed(removed)
            stats.entries_pruned += removed

        candidates = accumulator.finalize()
        stats.candidates_generated += len(candidates)
        stats.candidates_sketch_pruned += getattr(accumulator,
                                                  "sketch_pruned", 0)
        return candidates

    # -- CV (Algorithm 8) ---------------------------------------------------------

    def _candidate_verification(self, vector: SparseVector,
                                candidates: CandidateSet) -> list[SimilarPair]:
        return self.kernel.verify_stream(
            vector, candidates, self._residual, self.threshold, self.decay,
            vector.timestamp, self.stats)

    # -- IC (Algorithm 6, lines 6-14) ----------------------------------------------

    def _index_vector(self, vector: SparseVector) -> None:
        owned = self.owns_current()
        if not owned and not self.use_ap:
            return  # another partition stores it; no m̂^λ to maintain
        split = self.kernel.indexing_split(
            vector, self.threshold,
            max_vector=self._max_query if self.use_ap else None,
            use_ap=self.use_ap, use_l2=self.use_l2,
        )
        if split.boundary >= len(vector):
            return
        if self.use_ap:
            self._max_decayed.update(vector)  # type: ignore[union-attr]
        if not owned:
            # Another partition stores it; m̂^λ above is query-side state.
            return
        entry = ResidualEntry(
            vector=vector, boundary=split.boundary, pscore=split.pscore,
        )
        self._residual.add(entry)
        self._size_filter.set(vector.vector_id, len(vector) * vector.max_value)
        self.kernel.note_vector_indexed(entry)
        indexed = self.kernel.index_vector_postings(
            self._index, vector, split.boundary)
        if self._appends is not None:
            self._appends[vector.vector_id] = [(split.boundary, self.steps)]
        self.stats.entries_indexed += indexed
        self.stats.residual_entries += split.boundary

    # -- re-indexing (Section 5.3) ---------------------------------------------------

    def _reindex(self, grown_dims: list[int], cutoff: float) -> None:
        """Restore the prefix-filtering invariant after ``m`` grew."""
        affected = self._residual.candidates_for_dimensions(grown_dims)
        if not affected:
            return
        self.stats.reindexings += 1
        # Re-indexing is the rare structural event worth a span of its
        # own; the per-posting scan paths carry no instrumentation.
        with obs.span("reindex", affected=len(affected)):
            self._reindex_affected(affected, cutoff)

    def _reindex_affected(self, affected, cutoff: float) -> None:
        stats = self.stats
        threshold = self.threshold
        # Id order, not set order: the moved postings' order inside a list
        # then depends on the affected ids alone, so a partition holding a
        # subset of them appends in the same relative order (merge_key).
        for candidate_id in sorted(affected):
            entry = self._residual.get(candidate_id)
            if entry is None or entry.timestamp < cutoff:
                continue
            boundary = entry.boundary
            if self.use_l2 and entry.vector.prefix_norm_before(boundary) < threshold:
                # ℓ₂-locked boundary: every pre-boundary position has
                # ``b2 < θ``, so ``min(b1, b2) < θ`` there no matter how
                # much ``m`` grows — the boundary cannot move.  The stored
                # Q bound must still stay an upper bound while ``b1``
                # grows; cap it once at the (m-independent) ℓ₂ bound
                # instead of rescanning the prefix on every growth event.
                l2_bound = entry.vector.prefix_norm_before(boundary)
                if entry.pscore != l2_bound:
                    entry.pscore = l2_bound
                    self.kernel.note_vector_updated(entry)
                continue
            split = self.kernel.indexing_split(
                entry.vector, self.threshold,
                max_vector=self._max_query,
                use_ap=self.use_ap, use_l2=self.use_l2,
                limit=entry.boundary,
            )
            if split.boundary >= entry.boundary:
                # The boundary does not move, but the stored Q bound was
                # computed against the old maxima and is now too small; a
                # stale (under-estimating) Q would let the ps1 verification
                # bound prune a true pair.  Refresh it.
                entry.pscore = split.pscore
                self.kernel.note_vector_updated(entry)
                continue
            # Move the newly covered coordinates from the residual prefix to
            # the posting lists; they are appended at the tail, so the lists
            # lose their time order (hence ``time_ordered`` is False here).
            moved = self.kernel.index_vector_postings(
                self._index, entry.vector, split.boundary, entry.boundary)
            if self._appends is not None:
                self._appends[candidate_id].append((split.boundary,
                                                    self.steps))
            stats.reindexed_entries += moved
            stats.entries_indexed += moved
            freed_dims = entry.shrink_to(split.boundary, split.pscore)
            self._residual.note_residual_shrunk(len(freed_dims))
            self._residual.forget_residual_dimension(candidate_id, freed_dims)
            self.kernel.note_vector_updated(entry)

    # -- candidate partitions ---------------------------------------------------

    def merge_key(self, query: SparseVector, candidate_id: int) -> tuple:
        """Where ``candidate_id`` entered this query's candidate order.

        Candidates are ordered by their first accumulated posting: query
        positions are scanned from the last one down, each list front to
        back (newest first when ``time_ordered``).  A vector's postings
        share one timestamp and the admission bound only shrinks along
        the scan, so a reported candidate's first posting is the one on
        the highest query position it has a posting for.  Its place in
        that list is its append step; within one step, re-indexing moves
        (in id order) precede the arriving vector's own postings.  The
        key is comparable across the partitions of one stream.
        """
        entry = self._residual.get(candidate_id)
        dims = entry.vector.dims
        boundary = entry.boundary
        position_of = {dims[p]: p for p in range(boundary, len(dims))}
        query_dims = query.dims
        for position in range(len(query_dims) - 1, -1, -1):
            coordinate = position_of.get(query_dims[position])
            if coordinate is not None:
                break
        appends = self._appends[candidate_id]  # type: ignore[index]
        for start, step in appends:
            if coordinate >= start:
                break
        if self.time_ordered:
            return (-position, -step)
        arrival = appends[0][1]
        return (-position, step, step == arrival, candidate_id)
