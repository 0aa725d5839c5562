"""Kernel interface shared by every compute backend.

The similarity-join hot loops — candidate accumulation over posting lists,
decay/time-filter application, and the verification dot products — are
factored out of the index classes into a :class:`SimilarityKernel`.  The
index classes own the *algorithmic* state (bounds, residual store, max
vectors) and drive the scan, while the kernel owns the *representation* of
the per-dimension posting lists and of the per-query score table, so a
backend can lay both out however its hardware likes:

* the pure-Python reference backend (:mod:`repro.backends.reference`) keeps
  the original per-entry loops over :class:`~repro.indexes.posting.PostingList`
  objects (plain Python lists) — simple, dependency-free, and the semantic
  ground truth;
* the NumPy backend (:mod:`repro.backends.numpy_backend`) stores every
  dimension's postings in one shared posting arena
  (:mod:`repro.backends.arena`) and replaces the per-entry loops with
  fused whole-query array kernels.

Candidates travel from the scan kernels to verification as an opaque
:class:`CandidateSet` produced by :meth:`ScoreAccumulator.finalize`, so a
backend can keep them in its native layout end to end: the reference
backend hands over its insertion-ordered score dictionary, the NumPy
backend a pair of ``(slots, partial_scores)`` arrays that never round-trip
through per-candidate Python objects.  ``(id, id, similarity)`` tuples are
only materialised for the pairs that survive verification.

Both backends must produce the same ``SimilarPair`` output pair for pair;
``tests/test_backends.py`` enforces this on every dataset profile.

A kernel instance is **per index**: it may keep cross-call state (the NumPy
backend interns vector ids into dense slots and mirrors per-candidate
verification metadata in slot-indexed arrays), so never share one kernel
between two indexes.  Obtain instances through
:func:`repro.backends.resolve_kernel`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from collections.abc import Iterable, Mapping

    from repro.indexes.posting import PostingEntry
    from repro.core.results import JoinStatistics, SimilarPair
    from repro.core.vector import SparseVector
    from repro.indexes.bounds import IndexingSplit
    from repro.indexes.maxvector import MaxVector
    from repro.indexes.residual import ResidualEntry, ResidualIndex

__all__ = ["CandidateSet", "ScoreAccumulator", "SizeFilterMap",
           "SimilarityKernel"]


class CandidateSet(ABC):
    """Finalised result of one candidate-generation pass.

    A backend-native, read-only view of the accumulated score table ``C``:
    the reference backend wraps its insertion-ordered dictionaries, the
    NumPy backend a pair of slot/score arrays.  The set must be consumed
    (verified) before the next candidate-generation pass on the same
    kernel begins — backends may reuse the underlying storage afterwards.

    Candidate order is the order of the first successful accumulation,
    identical across backends.
    """

    @abstractmethod
    def __len__(self) -> int:
        """Number of candidates that survived the scan filters."""

    def __bool__(self) -> bool:
        return len(self) > 0

    @abstractmethod
    def to_dict(self) -> dict[int, float]:
        """Materialise ``{vector_id: partial_dot}`` in candidate order.

        A compatibility/debugging view: the hot verification paths consume
        the backend-native layout directly and never call this.
        """

    @abstractmethod
    def above(self, threshold: float) -> list[tuple[int, float]]:
        """``(vector_id, score)`` of candidates with ``score >= threshold``.

        Candidate order is preserved.  Used by the batch INV index, whose
        scan already accumulates the exact dot product.
        """


class ScoreAccumulator(ABC):
    """Per-query score table ``C`` filled in by the scan kernels.

    Create one per candidate-generation pass via
    :meth:`SimilarityKernel.new_accumulator`, feed it to a ``scan_query_*``
    call, then hand the result to verification with :meth:`finalize`.
    """

    @abstractmethod
    def finalize(self) -> CandidateSet:
        """Freeze the accumulated scores into a :class:`CandidateSet`.

        Must be called exactly once, after the last scan call of the pass;
        the accumulator must not be fed to a scan afterwards.
        """


class SizeFilterMap(ABC):
    """Per-index map ``vector_id → |x| · vm_x`` backing the sz1 size filter.

    The prefix-filter indexes maintain it alongside the residual store; the
    kernels read it (in bulk, for the vectorised backend) while scanning
    posting lists.  An absent id never fails the filter.
    """

    @abstractmethod
    def set(self, vector_id: int, value: float) -> None:
        """Record the size-filter value of a newly indexed vector."""

    @abstractmethod
    def discard(self, vector_id: int) -> None:
        """Forget an evicted vector (no-op when absent)."""

    @abstractmethod
    def get(self, vector_id: int) -> float | None:
        """Stored value or ``None`` when the id is unknown."""


class SimilarityKernel(ABC):
    """Backend-specific implementation of the join's three hot loops."""

    #: Registry name of the backend this kernel belongs to.
    name: str = "abstract"

    #: One-line human description shown by ``sssj backends``.
    description: str = ""

    # -- approximate sketch prefilter (:mod:`repro.approx`) ------------------
    #
    # When configured, the kernel keeps one banding signature per indexed
    # vector and rejects candidates whose signature shares no band with the
    # query's *before* score accumulation.  The filter only ever discards
    # candidates — verification stays exact — so enabling it can lose pairs
    # but never invent them; while unconfigured every path below is inert
    # and the join is bitwise-identical to an exact run.

    #: Active :class:`repro.approx.SignatureScheme`, ``None`` in exact mode.
    _sketch_scheme: Any = None
    #: Current query's signature, installed per ``scan_query_*`` call.
    _sketch_query: Any = None

    def configure_approx(self, config: Any) -> None:
        """Enable the sketch prefilter described by ``config``.

        ``config`` is a :class:`repro.approx.ApproxConfig`.  Must be called
        before the first vector is indexed: signatures are computed in the
        ``note_vector_indexed`` hook, so vectors indexed earlier would stay
        unsketched and always pass the filter.
        """
        from repro.approx import SignatureScheme

        self._sketch_scheme = SignatureScheme(config)
        self._sketch_keys: dict[int, tuple[int, ...]] = {}
        self._sketch_query = None
        self._sketch_query_keys: tuple[int, ...] | None = None
        self._sketch_query_vector: Any = None
        self._sketch_pass: set[int] = set()
        self._sketch_fail: set[int] = set()

    def _install_query_sketch(self, vector: "SparseVector") -> None:
        """Compute the signature of the query one scan is about to run.

        The vector itself is remembered so the ``note_vector_indexed`` hook
        — which in the streaming frameworks fires for the very same vector
        right after its scan — can reuse the signature instead of hashing
        twice.
        """
        if self._sketch_scheme is None:
            return
        self._sketch_query = self._sketch_scheme.signature(vector)
        self._sketch_query_keys = self._sketch_scheme.band_hash_keys(
            self._sketch_query)
        self._sketch_query_vector = vector
        self._sketch_pass.clear()
        self._sketch_fail.clear()

    def _query_sketch_for(self, vector: "SparseVector") -> tuple[Any, Any]:
        """``(signature, band keys)`` of ``vector``, reusing the query's."""
        if vector is self._sketch_query_vector:
            return self._sketch_query, self._sketch_query_keys
        signature = self._sketch_scheme.signature(vector)
        return signature, self._sketch_scheme.band_hash_keys(signature)

    def _sketch_admits(self, acc: "ScoreAccumulator", candidate_id: int) -> bool:
        """Per-posting banding check; the decision is memoised per query.

        Counts *every* rejected posting occurrence in ``acc.sketch_pruned``
        (the vectorised backends count dropped postings wholesale, so the
        per-entry backends must charge repeat visits of a rejected
        candidate too).  A missing signature admits the candidate
        (defensive: postings are only appended after
        ``note_vector_indexed`` runs, so live candidates always carry one).
        """
        if candidate_id in self._sketch_pass:
            return True
        if candidate_id in self._sketch_fail:
            acc.sketch_pruned += 1  # type: ignore[attr-defined]
            return False
        keys = self._sketch_keys.get(candidate_id)
        if keys is None or any(
                query_key == key
                for query_key, key in zip(self._sketch_query_keys, keys)):
            self._sketch_pass.add(candidate_id)
            return True
        self._sketch_fail.add(candidate_id)
        acc.sketch_pruned += 1  # type: ignore[attr-defined]
        return False

    # -- storage factories ---------------------------------------------------

    @abstractmethod
    def new_posting_list(self) -> Any:
        """A posting list ``I_j`` in this backend's native layout.

        Code outside the backend only takes the list's ``len``, its
        truthiness and ``to_list()`` (the live postings as
        :class:`~repro.indexes.posting.PostingEntry` objects, in list
        order); appends, scans and expiry all go through this kernel.
        """

    @abstractmethod
    def new_accumulator(self) -> ScoreAccumulator:
        """A fresh score table for one candidate-generation pass."""

    @abstractmethod
    def new_size_filter(self) -> SizeFilterMap:
        """A fresh sz1 size-filter map for one index."""

    # -- candidate metadata --------------------------------------------------
    #
    # The prefix-filter indexes notify the kernel whenever a vector enters,
    # changes in, or leaves the residual/Q store, so that a backend may
    # mirror the per-candidate verification metadata (pscore, residual
    # statistics, timestamp) in its native layout.  The reference backend
    # reads the ResidualIndex directly and ignores these hooks.

    def note_vector_indexed(self, entry: "ResidualEntry") -> None:
        """A vector was added to the residual/Q store."""
        if self._sketch_scheme is not None:
            _, keys = self._query_sketch_for(entry.vector)
            self._sketch_keys[entry.vector.vector_id] = keys

    def note_vectors_indexed(self, entries: "list[ResidualEntry]") -> None:
        """Several vectors were added at once (a rebuild from a snapshot);
        the same as :meth:`note_vector_indexed` on each, in order."""
        for entry in entries:
            self.note_vector_indexed(entry)

    def note_vector_updated(self, entry: "ResidualEntry") -> None:
        """A stored vector's residual prefix or pscore changed (re-indexing).

        Sketch signatures depend only on the full vector, which re-indexing
        never changes, so the sketch state needs no update here.
        """

    def note_vector_evicted(self, vector_id: int) -> None:
        """A stored vector fell behind the time horizon and was evicted."""
        if self._sketch_scheme is not None:
            self._sketch_keys.pop(vector_id, None)

    # -- index construction --------------------------------------------------

    def indexing_split(self, vector: "SparseVector", threshold: float, *,
                       max_vector: "MaxVector | None", use_ap: bool,
                       use_l2: bool, limit: int | None = None) -> "IndexingSplit":
        """Index-construction bound scan of Algorithm 2 (see
        :func:`repro.indexes.bounds.compute_indexing_split`).

        Exposed on the kernel because the scan is a hot loop during both
        indexing and re-indexing; backends may vectorise it, but must
        return bit-for-bit the same ``(boundary, pscore)`` as the
        reference implementation.
        """
        from repro.indexes.bounds import compute_indexing_split

        return compute_indexing_split(vector, threshold, max_vector=max_vector,
                                      use_ap=use_ap, use_l2=use_l2, limit=limit)

    def index_vector_postings(self, index: Any, vector: "SparseVector",
                              start: int = 0, end: int | None = None) -> int:
        """Append ``vector``'s coordinates ``[start, end)`` to the inverted index.

        One posting per coordinate, carrying the value, the strict-prefix
        norm and the vector's timestamp.  Returns the number of postings
        appended.  Backends may specialise this (the NumPy backend interns
        the vector id once and writes the four posting fields straight into
        its arrays); the default builds :class:`~repro.indexes.posting.PostingEntry`
        objects exactly like the original index-construction loops.
        """
        from repro.indexes.posting import PostingEntry

        vector_id = vector.vector_id
        timestamp = vector.timestamp
        dims = vector.dims
        values = vector.values
        stop = len(dims) if end is None else end
        for position in range(start, stop):
            index.add(dims[position], PostingEntry(
                vector_id=vector_id,
                value=values[position],
                prefix_norm=vector.prefix_norm_before(position),
                timestamp=timestamp,
            ))
        return stop - start

    def load_postings(self, index: Any,
                      postings: "Mapping[int, Iterable[PostingEntry]]") -> None:
        """Fill the fresh ``index`` with ``postings`` (dimension → entries
        in list order), as a checkpoint restore or a kernel switch does.

        The default appends entry by entry; backends may load in bulk.
        """
        for dim, entries in postings.items():
            for entry in entries:
                index.add(dim, entry)

    # -- candidate generation ------------------------------------------------
    #
    # The index drivers issue one ``scan_query_*`` call per query; each
    # backend implements the whole query's scan in one place.  The
    # reference backend runs the paper's per-term loops (bound maintenance
    # across query positions included); the NumPy backend fuses the query
    # into one pass over its posting arena.  Implementations must be
    # observationally identical: same candidates in the same order, same
    # operation counts, bit-for-bit equal accumulated scores.

    @abstractmethod
    def scan_query_batch(self, vector: "SparseVector", index: Any, *,
                         threshold: float, rs1: float,
                         maxima: Sequence[float] | None, sz1: float,
                         use_ap: bool, use_l2: bool,
                         size_filter: SizeFilterMap,
                         acc: ScoreAccumulator) -> int:
        """Batch prefix-filter candidate generation (Algorithm 3).

        Scans the query's dimensions from the highest position down,
        maintaining the remaining-score bounds ``rs1`` (AP, seeded by the
        caller with ``m̂ · x`` and decremented with ``maxima``, the
        per-position maxima of the indexed data) and ``rs2`` (ℓ₂); a
        posting list admits new candidates only while ``min(rs1, rs2) ≥ θ``,
        applies the sz1 size filter (when ``use_ap``) and the l2bound early
        pruning (when ``use_l2``).  Returns the number of posting entries
        traversed.
        """

    @abstractmethod
    def scan_query_stream(self, vector: "SparseVector", index: Any, *,
                          now: float, cutoff: float, decay: float,
                          rs1: float,
                          decayed_maxima: Sequence[float] | None,
                          sz1: float, threshold: float,
                          use_ap: bool, use_l2: bool, time_ordered: bool,
                          size_filter: SizeFilterMap,
                          acc: ScoreAccumulator) -> tuple[int, int]:
        """Streaming prefix-filter candidate generation (Algorithm 7).

        Like :meth:`scan_query_batch` with time filtering (backward
        truncation when ``time_ordered``, masked removal otherwise) and
        decayed bounds; ``decayed_maxima`` holds ``m̂^λ`` evaluated at
        ``now`` for each query position (when ``use_ap``).  Returns
        ``(entries_traversed, entries_removed)`` totals across the query's
        posting lists; both counts are *logical*: a backend may defer the
        physical removal of expired postings, but must report them exactly
        once.
        """

    @abstractmethod
    def scan_query_inv_batch(self, vector: "SparseVector", index: Any,
                             acc: ScoreAccumulator) -> int:
        """Batch INV candidate generation: exact accumulation, no filters.

        Returns the number of posting entries traversed.
        """

    @abstractmethod
    def scan_query_inv_stream(self, vector: "SparseVector", index: Any,
                              cutoff: float,
                              acc: ScoreAccumulator) -> tuple[int, int]:
        """STR-INV candidate generation with lazy time filtering.

        Accumulates over the postings with ``timestamp >= cutoff``, records
        candidate arrival times, truncates the expired heads, and returns
        ``(entries_traversed, entries_removed)`` totals.
        """

    # -- candidate verification ----------------------------------------------

    @abstractmethod
    def verify_batch(self, query: "SparseVector", candidates: CandidateSet,
                     residual: "ResidualIndex", threshold: float,
                     stats: "JoinStatistics") -> list[tuple["SparseVector", float]]:
        """Batch candidate verification (Algorithm 4).

        Applies the ``ps1``/``ds1``/``sz2`` bounds, finishes the dot product
        over the residual prefixes of the surviving candidates and returns
        ``(candidate vector, exact dot)`` for the true matches.
        """

    @abstractmethod
    def verify_stream(self, query: "SparseVector", candidates: CandidateSet,
                      residual: "ResidualIndex", threshold: float,
                      decay: float, now: float,
                      stats: "JoinStatistics") -> list["SimilarPair"]:
        """Streaming candidate verification (Algorithm 8).

        Same as :meth:`verify_batch` with the bounds and the final
        similarity damped by ``exp(-λ·Δt)``; returns the reportable
        :class:`~repro.core.results.SimilarPair` objects.
        """

    @abstractmethod
    def verify_inv_stream(self, query: "SparseVector", candidates: CandidateSet,
                          threshold: float, decay: float, now: float,
                          stats: "JoinStatistics") -> list["SimilarPair"]:
        """STR-INV candidate verification: decay + threshold on exact dots.

        The INV scan already accumulates the exact dot product, so this
        only applies the time decay (using each candidate's arrival time)
        and the threshold, counting every candidate as a full similarity.
        """

    @abstractmethod
    def dots_for(self, query: "SparseVector",
                 others: Sequence["SparseVector"]) -> list[float]:
        """Dot products of ``query`` against each vector in ``others``.

        Used by the brute-force and sliding-window baselines so that even
        the unindexed reference algorithms route through the kernel API.
        """
