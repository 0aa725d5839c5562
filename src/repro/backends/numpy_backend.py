"""NumPy-vectorised compute backend.

Posting lists live in a shared **posting arena**
(:mod:`repro.backends.arena`): one set of growable contiguous arrays —
vector-id slots, weights ``x_j``, prefix magnitudes ``‖x'_j‖`` and
timestamps ``t(x)`` — spanning *every* dimension, with a per-dimension
extent table.  The three hot loops then become array kernels:

* **candidate accumulation** — the fused ``scan_query_*`` kernels gather
  every matched dimension's live range out of the arena in one pass and
  accumulate the whole query's candidates with a handful of array
  operations, instead of one Python→NumPy round trip per query term,
* **decay and time filtering** — head truncation for time-ordered lists;
  unordered lists are filtered by a boolean *expiry mask* whose physical
  compaction is amortised (see below),
* **verification** — one fused masked pass over slot-indexed metadata
  arrays evaluates the ``ps1``/``ds1``/``sz2`` bounds for every candidate
  at once; only the survivors finish their dot product over the residual
  prefix (a vectorised gather-multiply whose final reduction stays
  sequential so the result is bit-for-bit identical to the reference
  backend).

Fused multi-term scans
----------------------
``scan_query_stream``/``scan_query_batch`` (and the INV twins) exploit
two structural facts to stay *observationally identical* to the reference
backend's per-entry loops while processing the whole query at once:

* a vector contributes at most one posting per dimension and all its
  postings carry the same timestamp, so the remaining-score admission
  ``min(rs1, rs2·e^{-λΔt}) ≥ θ`` is monotone across the scan — a
  candidate is admitted if and only if its *first* appearance passes;
* scores and the ``l2bound`` prune decisions only couple postings of the
  *same* candidate, so after a stable sort by slot the scan is replayed
  in **rounds over the appearance rank**: round ``r`` processes every
  candidate's ``r``-th posting with one gather/add/compare/scatter.
  Within a round each slot appears exactly once, and the rounds run in
  ascending rank order, so every partial sum is accumulated in exactly
  the reference order (bit-for-bit).

The number of rounds equals the largest number of query terms a single
candidate shares with the query — typically a small fraction of the
number of terms — and all per-entry work (decay, bound tails, admission)
is vectorised once over the whole gather.

Candidates never round-trip through ``dict[int, float]``: the scan kernels
accumulate into epoch-stamped dense per-slot arrays, :class:`NumpyAccumulator`
freezes them into a :class:`NumpyCandidateSet` — a ``(slots, scores)`` array
pair — and the fused verification consumes that directly.  ``(id, id, sim)``
tuples are materialised only for the pairs that survive.

Cross-query candidate state lives in dense per-vector arrays indexed by an
interned *slot* (assigned on first appearance of a vector id), stamped with
a per-query epoch so no per-query allocation or clearing is needed.  The
same slots index the verification-metadata mirrors (``pscore``, residual
statistics, timestamps) kept in sync by the ``note_vector_*`` hooks.
Memory therefore scales with the number of distinct vectors indexed, not
with the magnitude of their ids.

Amortised expiry compaction
---------------------------
Unordered posting lists (STR-L2AP after re-indexing) cannot be truncated
from the head; eagerly rewriting each list on every scan costs O(list) per
arrival.  Instead each :class:`~repro.backends.arena.ArenaPostingList`
keeps a *high-water expiry
cutoff* and a *dirty counter*: scans mask expired postings out on the fly,
report them removed exactly once (so operation counters match the eagerly
compacting reference backend), and the physical rewrite is deferred until
either the list is at least half dead or the kernel's per-query
*compaction budget* pays for an early cleanup.  A per-list minimum-live
timestamp skips the masking entirely while nothing can be expired.

Floating-point parity with the reference backend: every accumulation adds
the same IEEE-754 products in the same order (a vector contributes at most
one posting per list), so accumulated scores and reported similarities are
bitwise identical.  The only divergence is ``np.exp`` vs ``math.exp``,
which can differ in the last ulp, and it is confined to two places with
different treatments:

* **verification** — the vectorised ``np.exp`` mask is purely a *guard
  band* (``1e-12``-relative safety margin); every decision the reference
  backend takes with ``math.exp`` — the decayed verification bounds, the
  reported similarity — is re-taken with ``math.exp`` on the few
  candidates inside the band, so verification decisions and counters are
  exactly equal by construction;
* **candidate-generation scans** — the per-entry decayed admission and
  ``l2bound`` pruning still compare ``np.exp``-damped *conservative
  filter bounds* directly; a pair would have to sit within one ulp of such a bound for
  any count or output to differ, which the equivalence suite checks never
  happens on the paper's profiles.  (The whole-scan admission shortcut
  uses ``math.exp`` and is exact.)
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.backends.arena import ArenaPostingList, PostingArena
from repro.backends.arena import _MIN_CAPACITY  # noqa: F401  (test hook)
from repro.backends.base import (
    CandidateSet,
    ScoreAccumulator,
    SegmentPartial,
    SimilarityKernel,
    SizeFilterMap,
)
from repro.core.results import JoinStatistics, SimilarPair
from repro.core.vector import SparseVector
from repro.indexes.bounds import IndexingSplit, compute_indexing_split
from repro.indexes.maxvector import MaxVector
from repro.indexes.residual import ResidualEntry, ResidualIndex

__all__ = ["NumpyKernel", "ArenaPostingList", "PostingArena"]

_INITIAL_SLOTS = 64
_INITIAL_DENSE = 1024
_INF = math.inf
#: Dimensions above this threshold fall back to dict-based dot products
#: instead of growing the dense scratch vector (2**24 floats = 128 MiB).
_DENSE_DIM_LIMIT = 1 << 24
#: Scan segments at or below this length are processed by a scalar loop
#: over the same slot state: per-call ufunc dispatch overhead beats the loop
#: on short lists (the regime of short horizons / small indexes), while
#: long lists — the actual hot path — go through the vectorised kernels.
_SCALAR_SCAN_CUTOFF = 12
#: Vectors at or below this length run the pure-Python indexing-split loop.
_SCALAR_SPLIT_CUTOFF = 8
#: Bulk appends at or below this many postings take the scalar field-write
#: path; larger ones reserve all tail cells and scatter each field once.
_SCALAR_APPEND_CUTOFF = 8
#: Per-query replenishment and cap of the amortised compaction budget
#: (measured in postings rewritten).
_COMPACTION_BUDGET = 512
_COMPACTION_BUDGET_CAP = 4096
#: Tri-state outcome of the remaining-score admission test, resolved per
#: scan from the list's minimum live timestamp (``exp`` is monotone in the
#: timestamp, so one ``math.exp`` at the oldest entry decides the whole
#: list whenever the bound clears — or fails — uniformly).
_ADMIT_ALL = 1
_ADMIT_NONE = 0
_ADMIT_PER_ENTRY = -1

_EMPTY_INT = np.empty(0, dtype=np.int64)
_EMPTY_FLOAT = np.empty(0, dtype=np.float64)
#: Relative guard band for np.exp-based filtering: np.exp and math.exp can
#: differ in the last ulp, so the vectorised masks compare against
#: ``threshold * (1 - _GUARD_BAND)`` and the exact math.exp decision is
#: re-taken per candidate inside the band.
_GUARD_BAND = 1e-12


class NumpyCandidateSet(CandidateSet):
    """Candidates as parallel ``(slots, partial_scores)`` arrays.

    ``slots`` index the kernel's slot space in first-accumulation order;
    ``scores`` is a private copy, so the set stays valid while the next
    query reuses the kernel's dense score table.  Arrival timestamps are
    gathered lazily (the prefix-filter pipeline never needs them) and are
    only valid until the next candidate-generation pass.
    """

    __slots__ = ("_kernel", "slots", "scores")

    def __init__(self, kernel: "NumpyKernel", slots: np.ndarray,
                 scores: np.ndarray) -> None:
        self._kernel = kernel
        self.slots = slots
        self.scores = scores

    def __len__(self) -> int:
        return len(self.slots)

    def to_dict(self) -> dict[int, float]:
        ids = self._kernel._slot_ids[self.slots]
        return {int(vector_id): float(score)
                for vector_id, score in zip(ids.tolist(), self.scores.tolist())}

    def arrivals(self) -> dict[int, float]:
        ids = self._kernel._slot_ids[self.slots]
        arrivals = self._kernel._slot_arrival[self.slots]
        return {int(vector_id): float(arrival)
                for vector_id, arrival in zip(ids.tolist(), arrivals.tolist())}

    def above(self, threshold: float) -> list[tuple[int, float]]:
        if not len(self.slots):
            return []
        mask = self.scores >= threshold
        ids = self._kernel._slot_ids[self.slots[mask]]
        return list(zip(ids.tolist(), self.scores[mask].tolist()))


class NumpyAccumulator(ScoreAccumulator):
    """Epoch-stamped dense score table; candidates gathered at finalisation."""

    __slots__ = ("_kernel", "_epoch", "_touched", "sketch_pruned")

    def __init__(self, kernel: "NumpyKernel", epoch: int) -> None:
        self._kernel = kernel
        self._epoch = epoch
        self.sketch_pruned = 0
        #: Slot arrays appended by the scan kernels.  Each scan contributes
        #: only the slots whose accumulation *started* there, so the arrays
        #: are disjoint and their concatenation is already in
        #: first-accumulation order — reference dict insertion order.
        self._touched: list[np.ndarray] = []

    def finalize(self) -> NumpyCandidateSet:
        kernel = self._kernel
        touched = self._touched
        if not touched:
            slots = np.empty(0, dtype=np.int64)
            scores = np.empty(0, dtype=np.float64)
        else:
            stacked = touched[0] if len(touched) == 1 else np.concatenate(touched)
            # Candidates pruned after they started carry the ``-epoch`` mark.
            slots = stacked[kernel._slot_state[stacked] == self._epoch]
            # Fancy indexing copies, detaching the scores from the table —
            # then restore the all-zeros invariant the scan kernels rely on
            # (every score written this pass belongs to a touched slot).
            scores = kernel._slot_score[slots]
            kernel._slot_score[stacked] = 0.0
        return NumpyCandidateSet(kernel, slots, scores)


class NumpySizeFilter(SizeFilterMap):
    """Dense slot-indexed array of ``|x| · vm_x`` values (+inf when absent)."""

    __slots__ = ("_kernel",)

    def __init__(self, kernel: "NumpyKernel") -> None:
        self._kernel = kernel

    def set(self, vector_id: int, value: float) -> None:
        # Intern first: it may reallocate the kernel's slot arrays.
        slot = self._kernel._intern(vector_id)
        self._kernel._slot_sf[slot] = value

    def discard(self, vector_id: int) -> None:
        slot = self._kernel._slot_of.get(vector_id)
        if slot is not None:
            self._kernel._slot_sf[slot] = np.inf

    def get(self, vector_id: int) -> float | None:
        slot = self._kernel._slot_of.get(vector_id)
        if slot is None:
            return None
        value = float(self._kernel._slot_sf[slot])
        return None if value == math.inf else value

    def values_at(self, slots: np.ndarray) -> np.ndarray:
        return self._kernel._slot_sf[slots]


class _LiveGather:
    """The live postings of one query's posting lists (see ``_gather_live``).

    ``idx`` holds their arena offsets in scan order and ``timestamps``
    their arrival times (``None`` unless gathered); ``counts``/``offsets``
    delimit each list's segment inside ``idx``.  ``seg_min``/``seg_max``
    are each segment's extreme live timestamps (``±inf`` when empty) and
    ``seg_traversed``/``seg_removed`` its logical operation counts, with
    ``traversed``/``removed`` their totals.  ``drops`` and ``lazy`` are
    the deferred head truncations and lazy-expiry updates.
    """

    __slots__ = ("idx", "timestamps", "counts", "offsets", "seg_min",
                 "seg_max", "seg_traversed", "seg_removed", "traversed",
                 "removed", "drops", "lazy")

    def __init__(self, idx, timestamps, counts, offsets, seg_min, seg_max,
                 seg_traversed, seg_removed, traversed, removed, drops,
                 lazy) -> None:
        self.idx = idx
        self.timestamps = timestamps
        self.counts = counts
        self.offsets = offsets
        self.seg_min = seg_min
        self.seg_max = seg_max
        self.seg_traversed = seg_traversed
        self.seg_removed = seg_removed
        self.traversed = traversed
        self.removed = removed
        self.drops = drops
        self.lazy = lazy


class NumpyKernel(SimilarityKernel):
    """Vectorised array kernels over slot-interned candidate state."""

    name = "numpy"
    description = "vectorised contiguous-array kernels (requires numpy)"

    def __init__(self, *, arena_allocator=None) -> None:
        # ``arena_allocator`` lets a caller place the posting arena's
        # backing buffers wherever it likes — the sharded workers pass a
        # multiprocessing.shared_memory-backed allocator (see
        # repro.shard.shm); None keeps private heap arrays.
        self._arena = PostingArena(self, arena_allocator)
        self._slot_of: dict[int, int] = {}
        self._slot_ids = np.empty(_INITIAL_SLOTS, dtype=np.int64)
        self._slot_score = np.zeros(_INITIAL_SLOTS, dtype=np.float64)
        # Per-slot scan state packed into one array: ``epoch`` = candidate
        # started this query, ``-epoch`` = pruned this query, anything else
        # = untouched.  Epochs start at 1, so the zero fill is neutral.
        self._slot_state = np.zeros(_INITIAL_SLOTS, dtype=np.int64)
        self._slot_sf = np.full(_INITIAL_SLOTS, np.inf, dtype=np.float64)
        self._slot_arrival = np.zeros(_INITIAL_SLOTS, dtype=np.float64)
        # Scratch for the fused scans' first-occurrence scatter; its stale
        # values are never read (only slots written in the same pass are
        # compared), so it needs no epoch management.
        self._slot_mark = np.zeros(_INITIAL_SLOTS, dtype=np.int64)
        # Verification-metadata mirrors of the residual/Q store, maintained
        # by the note_vector_* hooks (see the module docstring).  One row
        # per slot — ``(pscore, vm_{x'}, Σx', |x'|, t(x))`` — so the fused
        # verification gathers all five fields in a single row gather.
        self._slot_meta = np.zeros((_INITIAL_SLOTS, 5), dtype=np.float64)
        self._slot_valid = np.zeros(_INITIAL_SLOTS, dtype=bool)
        self._slot_entries: dict[int, ResidualEntry] = {}
        # slot -> (residual dims, residual values, largest dim) in ascending
        # dimension order; (-1 sentinel when the residual prefix is empty).
        self._slot_residual: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}
        self._epoch = 0
        self._maintenance_budget = 0
        self._dense = np.zeros(_INITIAL_DENSE, dtype=np.float64)
        self._query_dims: np.ndarray | None = None
        self._query_vector: SparseVector | None = None
        self._dense_active = False
        # id(vector) -> [vector, dims, values, b2-prefix-or-None,
        # prefix-norms-or-None].  The strong reference to the vector pins
        # its id, so a recycled id can never alias a stale entry; the ℓ₂
        # indexing bound prefix and the prefix-norm array are filled
        # lazily (re-indexing recomputes the split of the same vector many
        # times, but both depend only on the vector).
        self._vector_arrays: dict[int, list] = {}

    # -- slot interning ------------------------------------------------------

    def _intern(self, vector_id: int) -> int:
        slot = self._slot_of.get(vector_id)
        if slot is None:
            slot = len(self._slot_of)
            if slot == len(self._slot_ids):
                self._grow_slots(slot + 1)
            self._slot_of[vector_id] = slot
            self._slot_ids[slot] = vector_id
        return slot

    def _grow_slots(self, needed: int) -> None:
        capacity = len(self._slot_ids)
        while capacity < needed:
            capacity *= 2
        for name, fill in (("_slot_ids", None), ("_slot_score", 0.0),
                           ("_slot_state", 0), ("_slot_mark", 0),
                           ("_slot_sf", np.inf), ("_slot_arrival", 0.0),
                           ("_slot_valid", False)):
            old = getattr(self, name)
            fresh = np.empty(capacity, dtype=old.dtype)
            fresh[:len(old)] = old
            if fill is not None:
                fresh[len(old):] = fill
            setattr(self, name, fresh)
        old_meta = self._slot_meta
        fresh_meta = np.zeros((capacity, 5), dtype=np.float64)
        fresh_meta[:len(old_meta)] = old_meta
        self._slot_meta = fresh_meta
        if self._sketch_scheme is not None:
            old_valid = self._slot_sig_valid
            fresh_valid = np.zeros(capacity, dtype=bool)
            fresh_valid[:len(old_valid)] = old_valid
            self._slot_sig_valid = fresh_valid
            old_bands = self._slot_bands
            fresh_bands = np.zeros((old_bands.shape[0], capacity),
                                   dtype=np.uint64)
            fresh_bands[:, :old_bands.shape[1]] = old_bands
            self._slot_bands = fresh_bands
            self._sketch_verdict = None
            self._sketch_verdict_epoch = -1

    # -- storage factories ---------------------------------------------------

    def new_posting_list(self) -> ArenaPostingList:
        return self._arena.new_list()

    def new_accumulator(self) -> NumpyAccumulator:
        self._epoch += 1
        self.begin_maintenance_cycle()
        return NumpyAccumulator(self, self._epoch)

    def begin_maintenance_cycle(self) -> None:
        """Replenish the per-query compaction budget, compacting if affordable.

        One call per query: the single-process drivers reach it through
        :meth:`new_accumulator`; the sharded workers — which never create
        accumulators — call it once per scan step.  A new cycle is a safe
        point: no scan holds gathers from the arena arrays here.
        """
        budget = self._maintenance_budget + _COMPACTION_BUDGET
        budget = min(budget, _COMPACTION_BUDGET_CAP)
        # The budget pays for early arena compaction (a mandatory one —
        # dead space exceeding live postings — is already amortised and
        # costs nothing).
        budget -= self._arena.compact_if_affordable(budget)
        self._maintenance_budget = budget

    def new_size_filter(self) -> NumpySizeFilter:
        return NumpySizeFilter(self)

    # -- candidate metadata --------------------------------------------------

    @staticmethod
    def _build_residual_arrays(entry: ResidualEntry) -> tuple[np.ndarray, np.ndarray]:
        """Residual prefix as ``(dims, values)`` arrays in ascending-dim order.

        Fills ``entry.array_cache`` as a side effect; the single source of
        the cache layout shared by the note hooks and the dot kernels.
        """
        residual = entry.residual
        dims = sorted(residual)
        cached = (np.asarray(dims, dtype=np.int64),
                  np.asarray([residual[dim] for dim in dims],
                             dtype=np.float64))
        entry.array_cache = cached
        return cached

    def _mirror_residual_arrays(self, slot: int, entry: ResidualEntry) -> None:
        if entry.residual:
            cached = self._build_residual_arrays(entry)
            self._slot_residual[slot] = (cached[0], cached[1],
                                         int(cached[0][-1]))
        else:
            entry.array_cache = None
            self._slot_residual[slot] = (_EMPTY_INT, _EMPTY_FLOAT, -1)

    def note_vector_indexed(self, entry: ResidualEntry) -> None:
        slot = self._intern(entry.vector_id)
        residual_max, residual_sum = entry._stats()
        self._slot_meta[slot] = (entry.pscore, residual_max, residual_sum,
                                 len(entry.residual), entry.timestamp)
        self._slot_valid[slot] = True
        self._slot_entries[slot] = entry
        self._mirror_residual_arrays(slot, entry)
        if self._sketch_scheme is not None:
            if entry.vector is self._sketch_query_vector:
                keys = self._sketch_query_keys
                self._slot_bands[:, slot] = self._sketch_query_bands
            else:
                _, keys = self._query_sketch_for(entry.vector)
                self._slot_bands[:, slot] = np.asarray(keys, dtype=np.uint64)
            self._slot_sig_valid[slot] = True
            buckets = self._band_buckets
            arrays = self._band_bucket_arrays
            for band, key in enumerate(keys):
                bucket = buckets[band].get(key)
                if bucket is None:
                    buckets[band][key] = [slot]
                else:
                    bucket.append(slot)
                    arrays[band].pop(key, None)
            self._bucket_entries += len(keys)
            if self._bucket_entries > 4 * len(keys) * len(self._slot_ids):
                self._rebuild_band_buckets()

    def note_vector_updated(self, entry: ResidualEntry) -> None:
        slot = self._slot_of.get(entry.vector_id)
        if slot is None or self._slot_entries.get(slot) is not entry:
            self.note_vector_indexed(entry)
            return
        residual_max, residual_sum = entry._stats()
        self._slot_meta[slot] = (entry.pscore, residual_max, residual_sum,
                                 len(entry.residual), entry.timestamp)
        # Only rebuild the residual array mirror when the residual prefix
        # itself changed (shrink_to clears the cache); a pscore-only
        # refresh — the common re-indexing outcome — keeps it.
        if entry.array_cache is None:
            self._mirror_residual_arrays(slot, entry)

    def note_vector_evicted(self, vector_id: int) -> None:
        slot = self._slot_of.get(vector_id)
        if slot is not None:
            self._slot_valid[slot] = False
            self._slot_entries.pop(slot, None)
            self._slot_residual.pop(slot, None)
            if self._sketch_scheme is not None:
                self._slot_sig_valid[slot] = False
                self._buckets_dirty = True

    # -- approximate sketch prefilter ----------------------------------------

    def configure_approx(self, config: Any) -> None:
        """Enable the sketch prefilter (vectorised banding over slot rows).

        Folded band keys (one 64-bit key per band, see
        :meth:`SignatureScheme.band_hash_keys`) live in a dense
        ``(band, slot)`` uint64 matrix next to the other slot-indexed
        mirrors, shadowed by per-band hash buckets mapping each key to
        the slots that hold it.  The first rejection check of each query
        builds one keep/reject verdict over the bucketed slots of the
        query's own keys, and every gathered posting then costs a single
        boolean lookup.  The fused scans drop rejected candidates'
        postings right after the time filter and before admission, so
        bounds resolved from the pre-sketch live extremes stay
        conservative.
        """
        super().configure_approx(config)
        capacity = len(self._slot_ids)
        self._slot_bands = np.zeros((config.bands, capacity), dtype=np.uint64)
        self._slot_sig_valid = np.zeros(capacity, dtype=bool)
        self._sketch_query_bands: np.ndarray | None = None
        self._sketch_verdict: np.ndarray | None = None
        self._sketch_verdict_epoch = -1
        # Per-band hash buckets (key -> slots): the per-query verdict only
        # touches the slots whose stored key equals the query's, instead
        # of sweeping all ``bands × capacity`` table cells.  Entries go
        # stale when a slot is reused; every lookup re-checks the bucket's
        # slots against the live table, so the buckets only ever need to
        # be a superset of the truth.
        self._band_buckets: list[dict[int, list[int]]] = [
            {} for _ in range(config.bands)]
        # Bucket slot lists converted to arrays on first lookup; an append
        # to a bucket evicts its cached array (hot near-duplicate buckets
        # are looked up by every member, so the conversion must amortise).
        self._band_bucket_arrays: list[dict[int, np.ndarray]] = [
            {} for _ in range(config.bands)]
        self._bucket_entries = 0
        # False until the first eviction: bucket entries can only go stale
        # through slot reuse, which eviction precedes, so a clean stream
        # skips the per-band re-validation gathers entirely.
        self._buckets_dirty = False

    def _install_query_sketch(self, vector: SparseVector) -> None:
        super()._install_query_sketch(vector)
        if self._sketch_query is not None:
            self._sketch_query_bands = np.asarray(self._sketch_query_keys,
                                                  dtype=np.uint64)

    def _sketch_ok_mask(self, slots: np.ndarray,
                        acc: ScoreAccumulator) -> np.ndarray | None:
        """Banding verdict per gathered posting (``None`` = all pass).

        A posting survives iff some folded band key of its slot equals the
        query's key for the same band; slots without a stored signature
        always pass, like the reference backend's per-candidate check.
        The per-slot verdict is computed once per query from the per-band
        hash buckets — only slots bucketed under one of the query's keys
        are touched, and each is re-validated against the live band table
        (bucket entries go stale when slots are reused) — then reused by
        every scan of that query.  Every rejected posting occurrence is
        counted in ``acc.sketch_pruned`` — the reference per-entry loop
        charges repeat visits of a rejected candidate the same way.
        """
        ok = self._sketch_verdict_now()[slots]
        rejected = len(ok) - int(np.count_nonzero(ok))
        if not rejected:
            return None
        acc.sketch_pruned += rejected  # type: ignore[attr-defined]
        return ok

    def _sketch_verdict_now(self) -> np.ndarray:
        """The current query's per-slot banding verdict, built lazily.

        One bucket-lookup pass per query epoch; the bucket-based build is
        the *specification* of the verdict — the compiled backend reuses
        it verbatim and only compiles the per-posting application, so
        both tiers reject the exact same slots in every regime
        (including stale-bucket revalidation after slot reuse).
        """
        if self._sketch_verdict_epoch != self._epoch:
            table = self._slot_bands
            verdict = ~self._slot_sig_valid
            buckets = self._band_buckets
            arrays = self._band_bucket_arrays
            dirty = self._buckets_dirty
            for band, key in enumerate(self._sketch_query_keys):
                cached = arrays[band]
                candidates = cached.get(key)
                if candidates is None:
                    bucket = buckets[band].get(key)
                    if not bucket:
                        continue
                    candidates = np.asarray(bucket, dtype=np.int64)
                    cached[key] = candidates
                if dirty:
                    row = table[band]
                    candidates = candidates[
                        row[candidates] == np.uint64(key)]
                verdict[candidates] = True
            self._sketch_verdict = verdict
            self._sketch_verdict_epoch = self._epoch
        return self._sketch_verdict

    def _rebuild_band_buckets(self) -> None:
        """Compact the band buckets back to the live slots.

        Long streams with eviction churn accumulate stale bucket entries
        (slot reuse leaves the old ``key -> slot`` rows behind); once the
        entry count exceeds a small multiple of the live table the
        buckets are rebuilt from the table itself, keeping lookups and
        memory bounded regardless of stream length.
        """
        table = self._slot_bands
        valid = np.nonzero(self._slot_sig_valid)[0].tolist()
        buckets: list[dict[int, list[int]]] = [
            {} for _ in range(table.shape[0])]
        for band, bucket in enumerate(buckets):
            row = table[band]
            for slot in valid:
                key = int(row[slot])
                entry = bucket.get(key)
                if entry is None:
                    bucket[key] = [slot]
                else:
                    entry.append(slot)
        self._band_buckets = buckets
        self._band_bucket_arrays = [{} for _ in range(table.shape[0])]
        self._bucket_entries = len(valid) * len(buckets)
        self._buckets_dirty = False

    def _sketch_drop(self, idx: np.ndarray, counts: np.ndarray,
                     offsets: np.ndarray, acc: ScoreAccumulator,
                     timestamps: np.ndarray | None = None,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray | None]:
        """Drop gathered postings of sketch-rejected candidates.

        Returns ``(idx, counts, offsets, timestamps)`` with the per-segment
        counts and running offsets recomputed via cumulative-sum
        differences (``np.add.reduceat`` misreads empty segments).
        """
        ok = self._sketch_ok_mask(self._arena.slots[idx], acc)
        if ok is None:
            return idx, counts, offsets, timestamps
        idx = idx[ok]
        if timestamps is not None:
            timestamps = timestamps[ok]
        kept = np.empty(len(ok) + 1, dtype=np.int64)
        kept[0] = 0
        np.cumsum(ok, out=kept[1:])
        counts = kept[offsets[1:]] - kept[offsets[:-1]]
        offsets = np.empty(len(counts) + 1, dtype=np.int64)
        offsets[0] = 0
        np.cumsum(counts, out=offsets[1:])
        return idx, counts, offsets, timestamps

    # -- index construction --------------------------------------------------

    def index_vector_postings(self, index: Any, vector: SparseVector,
                              start: int = 0, end: int | None = None) -> int:
        """Bulk append: intern the id once, scatter the fields in one pass.

        Every touched dimension reserves its tail cell first (each list is
        touched at most once — vector dimensions are unique — so chunk
        relocations cannot move already-reserved cells), then the four
        posting fields are written with one vectorised scatter per array.
        """
        slot = self._intern(vector.vector_id)
        timestamp = vector.timestamp
        dims = vector.dims
        stop = len(dims) if end is None else end
        count = stop - start
        if count <= 0:
            return 0
        list_for = index.list_for
        if count <= _SCALAR_APPEND_CUTOFF:
            values = vector.values
            prefix_norms = vector._prefix_norms
            for position in range(start, stop):
                list_for(dims[position])._append_fast(
                    slot, values[position], prefix_norms[position], timestamp)
            index.note_added(count)
            return count
        arena = self._arena
        arena.maybe_compact()
        cached = self._vector_entry(vector)
        values_arr = cached[2]
        prefix_arr = cached[4]
        if prefix_arr is None:
            prefix_arr = np.asarray(vector._prefix_norms, dtype=np.float64)
            cached[4] = prefix_arr
        positions = np.empty(count, dtype=np.int64)
        for offset, position in enumerate(range(start, stop)):
            plist = list_for(dims[position])
            positions[offset] = plist._reserve_tail()
            plist.note_appended(1, timestamp, timestamp)
        arena.slots[positions] = slot
        arena.values[positions] = values_arr[start:stop]
        arena.pnorms[positions] = prefix_arr[start:stop]
        arena.ts[positions] = timestamp
        index.note_added(count)
        return count

    def indexing_split(self, vector: SparseVector, threshold: float, *,
                       max_vector: MaxVector | None, use_ap: bool,
                       use_l2: bool, limit: int | None = None) -> IndexingSplit:
        end = len(vector) if limit is None else min(limit, len(vector))
        if end <= _SCALAR_SPLIT_CUTOFF:
            return compute_indexing_split(vector, threshold,
                                          max_vector=max_vector, use_ap=use_ap,
                                          use_l2=use_l2, limit=limit)
        if not use_ap and not use_l2:
            raise ValueError("at least one bound family must be enabled")
        if use_ap and max_vector is None:
            raise ValueError("the AP b1 bound requires the max vector m")
        entry = self._vector_entry(vector)
        # np.cumsum accumulates sequentially, so every partial sum is
        # bitwise identical to the reference backend's running loop.
        if use_ap:
            # Gather straight from the MaxVector's backing dict: this loop
            # runs once per (re-)indexed vector and the method-call wrapper
            # around dict.get is measurable at that rate.
            mvalues = max_vector._values  # type: ignore[union-attr]
            mget = mvalues.get
            maxima = np.asarray([mget(dim, 0.0) for dim in vector.dims[:end]],
                                dtype=np.float64)
            b1 = (entry[2][:end] * maxima).cumsum()
        if use_l2:
            b2_full = entry[3]
            if b2_full is None:
                values = entry[2]
                b2_full = np.sqrt((values * values).cumsum())
                entry[3] = b2_full
            b2 = b2_full[:end]
        if use_ap and use_l2:
            bound = np.minimum(b1, b2)
        else:
            bound = b1 if use_ap else b2
        hits = bound >= threshold
        position = int(np.argmax(hits))
        if not hits[position]:
            return IndexingSplit(boundary=end, pscore=float(bound[-1]))
        if position == 0:
            return IndexingSplit(boundary=0, pscore=0.0)
        before = position - 1
        b1_bound = float(b1[before]) if use_ap else _INF
        b2_bound = float(b2[before]) if use_l2 else _INF
        return IndexingSplit(boundary=position,
                             pscore=min(b1_bound, b2_bound))

    # -- fused whole-query scans ---------------------------------------------

    @staticmethod
    def _resolve_admission(rs1: float, rs2: float, threshold: float,
                           decay: float, now: float, min_ts: float,
                           max_ts: float) -> int:
        """Resolve the remaining-score admission for a whole scanned region.

        ``exp(-λ·(now-t))`` is monotone in ``t``, so evaluating the decayed
        bound at the region's extreme timestamps decides every entry
        whenever it clears uniformly (oldest entry passes → all pass) or
        fails uniformly (newest entry fails → all fail, as does
        ``rs1 < θ``).  Falls back to the per-entry test only when the
        decayed bound straddles the threshold inside the region.  Exact:
        the same ``math.exp`` the reference backend would apply, at
        timestamps bracketing every scanned entry's.
        """
        if rs1 < threshold:
            return _ADMIT_NONE
        exponent = -decay * (now - min_ts)
        if exponent > 700.0:
            exponent = 700.0  # conservative clamp; avoids math.exp overflow
        if rs2 * math.exp(exponent) >= threshold:
            return _ADMIT_ALL
        exponent = -decay * (now - max_ts)
        if exponent <= 700.0 and rs2 * math.exp(exponent) < threshold:
            return _ADMIT_NONE
        return _ADMIT_PER_ENTRY

    def _maybe_compact(self, plist: Any, alive_mask: np.ndarray) -> None:
        """Amortised physical compaction of a lazily expired list.

        Mandatory once the list is at least half dead (classic amortised
        O(1) per expiry); the per-query maintenance budget additionally
        pays for early cleanup of lightly dirty lists.
        """
        dirty = plist._dirty
        if dirty == 0:
            return
        size = plist._size
        if dirty * 2 >= size:
            plist.compress(alive_mask)
        elif size <= self._maintenance_budget:
            self._maintenance_budget -= size
            plist.compress(alive_mask)

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
        rs2 = math.sqrt(rst) if use_l2 else _INF
        seg_lists: list[Any] = []
        seg_values: list[float] = []
        seg_qpns: list[float] = []
        seg_admit: list[bool] = []
        for position in range(len(dims) - 1, -1, -1):
            value = values[position]
            plist = index.get(dims[position])
            if plist is not None and plist.physical_size:
                seg_lists.append(plist)
                seg_values.append(value)
                seg_qpns.append(vector.prefix_norm_before(position))
                seg_admit.append(min(rs1, rs2) >= threshold)
            if use_ap:
                rs1 -= value * maxima[position]  # type: ignore[index]
            rst -= value * value
            if use_l2:
                rs2 = math.sqrt(max(rst, 0.0))
        if not seg_lists:
            return 0
        arena = self._arena
        idx, lengths, offsets = self._gather_indices(seg_lists, reverse=False)
        total = len(idx)
        if self._sketch_query is not None and total:
            # Before the admission shortcut: the reference per-entry check
            # runs ahead of admission, so the reject counters must too.
            idx, lengths, offsets, _ = self._sketch_drop(idx, lengths,
                                                         offsets, acc)
            if bool((lengths == 0).any()) and len(idx):
                # Keep the hoisted leading run long: segments the sketch
                # emptied would otherwise split it via _ADMIT_NONE.
                keep = (lengths > 0).tolist()
                seg_values = [v for v, k in zip(seg_values, keep) if k]
                seg_qpns = [v for v, k in zip(seg_qpns, keep) if k]
                seg_admit = [v for v, k in zip(seg_admit, keep) if k]
                lengths = lengths[lengths > 0]
                offsets = np.empty(len(lengths) + 1, dtype=np.int64)
                offsets[0] = 0
                np.cumsum(lengths, out=offsets[1:])
        if not any(seg_admit) or not len(idx):
            # No segment admits newcomers and (within one fused pass)
            # nothing can have started earlier, so no candidate can form.
            return total
        tri = [_ADMIT_ALL if admitted else _ADMIT_NONE
               for admitted in seg_admit]
        leading = len(tri)
        for j, outcome in enumerate(tri):
            if outcome == _ADMIT_NONE:
                leading = j
                break
        hoisted = int(offsets[leading])
        slots = arena.slots[idx]
        head = idx[:hoisted]
        contrib = np.repeat(np.asarray(seg_values[:leading]),
                            lengths[:leading])
        contrib *= arena.values[head]
        if use_l2:
            tails = np.repeat(np.asarray(seg_qpns[:leading]),
                              lengths[:leading])
            tails *= arena.pnorms[head]
        else:
            tails = None
        self._fused_prefix_segments(arena, idx, slots, contrib, tails, None,
                                    tri, seg_values, seg_qpns, [], [],
                                    offsets, hoisted, 0.0, 0.0, sz1, use_ap,
                                    use_l2, threshold, acc)
        return total

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
        rs2 = math.sqrt(rst) if use_l2 else _INF
        index_get = index.get
        seg_lists: list[Any] = []
        seg_values: list[float] = []
        seg_qpns: list[float] = []
        seg_rs1: list[float] = []
        seg_rs2: list[float] = []
        for position in range(len(dims) - 1, -1, -1):
            value = values[position]
            plist = index_get(dims[position])
            if plist is not None and len(plist):
                seg_lists.append(plist)
                seg_values.append(value)
                seg_qpns.append(prefix_norms[position])
                seg_rs1.append(rs1)
                seg_rs2.append(rs2)
            if use_ap:
                rs1 -= value * decayed_maxima[position]  # type: ignore[index]
            rst -= value * value
            if use_l2:
                rs2 = math.sqrt(max(rst, 0.0))
        if not seg_lists:
            return 0, 0
        arena = self._arena
        # -- time filtering over the whole gather -------------------------
        # The bound loop above is mirrored by the sharded coordinator's
        # _segment_bounds; the filter itself is shared with the shard
        # workers' gather_scan_partials.
        live = self._gather_live(seg_lists, cutoff, time_ordered,
                                 with_timestamps=False)
        traversed, removed = live.traversed, live.removed
        idx = live.idx
        timestamps = live.timestamps
        alive_counts = live.counts
        alive_offsets = live.offsets
        segments = len(seg_lists)
        try:
            if len(idx) == 0:
                return traversed, removed
            scan_min, scan_max = live.seg_min, live.seg_max
            if self._sketch_query is not None:
                # Drop postings of sketch-rejected candidates between the
                # time filter and admission.  The segment extremes stay the
                # pre-sketch ones: the admission bound is monotone in
                # the timestamp, so extremes over a superset of the live
                # postings resolve the tri-state conservatively.  The
                # deferred physical bookkeeping in ``finally`` never sees
                # these drops — sketch rejection is per-query, not expiry.
                idx, alive_counts, alive_offsets, timestamps = (
                    self._sketch_drop(idx, alive_counts, alive_offsets,
                                      acc, timestamps))
                if len(idx) == 0:
                    return traversed, removed
                # Compress away segments the sketch emptied: a zero-count
                # segment would resolve to _ADMIT_NONE and cut the hoisted
                # leading run short, pushing the surviving postings onto
                # the slow per-segment scalar path.  The filter's own
                # per-segment state stays untouched for the deferred
                # bookkeeping in ``finally``.
                if bool((alive_counts == 0).any()):
                    keep = (alive_counts > 0).tolist()
                    seg_values = [v for v, k in zip(seg_values, keep) if k]
                    seg_qpns = [v for v, k in zip(seg_qpns, keep) if k]
                    seg_rs1 = [v for v, k in zip(seg_rs1, keep) if k]
                    seg_rs2 = [v for v, k in zip(seg_rs2, keep) if k]
                    scan_min = [v for v, k in zip(scan_min, keep) if k]
                    scan_max = [v for v, k in zip(scan_max, keep) if k]
                    alive_counts = alive_counts[alive_counts > 0]
                    segments = len(seg_values)
                    alive_offsets = np.empty(segments + 1, dtype=np.int64)
                    alive_offsets[0] = 0
                    np.cumsum(alive_counts, out=alive_offsets[1:])
            # -- admission ------------------------------------------------
            # Per-segment tri-state via exact math.exp at the live extremes
            # (the bound is monotone in the timestamp); only segments the
            # bound straddles pay a per-entry evaluation.
            resolve = self._resolve_admission
            tri = [resolve(seg_rs1[j], seg_rs2[j], threshold, decay, now,
                           scan_min[j], scan_max[j])
                   if alive_counts[j] else _ADMIT_NONE
                   for j in range(segments)]
            if all(outcome == _ADMIT_NONE for outcome in tri):
                return traversed, removed
            # Hoist the contributions, decay factors and l2bound tails
            # over the leading run of segments that can admit newcomers;
            # the _ADMIT_NONE tail of the scan is gathered lazily, per
            # segment, for the few already-started candidates only.
            leading = segments
            for j, outcome in enumerate(tri):
                if outcome == _ADMIT_NONE:
                    leading = j
                    break
            hoisted = int(alive_offsets[leading])
            slots = arena.slots[idx]
            head = idx[:hoisted]
            contrib = np.repeat(np.asarray(seg_values[:leading]),
                                alive_counts[:leading])
            contrib *= arena.values[head]
            decay_factors = None
            if use_l2 or _ADMIT_PER_ENTRY in tri[:leading]:
                head_ts = (timestamps[:hoisted] if timestamps is not None
                           else arena.ts[head])
                decay_factors = np.exp(-decay * (now - head_ts))
            if use_l2:
                tails = np.repeat(np.asarray(seg_qpns[:leading]),
                                  alive_counts[:leading])
                tails *= arena.pnorms[head]
                tails *= decay_factors
            else:
                tails = None
            self._fused_prefix_segments(arena, idx, slots, contrib, tails,
                                        decay_factors, tri, seg_values,
                                        seg_qpns, seg_rs1, seg_rs2,
                                        alive_offsets, hoisted, decay, now,
                                        sz1, use_ap, use_l2, threshold, acc)
            return traversed, removed
        finally:
            self._settle_expiry(live)

    def scan_query_inv_batch(self, vector: SparseVector, index: Any,
                             acc: ScoreAccumulator) -> int:
        seg_lists = []
        seg_values = []
        for dim, value in vector:
            plist = index.get(dim)
            if plist is not None and plist.physical_size:
                seg_lists.append(plist)
                seg_values.append(value)
        if not seg_lists:
            return 0
        arena = self._arena
        idx, lengths, _ = self._gather_indices(seg_lists, reverse=False)
        slots = arena.slots[idx]
        contrib = np.repeat(np.asarray(seg_values), lengths)
        contrib *= arena.values[idx]
        self._fused_inv_pass(slots, contrib, None, acc)
        return len(idx)

    def scan_query_inv_stream(self, vector: SparseVector, index: Any,
                              cutoff: float,
                              acc: ScoreAccumulator) -> tuple[int, int]:
        seg_lists = []
        seg_values = []
        for dim, value in vector:
            plist = index.get(dim)
            if plist is not None and plist.physical_size:
                seg_lists.append(plist)
                seg_values.append(value)
        if not seg_lists:
            return 0, 0
        arena = self._arena
        live = self._gather_live(seg_lists, cutoff, True, with_timestamps=True)
        try:
            idx = live.idx
            if len(idx):
                # Newest first, the reference backward scan's insertion
                # order.
                slots = arena.slots[idx]
                contrib = np.repeat(np.asarray(seg_values), live.counts)
                contrib *= arena.values[idx]
                self._fused_inv_pass(slots, contrib, live.timestamps, acc)
            return live.traversed, live.removed
        finally:
            self._settle_expiry(live)

    def _gather_indices(self, seg_lists: list,
                        reverse: bool) -> tuple[np.ndarray, np.ndarray,
                                                np.ndarray]:
        """Arena offsets of every segment's physical region, concatenated.

        Returns ``(idx, lengths, offsets)`` where ``idx`` enumerates each
        list's region in scan order (newest first when ``reverse``),
        ``lengths`` the per-segment physical sizes and ``offsets`` their
        running starts inside ``idx`` (length ``segments + 1``).
        """
        segments = len(seg_lists)
        starts = np.empty(segments, dtype=np.int64)
        lengths = np.empty(segments, dtype=np.int64)
        for j, plist in enumerate(seg_lists):
            starts[j] = plist._start + plist._head
            lengths[j] = plist._size
        offsets = np.empty(segments + 1, dtype=np.int64)
        offsets[0] = 0
        np.cumsum(lengths, out=offsets[1:])
        total = int(offsets[-1])
        within = np.arange(total, dtype=np.int64)
        within -= np.repeat(offsets[:-1], lengths)
        if reverse:
            idx = np.repeat(starts + lengths - 1, lengths)
            idx -= within
        else:
            idx = np.repeat(starts, lengths)
            idx += within
        return idx, lengths, offsets

    # -- the time filter -----------------------------------------------------
    #
    # One filter phase serves every streaming gather: the single-process
    # scans (scan_query_stream, scan_query_inv_stream) and the shard
    # workers' partial gathers (gather_scan_partials, gather_inv_partials),
    # so the sharded run's logical counts and list states cannot drift
    # from the single-process run's.

    def _gather_live(self, seg_lists: list, cutoff: float,
                     time_ordered: bool, *,
                     with_timestamps: bool) -> _LiveGather:
        """Gather the live postings of ``seg_lists`` in scan order.

        Expired postings are masked out of the whole-query gather and
        reported exactly as the reference backend's per-list loops report
        them.  Their physical removal — head truncation, lazy-expiry state,
        amortised compaction — is only recorded: every arena read from
        the returned ``idx`` must happen before :meth:`_settle_expiry`
        applies it.  ``timestamps`` is gathered when ``with_timestamps``
        or whenever the mask needs it, else left ``None``.
        """
        arena = self._arena
        idx, lengths, offsets = self._gather_indices(seg_lists,
                                                     reverse=time_ordered)
        segments = len(seg_lists)
        if not any(plist._dirty or plist._min_ts < cutoff
                   for plist in seg_lists):
            # Nothing can be expired: every physical posting is live.
            return _LiveGather(
                idx, arena.ts[idx] if with_timestamps else None, lengths,
                offsets, [plist._min_ts for plist in seg_lists],
                [plist._max_ts for plist in seg_lists], lengths.tolist(),
                [0] * segments, len(idx), 0, [], [])
        timestamps = arena.ts[idx]
        cuts = [max(cutoff, plist._expired_cutoff) if plist._dirty
                else cutoff for plist in seg_lists]
        alive = timestamps >= np.repeat(np.asarray(cuts), lengths)
        alive_counts = np.add.reduceat(alive, offsets[:-1])
        seg_min = [_INF] * segments
        seg_max = [-_INF] * segments
        seg_traversed = [0] * segments
        seg_removed = [0] * segments
        drops: list[tuple[Any, int]] = []
        lazy: list[tuple[Any, float, int, np.ndarray, int]] = []
        for j, (plist, length, live, lo) in enumerate(zip(
                seg_lists, lengths.tolist(), alive_counts.tolist(),
                offsets.tolist())):
            if time_ordered:
                # Ordered lists: within-list timestamps are sorted, so the
                # live postings form a prefix of the (newest-first)
                # segment; the reference counts only them as traversed
                # and truncates the expired head.
                seg_traversed[j] = live
                seg_removed[j] = length - live
                if live:
                    seg_min[j] = float(timestamps[lo + live - 1])
                    seg_max[j] = float(timestamps[lo])
                if length > live:
                    drops.append((plist, length - live))
            else:
                # Unordered lists: the reference traverses every
                # physically present posting it has not yet removed;
                # lazily expired (dirty) ones were reported before.
                seg_traversed[j] = length - plist._dirty
                seg_removed[j] = seg_traversed[j] - live
                if live == length:
                    seg_min[j] = plist._min_ts
                    seg_max[j] = plist._max_ts
                elif live:
                    live_ts = timestamps[lo:lo + length][alive[lo:lo + length]]
                    seg_min[j] = float(live_ts.min())
                    seg_max[j] = float(live_ts.max())
                if live < length:
                    lazy.append((plist, cuts[j], live,
                                 alive[lo:lo + length], j))
        if bool((alive_counts != lengths).any()):
            idx = idx[alive]
            timestamps = timestamps[alive]
        alive_offsets = np.empty(segments + 1, dtype=np.int64)
        alive_offsets[0] = 0
        np.cumsum(alive_counts, out=alive_offsets[1:])
        return _LiveGather(idx, timestamps, alive_counts, alive_offsets,
                           seg_min, seg_max, seg_traversed, seg_removed,
                           sum(seg_traversed), sum(seg_removed), drops, lazy)

    def _settle_expiry(self, live: _LiveGather) -> None:
        """Apply the physical bookkeeping :meth:`_gather_live` deferred.

        Truncations and compactions may rewrite chunks in place or replace
        the arena arrays, so they run only after every gather is done.
        """
        for plist, count in live.drops:
            plist.drop_oldest(count)
        for plist, cut_eff, alive, alive_mask, j in live.lazy:
            plist.note_lazy_expiry(cut_eff, plist.physical_size - alive,
                                   live.seg_min[j], live.seg_max[j])
            if len(alive_mask) != plist.physical_size:
                # An earlier list's compress triggered a whole-arena
                # compaction, which already dropped this list's previously
                # dirty postings and shrank its region; rebuild the mask
                # over the surviving postings (the live count is
                # unaffected — only already-reported dirty entries were
                # removed).
                lo, hi = plist.region
                alive_mask = self._arena.ts[lo:hi] >= cut_eff
            self._maybe_compact(plist, alive_mask)

    # -- partial accumulation (sharded candidate generation) -----------------
    #
    # The worker half (gather_*_partials) runs the streaming scans' shared
    # time filter (_gather_live) — everything up to but excluding global
    # admission — and precomputes the per-posting products so the
    # coordinator never touches this arena.  The coordinator half (apply_*_partials) replays the
    # per-segment admission/pruning/accumulation sequence over the merged
    # partials through the *same* _fused_prefix_segments/_fused_inv_pass
    # code the single-process kernel uses, with every segment pre-gathered
    # (hoisted == total).  Both halves are elementwise identical to the
    # single-process fused pass, so scores, prune marks, candidate order
    # and operation counts stay bitwise equal regardless of how dimensions
    # are split across workers (tests/test_shard.py pins this down).

    def gather_scan_partials(self, segments: Sequence[tuple[int, float, float, Any]],
                             *, now: float, cutoff: float, decay: float,
                             use_l2: bool, time_ordered: bool,
                             ) -> tuple[list[SegmentPartial], int, int]:
        """Gather streaming prefix-scan partials for ``segments``.

        ``segments`` holds ``(position, value, query_prefix_norm,
        posting_list)`` for the query terms owned by this worker, in scan
        order (descending position) and restricted to non-empty lists.
        Returns ``(partials, entries_traversed, entries_removed)``.
        """
        if not segments:
            return [], 0, 0
        arena = self._arena
        live = self._gather_live([segment[3] for segment in segments],
                                 cutoff, time_ordered, with_timestamps=True)
        try:
            # Per-posting products over the whole gather (fancy-index reads
            # copy, so the partials stay valid across the deferred physical
            # bookkeeping and across future arena mutation).
            idx = live.idx
            counts = live.counts
            slots = arena.slots[idx]
            contrib = np.repeat(np.asarray([segment[1] for segment in segments]),
                                counts)
            contrib *= arena.values[idx]
            decay_factors = np.exp(-decay * (now - live.timestamps))
            if use_l2:
                tails = np.repeat(np.asarray([segment[2] for segment in segments]),
                                  counts)
                tails *= arena.pnorms[idx]
                tails *= decay_factors
            else:
                tails = None
            bounds = live.offsets.tolist()
            partials: list[SegmentPartial] = []
            for j, (position, value, query_prefix_norm, _plist) in enumerate(segments):
                lo, hi = bounds[j], bounds[j + 1]
                partials.append(SegmentPartial(
                    position=position, value=value,
                    query_prefix_norm=query_prefix_norm,
                    slots=slots[lo:hi], contrib=contrib[lo:hi],
                    tails=tails[lo:hi] if use_l2 else None,
                    decay_factors=decay_factors[lo:hi],
                    min_ts=live.seg_min[j], max_ts=live.seg_max[j],
                    traversed=live.seg_traversed[j],
                    removed=live.seg_removed[j],
                ))
            return partials, live.traversed, live.removed
        finally:
            self._settle_expiry(live)

    def gather_inv_partials(self, segments: Sequence[tuple[int, float, Any]],
                            *, cutoff: float,
                            ) -> tuple[list[SegmentPartial], int, int]:
        """Gather STR-INV scan partials (newest-first, lazy head truncation).

        ``segments`` holds ``(position, value, posting_list)`` in query
        order for the non-empty lists this worker owns.  Returns
        ``(partials, entries_traversed, entries_removed)``.
        """
        if not segments:
            return [], 0, 0
        arena = self._arena
        live = self._gather_live([segment[2] for segment in segments],
                                 cutoff, True, with_timestamps=True)
        try:
            idx = live.idx
            slots = arena.slots[idx]
            contrib = np.repeat(np.asarray([segment[1] for segment in segments]),
                                live.counts)
            contrib *= arena.values[idx]
            timestamps = live.timestamps
            bounds = live.offsets.tolist()
            partials: list[SegmentPartial] = []
            for j, (position, value, _plist) in enumerate(segments):
                lo, hi = bounds[j], bounds[j + 1]
                partials.append(SegmentPartial(
                    position=position, value=value, query_prefix_norm=0.0,
                    slots=slots[lo:hi], contrib=contrib[lo:hi],
                    timestamps=timestamps[lo:hi],
                    min_ts=live.seg_min[j], max_ts=live.seg_max[j],
                    traversed=live.seg_traversed[j],
                    removed=live.seg_removed[j],
                ))
            return partials, live.traversed, live.removed
        finally:
            self._settle_expiry(live)

    @staticmethod
    def _concat_partials(arrays: list[np.ndarray]) -> np.ndarray:
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    def apply_scan_partials(self, partials: Sequence[SegmentPartial],
                            seg_bounds: Sequence[tuple[float, float]], *,
                            sz1: float, threshold: float, decay: float,
                            now: float, use_ap: bool, use_l2: bool,
                            acc: ScoreAccumulator) -> None:
        """Replay the global admission sequence over merged scan partials.

        ``partials`` must be in global scan order (descending query
        position) with ``seg_bounds[j] = (rs1, rs2)`` holding the
        remaining-score bounds at each segment's position.  Runs the exact
        per-segment pass of the fused single-process kernel — same
        tri-state admission (``math.exp`` at the live extremes), same
        masks, same accumulation order — over the pre-gathered arrays.
        """
        resolve = self._resolve_admission
        tri = [resolve(rs1, rs2, threshold, decay, now, partial.min_ts,
                       partial.max_ts) if len(partial.slots) else _ADMIT_NONE
               for partial, (rs1, rs2) in zip(partials, seg_bounds)]
        if all(outcome == _ADMIT_NONE for outcome in tri):
            # Within one pass nothing can have started earlier, so no
            # candidate can form (the fused kernel's early exit).
            return
        nseg = len(partials)
        counts = np.asarray([len(partial.slots) for partial in partials],
                            dtype=np.int64)
        offsets = np.empty(nseg + 1, dtype=np.int64)
        offsets[0] = 0
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        if total == 0:
            return
        slots = self._concat_partials([partial.slots for partial in partials])
        contrib = self._concat_partials([partial.contrib for partial in partials])
        decay_factors = (self._concat_partials(
            [partial.decay_factors for partial in partials])
            if partials[0].decay_factors is not None else None)
        tails = (self._concat_partials([partial.tails for partial in partials])
                 if use_l2 else None)
        self._fused_prefix_segments(
            self._arena, None, slots, contrib, tails, decay_factors, tri,
            [partial.value for partial in partials],
            [partial.query_prefix_norm for partial in partials],
            [bound[0] for bound in seg_bounds],
            [bound[1] for bound in seg_bounds],
            offsets, total, decay, now, sz1, use_ap, use_l2, threshold, acc)

    def apply_inv_partials(self, partials: Sequence[SegmentPartial],
                           acc: ScoreAccumulator) -> None:
        """Replay the INV accumulation over merged scan partials.

        ``partials`` must be in query order; the concatenated gather feeds
        the same sequential ``np.add.at`` pass as the single-process
        kernel, so accumulation order and arrival timestamps are identical.
        """
        if not partials:
            return
        slots = self._concat_partials([partial.slots for partial in partials])
        if not len(slots):
            return
        contrib = self._concat_partials([partial.contrib for partial in partials])
        timestamps = self._concat_partials(
            [partial.timestamps for partial in partials])
        self._fused_inv_pass(slots, contrib, timestamps, acc)

    def _fused_prefix_segments(self, arena: PostingArena, idx: np.ndarray,
                               slots: np.ndarray, contrib: np.ndarray | None,
                               tails: np.ndarray | None,
                               decay_factors: np.ndarray | None,
                               tri: list[int], seg_values: list[float],
                               seg_qpns: list[float], seg_rs1: list[float],
                               seg_rs2: list[float], offsets: np.ndarray,
                               hoisted: int, decay: float, now: float,
                               sz1: float, use_ap: bool, use_l2: bool,
                               threshold: float,
                               acc: NumpyAccumulator) -> None:
        """Replay the per-segment scans over the hoisted whole-query gather.

        Entries of every segment sit back to back (in scan order) behind
        ``idx``/``slots``; contributions ``x_j·y_j``, decayed l2bound
        tails and decay factors are precomputed once over the first
        ``hoisted`` entries — the leading run of segments that can admit
        newcomers.  Segments past that run (``_ADMIT_NONE``, the common
        tail of the scan once the remaining score drops below θ) only
        touch already-started candidates, so their values/tails are
        gathered lazily for just those few entries.  Small segments take
        a scalar loop over the hoisted slices — the ufunc-dispatch
        overhead of a dozen array ops dwarfs a dozen Python iterations.

        Decision-for-decision this is the reference backend's per-term
        scan sequence: same admissions, same accumulation order, same
        prunes.  What the fusion removes is the per-term Python driver,
        and the per-segment gathers, products and ``exp`` calls.
        """
        epoch = self._epoch
        state = self._slot_state
        scores = self._slot_score
        sf = self._slot_sf
        touched = acc._touched
        for j, admit in enumerate(tri):
            lo, hi = int(offsets[j]), int(offsets[j + 1])
            count = hi - lo
            if count == 0:
                continue
            seg_slots = slots[lo:hi]
            if lo >= hoisted:
                # Lazy segment (normally _ADMIT_NONE): compress to the
                # started candidates before gathering anything heavy.
                marks = state[seg_slots]
                started = marks == epoch
                if admit == _ADMIT_NONE:
                    index = np.nonzero(started)[0]
                    if not len(index):
                        continue
                    sub_idx = idx[lo:hi][index]
                    sub_slots = seg_slots[index]
                    accumulated = scores[sub_slots]
                    accumulated = accumulated + seg_values[j] * arena.values[sub_idx]
                    if use_l2:
                        sub_tails = seg_qpns[j] * arena.pnorms[sub_idx]
                        sub_tails *= np.exp(-decay * (now - arena.ts[sub_idx]))
                        keep = (accumulated + sub_tails) >= threshold
                        pruned_slots = sub_slots[~keep]
                        if len(pruned_slots):
                            state[pruned_slots] = -epoch
                        kept_slots = sub_slots[keep]
                        if len(kept_slots):
                            scores[kept_slots] = accumulated[keep]
                    else:
                        scores[sub_slots] = accumulated
                    continue
                # Rare: an admitting segment after the hoisted run (the
                # ℓ₂ remaining-score bound is not strictly monotone in
                # the per-segment timestamp extremes).  Gather it now and
                # fall through to the shared processing below.
                seg_idx = idx[lo:hi]
                seg_contrib = seg_values[j] * arena.values[seg_idx]
                if use_l2 or admit == _ADMIT_PER_ENTRY:
                    seg_df = np.exp(-decay * (now - arena.ts[seg_idx]))
                else:
                    seg_df = None
                if use_l2:
                    seg_tails = seg_qpns[j] * arena.pnorms[seg_idx]
                    seg_tails *= seg_df
                else:
                    seg_tails = None
            else:
                seg_contrib = contrib[lo:hi]
                seg_tails = tails[lo:hi] if use_l2 else None
                seg_df = decay_factors[lo:hi] if decay_factors is not None else None
                if count <= _SCALAR_SCAN_CUTOFF:
                    self._scan_segment_scalar(
                        seg_slots.tolist(), seg_contrib.tolist(),
                        seg_tails.tolist() if use_l2 else None,
                        seg_df.tolist() if admit == _ADMIT_PER_ENTRY else None,
                        admit, seg_rs1[j] if seg_rs1 else 0.0,
                        seg_rs2[j] if seg_rs2 else 0.0, sz1, use_ap, use_l2,
                        threshold, acc)
                    continue
                marks = state[seg_slots]
                started = marks == epoch
                if admit == _ADMIT_NONE:
                    index = np.nonzero(started)[0]
                    if not len(index):
                        continue
                    sub_slots = seg_slots[index]
                    accumulated = scores[sub_slots] + seg_contrib[index]
                    if use_l2:
                        keep = (accumulated + seg_tails[index]) >= threshold
                        pruned_slots = sub_slots[~keep]
                        if len(pruned_slots):
                            state[pruned_slots] = -epoch
                        kept_slots = sub_slots[keep]
                        if len(kept_slots):
                            scores[kept_slots] = accumulated[keep]
                    else:
                        scores[sub_slots] = accumulated
                    continue
            active = marks != -epoch
            if admit == _ADMIT_ALL:
                if use_ap:
                    process = active & (started | (sf[seg_slots] >= sz1))
                else:
                    process = active
            else:
                newcomer_ok = np.minimum(
                    seg_rs1[j], seg_rs2[j] * seg_df) >= threshold
                if use_ap:
                    newcomer_ok &= sf[seg_slots] >= sz1
                process = active & (started | newcomer_ok)
            accumulated = scores[seg_slots] + seg_contrib
            if use_l2:
                prune = (accumulated + seg_tails) < threshold
                prune &= process
                pruned_slots = seg_slots[prune]
                if len(pruned_slots):
                    state[pruned_slots] = -epoch
                keep = ~prune
                keep &= process
            else:
                keep = process
            kept_slots = seg_slots[keep]
            if len(kept_slots):
                scores[kept_slots] = accumulated[keep]
                state[kept_slots] = epoch
                fresh = seg_slots[keep & ~started]
                if len(fresh):
                    touched.append(fresh)

    def _scan_segment_scalar(self, seg_slots: list[int],
                             seg_contrib: list[float],
                             seg_tails: list[float] | None,
                             seg_df: list[float] | None, admit: int,
                             rs1: float, rs2: float, sz1: float,
                             use_ap: bool, use_l2: bool, threshold: float,
                             acc: NumpyAccumulator) -> None:
        """Scalar twin of the hoisted segment processing for short lists."""
        epoch = self._epoch
        state = self._slot_state
        scores = self._slot_score
        sf = self._slot_sf
        fresh: list[int] = []
        for position, slot in enumerate(seg_slots):
            mark = state[slot]
            if mark == -epoch:
                continue
            started = mark == epoch
            if not started:
                if admit == _ADMIT_NONE:
                    continue
                if admit == _ADMIT_PER_ENTRY and min(
                        rs1, rs2 * seg_df[position]) < threshold:
                    continue
                if use_ap and sf[slot] < sz1:
                    continue
            accumulated = (scores[slot] if started else 0.0) + seg_contrib[position]
            if use_l2 and accumulated + seg_tails[position] < threshold:
                state[slot] = -epoch
                continue
            scores[slot] = accumulated
            if not started:
                state[slot] = epoch
                fresh.append(slot)
        if fresh:
            acc._touched.append(np.asarray(fresh, dtype=np.int64))

    def _fused_inv_pass(self, slots: np.ndarray, contrib: np.ndarray,
                        timestamps: np.ndarray | None,
                        acc: NumpyAccumulator) -> None:
        """Unfiltered INV accumulation over a whole query's gather.

        ``np.add.at`` accumulates sequentially in gather order (bitwise
        the reference order); first appearances — the candidate insertion
        order, and the arrival timestamps for the streaming variant — are
        found with a reversed scatter (last write wins, so the reversed
        write leaves each slot's *first* gather position).
        """
        n = len(slots)
        scores = self._slot_score
        positions = np.arange(n, dtype=np.int64)
        mark = self._slot_mark
        mark[slots[::-1]] = positions[::-1]
        first_mask = mark[slots] == positions
        first_slots = slots[first_mask]  # in gather (insertion) order
        np.add.at(scores, slots, contrib)
        self._slot_state[first_slots] = self._epoch
        if timestamps is not None:
            self._slot_arrival[first_slots] = timestamps[first_mask]
        acc._touched.append(first_slots)

    # -- candidate verification ------------------------------------------------

    def _verification_bounds(self, query: SparseVector,
                             candidates: NumpyCandidateSet):
        """Fused gather of the slot metadata and the ps1/ds1/sz2 bounds.

        Returns ``(valid, ps1, ds1, sz2, timestamps)`` where the bounds are
        *undecayed* and bitwise identical to
        :func:`repro.indexes.bounds.verification_bounds`; ``valid`` masks
        candidates still present in the residual/Q store.
        """
        slots = candidates.slots
        accumulated = candidates.scores
        valid = self._slot_valid[slots]
        meta = self._slot_meta[slots]
        ps1 = accumulated + meta[:, 0]
        residual_max = meta[:, 1]
        query_max = query.max_value
        ds1 = accumulated + np.minimum(query_max * meta[:, 2],
                                       residual_max * query.value_sum)
        sz2 = accumulated + (np.minimum(float(len(query)), meta[:, 3])
                             * query_max * residual_max)
        return valid, ps1, ds1, sz2, meta[:, 4]

    def verify_batch(self, query: SparseVector, candidates: CandidateSet,
                     residual: ResidualIndex, threshold: float,
                     stats: JoinStatistics) -> list[tuple[SparseVector, float]]:
        if not len(candidates):
            return []
        valid, ps1, ds1, sz2, _ = self._verification_bounds(query, candidates)
        weakest = np.minimum(np.minimum(ps1, ds1), sz2)
        survivors = np.nonzero(valid & (weakest >= threshold))[0]
        stats.full_similarities += len(survivors)
        if not len(survivors):
            return []
        slot_list = candidates.slots[survivors].tolist()
        accumulated_list = candidates.scores[survivors].tolist()
        entries = self._slot_entries
        matches: list[tuple[SparseVector, float]] = []
        self.begin_query(query)
        try:
            for slot, accumulated in zip(slot_list, accumulated_list):
                entry = entries[slot]
                score = accumulated + self._residual_dot_fast(query, entry)
                if score >= threshold:
                    matches.append((entry.vector, score))
        finally:
            self.end_query(query)
        return matches

    def verify_stream(self, query: SparseVector, candidates: CandidateSet,
                      residual: ResidualIndex, threshold: float,
                      decay: float, now: float,
                      stats: JoinStatistics) -> list[SimilarPair]:
        if not len(candidates):
            return []
        valid, ps1, ds1, sz2, timestamps = self._verification_bounds(
            query, candidates)
        slots = candidates.slots
        decayed = np.exp(-decay * (now - timestamps))
        # All three bounds must clear the (decayed) threshold, so comparing
        # their minimum once is the same mask with fewer passes.  np.exp
        # guard band; the exact math.exp decision is re-taken below.
        guard = threshold - threshold * _GUARD_BAND
        weakest = np.minimum(np.minimum(ps1, ds1), sz2)
        near = np.nonzero(valid & (weakest * decayed >= guard))[0]
        if not len(near):
            return []
        slot_list = slots[near].tolist()
        ts_list = timestamps[near].tolist()
        # Multiplication by the (positive) decay factor is monotone even in
        # floating point, so checking the weakest bound is bit-for-bit the
        # same decision as the reference backend's three separate checks.
        weakest_list = weakest[near].tolist()
        accumulated_list = candidates.scores[near].tolist()
        full_similarities = 0
        # First pass: exact math.exp bound decisions (reference parity),
        # collecting the survivors whose residual dot still needs finishing.
        survivors: list[tuple[int, float, float, float]] = []
        for position, slot in enumerate(slot_list):
            delta = now - ts_list[position]
            decay_factor = math.exp(-decay * delta)
            if weakest_list[position] * decay_factor < threshold:
                continue
            full_similarities += 1
            survivors.append((slot, accumulated_list[position], delta,
                              decay_factor))
        stats.full_similarities += full_similarities
        if not survivors:
            return []
        ids = self._slot_ids
        pairs: list[SimilarPair] = []
        self.begin_query(query)
        try:
            dots = self._batched_residual_dots(
                query, [slot for slot, _, _, _ in survivors])
            for (slot, accumulated, delta, decay_factor), rdot in zip(survivors,
                                                                      dots):
                dot = accumulated + rdot
                similarity = dot * decay_factor
                if similarity >= threshold:
                    pairs.append(SimilarPair.make(
                        query.vector_id, int(ids[slot]), similarity,
                        time_delta=delta, dot=dot, reported_at=now,
                    ))
        finally:
            self.end_query(query)
        return pairs

    def verify_inv_stream(self, query: SparseVector, candidates: CandidateSet,
                          threshold: float, decay: float, now: float,
                          stats: JoinStatistics) -> list[SimilarPair]:
        count = len(candidates)
        stats.full_similarities += count
        if not count:
            return []
        slots = candidates.slots
        scores = candidates.scores
        arrivals = self._slot_arrival[slots]
        similarities = scores * np.exp(-decay * (now - arrivals))
        guard = threshold - threshold * _GUARD_BAND
        near = np.nonzero(similarities >= guard)[0]
        if not len(near):
            return []
        slot_list = slots[near].tolist()
        arrival_list = arrivals[near].tolist()
        dot_list = scores[near].tolist()
        ids = self._slot_ids
        pairs: list[SimilarPair] = []
        for position, slot in enumerate(slot_list):
            delta = now - arrival_list[position]
            dot = dot_list[position]
            similarity = dot * math.exp(-decay * delta)
            if similarity >= threshold:
                pairs.append(SimilarPair.make(
                    query.vector_id, int(ids[slot]), similarity,
                    time_delta=delta, dot=dot, reported_at=now,
                ))
        return pairs

    # -- verification dot products -------------------------------------------

    def begin_query(self, vector: SparseVector) -> None:
        dims, values = self._arrays_of(vector)
        max_dim = int(dims[-1])
        if max_dim >= _DENSE_DIM_LIMIT:
            # Pathologically sparse dimension space: fall back to the
            # dict-based dot products rather than growing the scratch array.
            self._dense_active = False
            self._query_vector = vector
            return
        if max_dim >= len(self._dense):
            capacity = len(self._dense)
            while capacity <= max_dim:
                capacity *= 2
            self._dense = np.zeros(capacity, dtype=np.float64)
        self._dense[dims] = values
        self._query_dims = dims
        self._query_vector = vector
        self._dense_active = True

    def end_query(self, vector: SparseVector) -> None:
        if self._dense_active and self._query_dims is not None:
            self._dense[self._query_dims] = 0.0
        self._query_dims = None
        self._query_vector = None
        self._dense_active = False

    def _batched_residual_dots(self, query: SparseVector,
                               slot_list: list[int]) -> list[float]:
        """Finish the residual dot of several candidates in one array pass.

        The products of every candidate's residual prefix against the dense
        query scratch are computed by a single concatenated multiply; each
        candidate's reduction stays sequential (per segment, in ascending
        dimension order, summed left to right from 0 like builtin ``sum``),
        so every returned dot is bit-for-bit the value
        :meth:`residual_dot` would produce.
        """
        entries = self._slot_entries
        if not self._dense_active:
            return [entries[slot].residual_dot(query) for slot in slot_list]
        dense = self._dense
        dense_len = len(dense)
        slot_residual = self._slot_residual
        counts: list[int] = []
        dims_parts: list[np.ndarray] = []
        vals_parts: list[np.ndarray] = []
        for slot in slot_list:
            residual_dims, residual_values, last_dim = slot_residual[slot]
            if last_dim < 0:
                counts.append(0)
            elif last_dim >= dense_len:
                counts.append(-1)
            else:
                counts.append(len(residual_dims))
                dims_parts.append(residual_dims)
                vals_parts.append(residual_values)
        if not dims_parts:
            dots = _EMPTY_FLOAT
        else:
            if len(dims_parts) == 1:
                cat_dims = dims_parts[0]
                cat_vals = vals_parts[0]
            else:
                cat_dims = np.concatenate(dims_parts)
                cat_vals = np.concatenate(vals_parts)
            part_counts = np.asarray([count for count in counts if count > 0],
                                     dtype=np.int64)
            dots = self._segment_dots(cat_dims, cat_vals, part_counts)
        dot_list = dots.tolist()
        results: list[float] = []
        offset = 0
        for index, count in enumerate(counts):
            if count > 0:
                results.append(dot_list[offset])
                offset += 1
            elif count == 0:
                results.append(0.0)
            else:
                results.append(entries[slot_list[index]].residual_dot(query))
        return results

    def _segment_dots(self, cat_dims: np.ndarray, cat_vals: np.ndarray,
                      part_counts: np.ndarray) -> np.ndarray:
        """Per-candidate sequential reductions over the concatenated prefixes.

        The seam the compiled backend overrides: given the candidates'
        residual ``(dims, values)`` arrays concatenated back to back and
        the per-candidate ``part_counts``, return each candidate's dot
        against the dense query scratch.  The unbuffered sequential
        scatter-add accumulates every candidate's products left to right
        from ``0.0``, bit-for-bit the reference reduction.
        """
        products = cat_vals * self._dense[cat_dims]
        segment_ids = np.repeat(
            np.arange(len(part_counts), dtype=np.int64), part_counts)
        dots = np.zeros(len(part_counts), dtype=np.float64)
        np.add.at(dots, segment_ids, products)
        return dots

    def _residual_dot_fast(self, query: SparseVector,
                           entry: ResidualEntry) -> float:
        """Hot-loop twin of :meth:`residual_dot` with the checks flattened.

        Identical result (the sequential reduction starts at 0.0 and is
        added to the accumulated score by the caller, exactly like the
        reference backend's ``accumulated + residual_dot``).
        """
        if not entry.residual:
            return 0.0
        if not self._dense_active:
            return entry.residual_dot(query)
        cached = entry.array_cache
        if cached is None:
            cached = self._build_residual_arrays(entry)
        residual_dims, residual_values = cached
        dense = self._dense
        if int(residual_dims[-1]) >= len(dense):
            return entry.residual_dot(query)
        return sum((residual_values * dense[residual_dims]).tolist())

    def residual_dot(self, query: SparseVector, entry: ResidualEntry) -> float:
        if not self._dense_active:
            return entry.residual_dot(query)
        if not entry.residual:
            return 0.0
        cached = entry.array_cache
        if cached is None:
            cached = self._build_residual_arrays(entry)
        residual_dims, residual_values = cached
        if int(residual_dims[-1]) >= len(self._dense):
            return entry.residual_dot(query)
        products = residual_values * self._dense[residual_dims]
        return _sequential_sum(products)

    def dots_for(self, query: SparseVector,
                 others: Sequence[SparseVector]) -> list[float]:
        self.begin_query(query)
        try:
            if not self._dense_active:
                return [query.dot(other) for other in others]
            dense = self._dense
            results = []
            for other in others:
                dims, values = self._arrays_of(other)
                if int(dims[-1]) >= len(dense):
                    results.append(query.dot(other))
                else:
                    results.append(_sequential_sum(values * dense[dims]))
            return results
        finally:
            self.end_query(query)

    def _arrays_of(self, vector: SparseVector) -> tuple[np.ndarray, np.ndarray]:
        cached = self._vector_entry(vector)
        return cached[1], cached[2]

    def _vector_entry(self, vector: SparseVector) -> list:
        key = id(vector)
        cached = self._vector_arrays.get(key)
        if cached is None:
            if len(self._vector_arrays) >= 65536:
                self._vector_arrays.clear()
            cached = [vector,
                      np.asarray(vector.dims, dtype=np.int64),
                      np.asarray(vector.values, dtype=np.float64),
                      None, None]
            self._vector_arrays[key] = cached
        return cached


def _sequential_sum(products: np.ndarray) -> float:
    """Left-to-right reduction, bit-for-bit identical to the Python loops.

    ``np.sum`` uses pairwise summation, which rounds differently from the
    reference backend's sequential adds; the arrays reduced here (residual
    prefixes, single sparse vectors) are short, so the scalar loop costs
    little and buys exact output parity.
    """
    return sum(products.tolist())
