"""NumPy-vectorised compute backend.

Posting lists live in a shared **posting arena**
(:mod:`repro.backends.arena`): one set of growable contiguous arrays —
vector-id slots, weights ``x_j``, prefix magnitudes ``‖x'_j‖`` and
timestamps ``t(x)`` — spanning *every* dimension, with a **directory** of
per-list columns (region, chunk end, lazy-expiry state, extreme
timestamps) indexed by a dense list id, and a ``dim → list id`` table.
A query's per-list work is array operations over its list ids; no Python
runs per posting list.  The three hot loops become array kernels:

* **candidate accumulation** — the fused ``scan_query_*`` kernels look up
  every query dimension's list at once, gather their live ranges out of
  the arena in one pass and accumulate the whole query's candidates with
  a handful of array operations,
* **decay and time filtering** — one mask over the gather; time-ordered
  lists are truncated at the head by a column update, unordered lists
  keep a lazy-expiry state whose physical rewrite is amortised (see
  below), and the admission tri-state of every list is resolved at once,
* **verification** — one fused masked pass over slot-indexed metadata
  arrays evaluates the ``ps1``/``ds1``/``sz2`` bounds for every candidate
  at once; only the survivors finish their dot product over the residual
  prefix (a few one by one, more in a vectorised gather-multiply whose
  final reduction stays sequential so the result is bit-for-bit
  identical to the reference backend).

Per query, a streaming scan (``scan_query_stream``) runs:

1. *locate* — ``dim → list id`` for every query dimension, then the lists
   holding live postings, in backward scan order;
2. *gather* — the arena offsets of their regions, newest first on
   time-ordered lists;
3. *time filter* — one ``>= cutoff`` mask and per-list alive counts;
   head truncation (time-ordered) or lazy-expiry state (unordered) is
   written straight into the directory columns;
4. *admission* — the tri-state of every list from ``np.exp`` at its
   extreme live timestamps, with decisions near θ left to the per-entry
   test;
5. *replay* — contributions, decay factors and ``l2bound`` tails for the
   whole gather, then one pass of :meth:`NumpyKernel._fused_prefix_segments`;
6. *settle* — after every read of the gather: the in-place rewrite of
   lists at least half lazily expired, then any due arena compaction.

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
  *same* candidate, so the scan is replayed **grouped by slot**: one sort
  of packed ``slot << b | position`` keys groups the gather by candidate
  in scan order, each candidate's chain starts at its first admitting
  posting, and one row-wise ``np.cumsum`` over a zero-padded
  (candidates × longest chain) matrix yields every partial sum.
  ``add.accumulate`` adds strictly left to right, so each partial sum is
  bit for bit the reference's ``score + contribution`` chain; a candidate
  is pruned iff any of its partial sums plus its ``l2bound`` tail falls
  below θ.

All per-entry work (products, decay, bound tails, admission) is
vectorised once over the whole gather.  Gathers of at most
``_GROUPED_REPLAY_CUTOFF`` live postings skip the grouping and run the
scalar loop :func:`prefix_segments` instead, because the grouped pass's
fixed cost of a few dozen NumPy calls dwarfs a short loop.  The size of
the gather is the only input to that choice.

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
arrival.  Instead each list's directory row keeps a *high-water expiry
cutoff* and a *dirty counter*: scans mask expired postings out on the fly,
report them removed exactly once (so operation counters match the eagerly
compacting reference backend), and the physical rewrite is deferred until
the list is at least half dead or the arena compacts.  A per-list
minimum-live timestamp skips the masking entirely while nothing can be
expired.

Floating-point parity with the reference backend: every accumulation adds
the same IEEE-754 products in the same order (a vector contributes at most
one posting per list), so accumulated scores and reported similarities are
bitwise identical.  The only divergence is ``np.exp`` vs ``math.exp``,
which can differ in the last ulp; wherever a decision uses a vectorised
decay factor, that factor only draws a *guard band* (``1e-12`` relative)
around θ, and every decision inside the band is re-taken with
``math.exp``:

* **verification** — the decayed verification bounds and the reported
  similarity of the few candidates inside the band;
* **candidate-generation scans** — the per-entry decayed admission bound
  and the ``l2bound`` prune of every posting inside the band, on both
  replays.  The per-list admission shortcut admits or refuses a whole
  list only when its ``np.exp`` bound clears θ by more than the band;
  otherwise the list takes the per-entry test.

So decisions and counters equal the reference's even for pairs that sit
exactly on θ.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from typing import Any, NamedTuple

import numpy as np

from repro.backends.arena import (
    _DENSE_DIM_LIMIT,
    ArenaPostingList,
    PostingArena,
    _cells,
    _offsets,
)
from repro.backends.base import (
    CandidateSet,
    ScoreAccumulator,
    SimilarityKernel,
    SizeFilterMap,
)
from repro.core.results import JoinStatistics, SimilarPair
from repro.core.vector import SparseVector
from repro.exceptions import SSSJError
from repro.indexes.bounds import IndexingSplit, compute_indexing_split
from repro.indexes.maxvector import MaxVector
from repro.indexes.residual import ResidualEntry, ResidualIndex

__all__ = ["NumpyKernel", "ArenaPostingList", "PostingArena"]

_INITIAL_SLOTS = 64
_INITIAL_DENSE = 1024
_INF = math.inf
#: Whole-query gathers of at most this many live postings replay through
#: the scalar loop, larger ones through the slot-grouped pass (see
#: ``NumpyKernel._fused_prefix_segments``).  Set at the measured
#: per-replay crossover of the two paths (docs/PERFORMANCE.md).
_GROUPED_REPLAY_CUTOFF = 64
#: Vectors at or below this length run the pure-Python indexing-split loop
#: (with the AP bound; the ℓ₂-only split is a bisect at any length).
_SCALAR_SPLIT_CUTOFF = 8
#: Verification of at most this many survivors finishes each residual dot
#: with ``ResidualEntry.residual_dot``; more share one batched array pass
#: over the dense query scratch.  Set at the measured crossover of the two
#: paths (docs/PERFORMANCE.md).
_LOOP_VERIFY_CUTOFF = 4
#: Per-query replenishment and cap of the amortised compaction budget
#: (measured in postings rewritten).
_COMPACTION_BUDGET = 512
_COMPACTION_BUDGET_CAP = 4096
#: Tri-state outcome of the remaining-score admission test, resolved per
#: scanned list from its extreme live timestamps (``exp`` is monotone in
#: the timestamp, so the bound at the oldest and the newest posting
#: decides the whole list whenever it clears — or fails — uniformly).
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
    query reuses the kernel's dense score table.
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


class _LiveGather(NamedTuple):
    """The live postings of one query's posting lists (see ``_gather_live``).

    ``idx`` holds their arena offsets in scan order and ``timestamps``
    their arrival times (``None`` unless gathered); ``counts``/``offsets``
    delimit each list's segment inside ``idx``.  ``seg_min``/``seg_max``
    are each segment's extreme live timestamps; ``traversed``/``removed``
    are the logical operation counts.  ``rewrite`` holds the ids of the
    lists to rewrite without their lazily expired postings once the
    replay is done (``None`` if none).
    """

    idx: np.ndarray
    timestamps: np.ndarray | None
    counts: np.ndarray
    offsets: np.ndarray
    seg_min: np.ndarray
    seg_max: np.ndarray
    traversed: int
    removed: int
    rewrite: np.ndarray | None = None


class _VectorArrays:
    """One vector's coordinates as arrays (see ``NumpyKernel._arrays``).

    ``norms`` is the vector's ``_prefix_norms``: entry ``k`` is the norm
    of the coordinates before position ``k`` (a posting's ``‖x'_j‖``), so
    ``norms[k + 1]`` is the ℓ₂ indexing bound after position ``k``.
    """

    __slots__ = ("vector", "dims", "values", "norms")

    def __init__(self, vector: SparseVector) -> None:
        self.vector = vector
        self.dims = np.asarray(vector.dims, dtype=np.int64)
        self.values = np.asarray(vector.values, dtype=np.float64)
        self.norms = np.asarray(vector._prefix_norms, dtype=np.float64)


class _ExactDecay:
    """What a replay needs to re-take a decision with ``math.exp``.

    ``timestamps`` and, with the ℓ₂ bounds, ``raw_tails`` (the undecayed
    ``‖x'_j‖·‖y'_j‖``) are per gathered posting.  The vectorised decay
    factors come from ``np.exp``, which can differ from the reference's
    ``math.exp`` in the last ulp; a replay re-takes every admission or
    ``l2bound`` decision within ``threshold · _GUARD_BAND`` of θ with
    :meth:`factor`, so ties at θ fall the reference's way.
    """

    __slots__ = ("timestamps", "now", "decay", "raw_tails")

    def __init__(self, timestamps, now: float, decay: float) -> None:
        self.timestamps = timestamps
        self.now = now
        self.decay = decay
        self.raw_tails = None

    def factor(self, position: int) -> float:
        """The reference's decay factor of gathered posting ``position``."""
        return math.exp(-self.decay
                        * (self.now - float(self.timestamps[position])))


class NumpyKernel(SimilarityKernel):
    """Vectorised array kernels over slot-interned candidate state."""

    name = "numpy"
    description = "vectorised contiguous-array kernels"

    def __init__(self) -> None:
        self._arena = PostingArena(self)
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
        # Built lazily by _residual_mirror, dropped when the prefix changes.
        self._slot_residual: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}
        self._epoch = 0
        self._maintenance_budget = 0
        self._dense = np.zeros(_INITIAL_DENSE, dtype=np.float64)
        self._query_dims: np.ndarray | None = None
        self._dense_active = False
        # Coordinate arrays (see ``_arrays``): the current query's, and
        # one per vector in the residual/Q store, keyed by slot and dropped
        # when it is evicted; nothing else keeps a vector alive.
        self._query_arrays: _VectorArrays | None = None
        self._stored_arrays: dict[int, _VectorArrays] = {}
        # ``dots_for``'s other vectors, kept only until the next call.
        self._dots_arrays: dict[int, _VectorArrays] = {}

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
        """An empty list of the current arena, mapped to no dimension
        (the kernel creates a dimension's list on its first append)."""
        arena = self._arena
        return arena.views(arena.new_lists(1))[0]

    def _arena_for(self, index: Any) -> PostingArena:
        """The arena of posting store ``index``: the first store the kernel
        fills (a restore's or a switch's rebuilt one included) is the
        only one it serves."""
        arena = self._arena
        if arena.store is not index:
            if arena.store is not None:
                raise SSSJError("a NumPy kernel serves one posting store; "
                                "give each index a kernel of its own")
            arena.store = index
        return arena

    def new_accumulator(self) -> NumpyAccumulator:
        self._epoch += 1
        self.begin_maintenance_cycle()
        return NumpyAccumulator(self, self._epoch)

    def begin_maintenance_cycle(self) -> None:
        """Replenish the per-query compaction budget, compacting if affordable.

        One call per query, through :meth:`new_accumulator`.  A new cycle
        is a safe point: no scan holds gathers from the arena arrays here.
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

    def _residual_mirror(self, slot: int) -> tuple[np.ndarray, np.ndarray, int]:
        """``(dims, values, largest dim)`` of a slot's residual prefix
        (``-1`` when empty), built on the slot's first verification."""
        entry = self._slot_entries[slot]
        if entry.residual:
            dims, values = (entry.array_cache
                            or self._build_residual_arrays(entry))
            mirror = (dims, values, int(dims[-1]))
        else:
            mirror = (_EMPTY_INT, _EMPTY_FLOAT, -1)
        self._slot_residual[slot] = mirror
        return mirror

    def note_vector_indexed(self, entry: ResidualEntry) -> None:
        slot = self._intern(entry.vector_id)
        self._keep_arrays(slot, entry)
        residual_max, residual_sum = entry._stats()
        self._slot_meta[slot] = (entry.pscore, residual_max, residual_sum,
                                 len(entry.residual), entry.timestamp)
        self._slot_valid[slot] = True
        self._slot_entries[slot] = entry
        self._slot_residual.pop(slot, None)
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

    def note_vectors_indexed(self, entries: list[ResidualEntry]) -> None:
        if self._sketch_scheme is not None:
            super().note_vectors_indexed(entries)
            return
        slots = [self._intern(entry.vector_id) for entry in entries]
        if not slots:
            return
        self._slot_meta[slots] = [
            (entry.pscore, *entry._stats(), len(entry.residual),
             entry.timestamp) for entry in entries]
        self._slot_valid[slots] = True
        self._slot_entries.update(zip(slots, entries))
        for slot, entry in zip(slots, entries):
            self._slot_residual.pop(slot, None)
            self._keep_arrays(slot, entry)

    def note_vector_updated(self, entry: ResidualEntry) -> None:
        slot = self._slot_of.get(entry.vector_id)
        if slot is None or self._slot_entries.get(slot) is not entry:
            self.note_vector_indexed(entry)
            return
        residual_max, residual_sum = entry._stats()
        self._slot_meta[slot] = (entry.pscore, residual_max, residual_sum,
                                 len(entry.residual), entry.timestamp)
        # Only drop the residual array mirror when the residual prefix
        # itself changed (shrink_to clears the cache); a pscore-only
        # refresh — the common re-indexing outcome — keeps it.
        if entry.array_cache is None:
            self._slot_residual.pop(slot, None)

    def note_vector_evicted(self, vector_id: int) -> None:
        slot = self._slot_of.get(vector_id)
        if slot is not None:
            self._slot_valid[slot] = False
            self._slot_entries.pop(slot, None)
            self._slot_residual.pop(slot, None)
            self._stored_arrays.pop(slot, None)
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

        One bucket-lookup pass per query epoch, re-validating stale
        bucket entries after slot reuse against the live band table.
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
        """Bulk append: one posting on each list of ``vector.dims[start:end]``.

        One directory lookup finds the lists (new dimensions get fresh
        ones); every list reserves its tail cell in one pass — full chunks
        relocate together first, so no reserved cell moves afterwards —
        and the four posting fields are written with one scatter per array.
        """
        arrays = self._arrays(vector)
        stop = len(arrays.dims) if end is None else end
        count = stop - start
        if count <= 0:
            return 0
        arena = self._arena_for(index)
        slot = self._intern(vector.vector_id)
        dims = arrays.dims[start:stop]
        lids = arena.lookup(dims)
        fresh = (lids == 0).nonzero()[0]
        if len(fresh):
            new_dims = dims.take(fresh)
            # A new list gets the chunk its first relocation would give it.
            new_lids = arena.new_lists(len(fresh), room=2)
            arena.register(new_dims, new_lids)
            lids[fresh] = new_lids
            index.adopt(dict(zip(new_dims.tolist(), arena.views(new_lids))), 0)
        positions = arena.reserve(lids)
        timestamp = vector.timestamp
        arena.slots[positions] = slot
        arena.values[positions] = arrays.values[start:stop]
        arena.pnorms[positions] = arrays.norms[start:stop]
        arena.ts[positions] = timestamp
        extremes = arena.tmin.take(lids)
        np.minimum(extremes, timestamp, out=extremes)
        arena.tmin[lids] = extremes
        extremes = arena.tmax.take(lids)
        np.maximum(extremes, timestamp, out=extremes)
        arena.tmax[lids] = extremes
        index.note_added(count)
        arena.maybe_compact()
        return count

    def load_postings(self, index: Any, postings) -> None:
        """Bulk load: intern every id, then one arena-wide scatter per field
        (see :meth:`~repro.backends.arena.PostingArena.load`)."""
        dims: list[int] = []
        counts: list[int] = []
        flat: list[Any] = []
        for dim, entries in postings.items():
            if not isinstance(entries, list):
                entries = list(entries)
            if entries:
                dims.append(dim)
                counts.append(len(entries))
                flat.extend(entries)
        arena = self._arena_for(index)
        ids = [entry.vector_id for entry in flat]
        # Interned in first-appearance order, as appends would intern them.
        slot_of = {vector_id: self._intern(vector_id)
                   for vector_id in dict.fromkeys(ids)}
        lids = arena.load(np.asarray(counts, dtype=np.int64),
                          [slot_of[vector_id] for vector_id in ids],
                          [entry.value for entry in flat],
                          [entry.prefix_norm for entry in flat],
                          [entry.timestamp for entry in flat])
        arena.register(np.asarray(dims, dtype=np.int64), lids)
        index.adopt(dict(zip(dims, arena.views(lids))), len(flat))

    def indexing_split(self, vector: SparseVector, threshold: float, *,
                       max_vector: MaxVector | None, use_ap: bool,
                       use_l2: bool, limit: int | None = None) -> IndexingSplit:
        end = len(vector) if limit is None else min(limit, len(vector))
        if not use_ap:
            if not use_l2:
                raise ValueError("at least one bound family must be enabled")
            # The ℓ₂ bound after position k is the prefix norm
            # ``norms[k + 1]``, summed in the reference loop's order and
            # non-decreasing in k: the split is the first position whose
            # bound reaches θ, and its pscore the norm before it.
            norms = vector._prefix_norms
            after = bisect_left(norms, threshold, 1, end + 1)
            return IndexingSplit(boundary=after - 1, pscore=norms[after - 1])
        if end <= _SCALAR_SPLIT_CUTOFF:
            return compute_indexing_split(vector, threshold,
                                          max_vector=max_vector, use_ap=use_ap,
                                          use_l2=use_l2, limit=limit)
        if max_vector is None:
            raise ValueError("the AP b1 bound requires the max vector m")
        arrays = self._arrays(vector)
        # np.cumsum accumulates sequentially, so every partial sum is
        # bitwise identical to the reference backend's running loop.
        # Gather straight from the MaxVector's backing dict: this loop runs
        # once per (re-)indexed vector and the method-call wrapper around
        # dict.get is measurable at that rate.
        mget = max_vector._values.get
        maxima = np.asarray([mget(dim, 0.0) for dim in vector.dims[:end]],
                            dtype=np.float64)
        b1 = (arrays.values[:end] * maxima).cumsum()
        if use_l2:
            b2 = arrays.norms[1:end + 1]
            bound = np.minimum(b1, b2)
        else:
            bound = b1
        hits = bound >= threshold
        position = int(np.argmax(hits))
        if not hits[position]:
            return IndexingSplit(boundary=end, pscore=float(bound[-1]))
        if position == 0:
            return IndexingSplit(boundary=0, pscore=0.0)
        before = position - 1
        b2_bound = float(b2[before]) if use_l2 else _INF
        return IndexingSplit(boundary=position,
                             pscore=min(float(b1[before]), b2_bound))

    # -- fused whole-query scans ---------------------------------------------
    #
    # Each scan looks up the query's lists in the directory, keeps those
    # with live postings (in scan order), gathers their regions and works
    # on per-list arrays from there: no Python runs per posting list.

    @staticmethod
    def _admission(seg_rs1: np.ndarray, seg_rs2: np.ndarray,
                   counts: np.ndarray, seg_min: np.ndarray,
                   seg_max: np.ndarray, threshold: float, decay: float,
                   now: float, use_ap: bool) -> np.ndarray:
        """The remaining-score admission of each scanned list, resolved
        for the whole list where it can be.

        ``exp(-λ·(now-t))`` is monotone in ``t``, so the decayed bound at
        a list's extreme live timestamps (finite for every segment)
        decides every posting whenever it clears θ at the oldest (all
        pass) or fails at the newest (all fail, as they do when
        ``rs1 < θ``).  The bounds come from ``np.exp``, so a list is
        admitted or refused whole only when its bound clears θ by more
        than the guard band, where ``math.exp`` must agree; otherwise it
        takes the per-entry test, which re-takes each posting's decision
        exactly.  Empty segments admit nothing.  Returns ``_ADMIT_ALL``,
        ``_ADMIT_NONE`` or ``_ADMIT_PER_ENTRY`` per segment.
        """
        count = len(counts)
        exponents = np.empty(2 * count)
        exponents[:count] = seg_min
        exponents[count:] = seg_max
        # decay·(t - now) is -decay·(now - t) bit for bit; the clamp keeps
        # np.exp finite (live postings never exceed now: exponents ≤ 0).
        exponents -= now
        exponents *= decay
        np.minimum(exponents, 700.0, out=exponents)
        bounds = np.exp(exponents, out=exponents)
        bounds[:count] *= seg_rs2
        bounds[count:] *= seg_rs2
        band = threshold * _GUARD_BAND
        # 2·(all surely pass) - (some may pass): 1 = all, -1 = per entry,
        # 0 = none.
        tri = (bounds[:count] >= threshold + band).astype(np.int64)
        tri += tri
        tri -= bounds[count:] >= threshold - band
        tri *= counts > 0
        if use_ap:
            tri *= seg_rs1 >= threshold
        return tri

    @staticmethod
    def _remaining_bounds(arrays: _VectorArrays, rs1: float,
                          maxima: Sequence[float] | None, use_ap: bool,
                          use_l2: bool, found: np.ndarray,
                          ) -> tuple[np.ndarray, np.ndarray]:
        """``(rs1, rs2)`` for the scanned lists, as arrays.

        Bitwise :func:`repro.indexes.bounds.remaining_score_bounds` at the
        query positions of ``found`` (indices in backward scan order):
        ``np.subtract.accumulate`` repeats its one-position-at-a-time
        subtractions in the same order.
        """
        values = arrays.values
        backward = values[:0:-1]
        if use_ap:
            steps = np.empty(len(values))
            steps[0] = rs1
            np.multiply(backward, np.asarray(maxima)[:0:-1], out=steps[1:])
            seg_rs1 = np.subtract.accumulate(steps).take(found)
        else:
            seg_rs1 = np.full(len(found), rs1)
        if use_l2:
            steps = np.empty(len(values))
            norm = arrays.vector.norm
            steps[0] = norm * norm
            np.multiply(backward, backward, out=steps[1:])
            remaining = np.subtract.accumulate(steps).take(found)
            np.maximum(remaining, 0.0, out=remaining)
            seg_rs2 = np.sqrt(remaining, out=remaining)
        else:
            seg_rs2 = np.full(len(found), _INF)
        return seg_rs1, seg_rs2

    @staticmethod
    def _query_lists(arena: PostingArena, arrays: _VectorArrays,
                     backward: bool) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray, np.ndarray]:
        """The query's lists that hold live postings, in scan order.

        Returns ``(found, lids, lo, lengths)``: the lists' indices in scan
        order over the query positions (last position first when
        ``backward``), their ids, and their physical regions' first cells
        and lengths.
        """
        lids = arena.lookup(arrays.dims)
        if backward:
            lids = lids[::-1]
        lo = arena.lo.take(lids)
        lengths = arena.hi.take(lids)
        lengths -= lo
        found = (lengths > arena.dirty.take(lids)).nonzero()[0]
        return found, lids.take(found), lo.take(found), lengths.take(found)

    def scan_query_batch(self, vector: SparseVector, index: Any, *,
                         threshold: float, rs1: float,
                         maxima: Sequence[float] | None, sz1: float,
                         use_ap: bool, use_l2: bool,
                         size_filter: SizeFilterMap,
                         acc: ScoreAccumulator) -> int:
        self._install_query_sketch(vector)
        arena = self._arena_for(index)
        arrays = self._arrays(vector)
        found, lids, lo, lengths = self._query_lists(arena, arrays, True)
        if not len(found):
            return 0
        seg_rs1, seg_rs2 = self._remaining_bounds(arrays, rs1, maxima, use_ap,
                                                  use_l2, found)
        tri = np.where(np.minimum(seg_rs1, seg_rs2) >= threshold,
                       _ADMIT_ALL, _ADMIT_NONE)
        idx, offsets = self._gather_indices(lo, lengths, reverse=False)
        total = len(idx)
        if self._sketch_query is not None:
            # Before the admission shortcut: the reference per-entry check
            # runs ahead of admission, so the reject counters must too.
            idx, lengths, offsets, _ = self._sketch_drop(idx, lengths,
                                                         offsets, acc)
        if not tri.any() or not len(idx):
            # No segment admits newcomers and (within one fused pass)
            # nothing can have started earlier, so no candidate can form.
            return total
        positions = len(arrays.values) - 1 - found
        contrib = np.repeat(arrays.values[positions], lengths)
        contrib *= arena.values[idx]
        if use_l2:
            tails = np.repeat(arrays.norms[positions], lengths)
            tails *= arena.pnorms[idx]
        else:
            tails = None
        self._fused_prefix_segments(arena.slots[idx], contrib, tails, None,
                                    tri, seg_rs1, seg_rs2, offsets, sz1,
                                    use_ap, use_l2, threshold, acc)
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
        arena = self._arena_for(index)
        arrays = self._arrays(vector)
        found, lids, lo, lengths = self._query_lists(arena, arrays, True)
        if not len(found):
            return 0, 0
        live = self._gather_live(arena, lids, lo, lengths, cutoff,
                                 time_ordered, with_timestamps=False)
        try:
            idx = live.idx
            counts = live.counts
            offsets = live.offsets
            timestamps = live.timestamps
            if self._sketch_query is not None and len(idx):
                # Drop postings of sketch-rejected candidates between the
                # time filter and admission.  The segment extremes stay the
                # pre-sketch ones: the admission bound is monotone in
                # the timestamp, so extremes over a superset of the live
                # postings resolve the tri-state conservatively.  The
                # expiry bookkeeping never sees these drops — sketch
                # rejection is per-query, not expiry.
                idx, counts, offsets, timestamps = self._sketch_drop(
                    idx, counts, offsets, acc, timestamps)
            if not len(idx):
                return live.traversed, live.removed
            # Per-segment tri-state at the live extremes (the bound is
            # monotone in the timestamp); only segments the bound
            # straddles pay a per-entry evaluation.
            seg_rs1, seg_rs2 = self._remaining_bounds(
                arrays, rs1, decayed_maxima, use_ap, use_l2, found)
            tri = self._admission(seg_rs1, seg_rs2, counts, live.seg_min,
                                  live.seg_max, threshold, decay, now, use_ap)
            if not tri.any():
                return live.traversed, live.removed
            positions = len(arrays.values) - 1 - found
            contrib = np.repeat(arrays.values[positions], counts)
            contrib *= arena.values[idx]
            decay_factors = None
            exact = None
            if use_l2 or _ADMIT_PER_ENTRY in tri:
                if timestamps is None:
                    timestamps = arena.ts[idx]
                decay_factors = np.exp(-decay * (now - timestamps))
                exact = _ExactDecay(timestamps, now, decay)
            if use_l2:
                raw_tails = np.repeat(arrays.norms[positions], counts)
                raw_tails *= arena.pnorms[idx]
                exact.raw_tails = raw_tails
                tails = raw_tails * decay_factors
            else:
                tails = None
            self._fused_prefix_segments(arena.slots[idx], contrib, tails,
                                        decay_factors, tri, seg_rs1, seg_rs2,
                                        offsets, sz1, use_ap, use_l2,
                                        threshold, acc, exact)
            return live.traversed, live.removed
        finally:
            self._settle(arena, live)

    def scan_query_inv_batch(self, vector: SparseVector, index: Any,
                             acc: ScoreAccumulator) -> int:
        arena = self._arena_for(index)
        arrays = self._arrays(vector)
        found, _, lo, lengths = self._query_lists(arena, arrays, False)
        if not len(found):
            return 0
        idx, _ = self._gather_indices(lo, lengths, reverse=False)
        contrib = np.repeat(arrays.values[found], lengths)
        contrib *= arena.values[idx]
        self._fused_inv_pass(arena.slots[idx], contrib, None, acc)
        return len(idx)

    def scan_query_inv_stream(self, vector: SparseVector, index: Any,
                              cutoff: float,
                              acc: ScoreAccumulator) -> tuple[int, int]:
        arena = self._arena_for(index)
        arrays = self._arrays(vector)
        found, lids, lo, lengths = self._query_lists(arena, arrays, False)
        if not len(found):
            return 0, 0
        live = self._gather_live(arena, lids, lo, lengths, cutoff, True,
                                 with_timestamps=True)
        try:
            idx = live.idx
            if len(idx):
                # Newest first, the reference backward scan's insertion
                # order.
                contrib = np.repeat(arrays.values[found], live.counts)
                contrib *= arena.values[idx]
                self._fused_inv_pass(arena.slots[idx], contrib,
                                     live.timestamps, acc)
            return live.traversed, live.removed
        finally:
            self._settle(arena, live)

    @staticmethod
    def _gather_indices(lo: np.ndarray, lengths: np.ndarray,
                        reverse: bool) -> tuple[np.ndarray, np.ndarray]:
        """Arena offsets of every segment's physical region, concatenated.

        Returns ``(idx, offsets)`` where ``idx`` enumerates each region
        (starting at ``lo``) in scan order — newest first when ``reverse``
        — and ``offsets`` the segments' running starts inside ``idx``
        (length ``segments + 1``).
        """
        offsets = _offsets(lengths)
        if not reverse:
            return _cells(lo, lengths, offsets), offsets
        # Posting k of segment j counts down from the segment's last cell.
        first = lo + lengths
        first -= 1
        first += offsets[:-1]
        idx = first.repeat(lengths)
        idx -= np.arange(offsets[-1], dtype=np.int64)
        return idx, offsets

    # -- the time filter -----------------------------------------------------
    #
    # One filter phase serves both streaming scans (scan_query_stream,
    # scan_query_inv_stream).

    def _gather_live(self, arena: PostingArena, lids: np.ndarray,
                     lo: np.ndarray, lengths: np.ndarray, cutoff: float,
                     time_ordered: bool, *,
                     with_timestamps: bool) -> _LiveGather:
        """Gather the live postings of lists ``lids`` in scan order.

        Expired postings are masked out of the whole-query gather and
        reported exactly as the reference backend's per-list loops report
        them.  Head truncations and lazy-expiry state are column updates,
        applied here; the in-place rewrite of lists at least half lazily
        expired is left to :meth:`_settle`, after every read of ``idx``.
        ``timestamps`` is gathered when ``with_timestamps`` or whenever
        the mask needs it, else left ``None``.  The segment extremes are
        finite (an empty segment's are placeholders).
        """
        idx, offsets = self._gather_indices(lo, lengths, reverse=time_ordered)
        total = len(idx)
        seg_min = arena.tmin.take(lids)
        if time_ordered:
            stale = seg_min.min() < cutoff
        else:
            dirty = arena.dirty.take(lids)
            stale = seg_min.min() < cutoff or dirty.any()
        if not stale:
            # Nothing can be expired: every physical posting is live.
            return _LiveGather(idx, arena.ts.take(idx) if with_timestamps
                               else None, lengths, offsets, seg_min,
                               arena.tmax.take(lids), total, 0)
        timestamps = arena.ts.take(idx)
        first = offsets[:-1]
        rewrite = None
        if time_ordered:
            # Ordered lists: within-list timestamps are sorted, so the live
            # postings form a prefix of the (newest-first) segment; the
            # reference counts only them as traversed and truncates the
            # expired head.
            alive = timestamps >= cutoff
            counts = np.add.reduceat(alive, first)
            kept = traversed = int(counts.sum())
            removed = total - kept
            seg_max = timestamps.take(first)
            last = first + counts
            last -= 1
            seg_min = timestamps.take(last)
            if removed:
                oldest, newest = seg_min, seg_max
                empty = (counts == 0).nonzero()[0]
                if len(empty):
                    oldest = seg_min.copy()
                    newest = seg_max.copy()
                    oldest[empty] = _INF
                    newest[empty] = -_INF
                start = lo + lengths
                start -= counts
                arena.truncate(lids, start, oldest, newest, removed)
        else:
            # Unordered lists: the reference traverses every physically
            # present posting it has not yet removed; lazily expired
            # (dirty) ones were reported before.
            cuts = np.where(dirty > 0, np.maximum(arena.cut.take(lids), cutoff),
                            cutoff)
            alive = timestamps >= cuts.repeat(lengths)
            counts = np.add.reduceat(alive, first)
            kept = int(counts.sum())
            traversed = total - int(dirty.sum())
            removed = traversed - kept
            seg_max = arena.tmax.take(lids)
            partial = (counts < lengths).nonzero()[0]
            seg_min[partial] = np.minimum.reduceat(
                np.where(alive, timestamps, _INF), first)[partial]
            seg_max[partial] = np.maximum.reduceat(
                np.where(alive, timestamps, -_INF), first)[partial]
            expired = lengths.take(partial) - counts.take(partial)
            arena.mark_expired(lids.take(partial), cuts.take(partial),
                                   expired, seg_min.take(partial),
                                   seg_max.take(partial))
            # The physical rewrite is amortised: a list is rewritten once
            # at least half of it is lazily expired.
            half = (2 * expired >= lengths.take(partial)).nonzero()[0]
            if len(half):
                rewrite = lids.take(partial.take(half))
            empty = (counts == 0).nonzero()[0]
            seg_min[empty] = cutoff
            seg_max[empty] = cutoff
        if kept != total:
            idx = idx[alive]
            timestamps = timestamps[alive]
            offsets = _offsets(counts)
        return _LiveGather(idx, timestamps, counts, offsets, seg_min, seg_max,
                           traversed, removed, rewrite)

    @staticmethod
    def _settle(arena: PostingArena, live: _LiveGather) -> None:
        """The physical moves a scan deferred until its reads were done:
        the rewrite of half-expired lists, then any arena compaction."""
        if live.rewrite is not None:
            arena.drop_expired(live.rewrite)
        arena.maybe_compact()

    def _fused_prefix_segments(self, slots: np.ndarray, contrib: np.ndarray,
                               tails: np.ndarray | None,
                               decay_factors: np.ndarray | None,
                               tri: list[int], seg_rs1: list[float],
                               seg_rs2: list[float], offsets: np.ndarray,
                               sz1: float, use_ap: bool, use_l2: bool,
                               threshold: float,
                               acc: NumpyAccumulator,
                               exact: _ExactDecay | None = None) -> None:
        """Replay the reference's per-entry scan over a whole-query gather.

        Every segment's live postings sit back to back in scan order, with
        ``offsets`` delimiting segment ``j``; ``contrib`` (``x_j·y_j``),
        ``tails`` (decayed ``l2bound`` tails, ``use_l2`` only) and
        ``decay_factors`` (read only by ``_ADMIT_PER_ENTRY`` segments) are
        per posting, ``tri``/``seg_rs1``/``seg_rs2`` per segment.  Runs
        at most once per accumulator: no slot carries this epoch's mark on
        entry.  ``exact`` (streaming scans) re-takes the decayed decisions
        that sit within the guard band of θ with ``math.exp``.

        Decision for decision this is the reference backend's per-term
        scan: same admissions, same accumulation order, same prunes, same
        candidate order.  Gathers of at most ``_GROUPED_REPLAY_CUTOFF``
        postings run the scalar loop :func:`prefix_segments`; larger ones
        the slot-grouped pass below.
        """
        state = self._slot_state
        scores = self._slot_score
        epoch = self._epoch
        n = len(slots)
        band = -1.0 if exact is None else threshold * _GUARD_BAND
        if n <= _GROUPED_REPLAY_CUTOFF:
            fresh = np.empty(n, dtype=np.int64)
            fresh_count = prefix_segments(
                slots.tolist(), contrib.tolist(),
                tails.tolist() if use_l2 else None,
                (decay_factors.tolist() if _ADMIT_PER_ENTRY in tri
                 else None),
                _as_list(tri), _as_list(seg_rs1), _as_list(seg_rs2),
                offsets.tolist(), state, scores,
                self._slot_sf, epoch, sz1, use_ap, use_l2, threshold, fresh,
                *_exact_arguments(exact), band)
            if fresh_count:
                acc._touched.append(fresh[:fresh_count])
            return
        # -- admission: may this posting start its candidate? -------------
        counts = offsets[1:] - offsets[:-1]
        tri_arr = np.asarray(tri)
        admits = (tri_arr == _ADMIT_ALL).repeat(counts)
        if _ADMIT_PER_ENTRY in tri:
            # One decayed bound per posting; -inf keeps _ADMIT_NONE
            # segments out and _ADMIT_ALL ones are admitted above.
            rs1 = np.array(seg_rs1, dtype=np.float64)
            rs1[tri_arr == _ADMIT_NONE] = -_INF
            rs1 = rs1.repeat(counts)
            rs2 = np.asarray(seg_rs2).repeat(counts)
            bound = rs2 * decay_factors
            np.minimum(rs1, bound, out=bound)
            if exact is not None:
                gap = bound - threshold
                np.abs(gap, out=gap)
                if gap.min() <= band:
                    for p in np.flatnonzero(gap <= band).tolist():
                        bound[p] = min(float(rs1[p]),
                                       float(rs2[p]) * exact.factor(p))
            admits |= bound >= threshold
        if use_ap:
            admits &= self._slot_sf[slots] >= sz1
        first = admits.nonzero()[0]
        if not len(first):
            return
        # -- each candidate's chain: its postings from its first admitting
        # one on (the reversed scatter leaves each slot's first position) --
        mark = self._slot_mark
        mark[slots] = n
        mark[slots[first[::-1]]] = first[::-1]
        chain = (np.arange(n) >= mark[slots]).nonzero()[0]
        # -- group the chains by slot, scan order inside each group -------
        bits = n.bit_length()
        keys = slots[chain] << bits
        keys |= chain
        keys.sort()
        chain = keys & ((1 << bits) - 1)
        chain_slots = keys >> bits
        size = len(keys)
        head = np.empty(size, dtype=bool)
        head[0] = True
        np.not_equal(chain_slots[1:], chain_slots[:-1], out=head[1:])
        heads = head.nonzero()[0]
        lengths = np.empty_like(heads)
        np.subtract(heads[1:], heads[:-1], out=lengths[:-1])
        lengths[-1] = size - heads[-1]
        groups = len(heads)
        width = int(lengths.max())
        # -- partial sums: posting r of group k sits in cell k·width + r of
        # a zero-padded (groups × width) grid; cumsum adds left to right
        # along each row, so every cell is the reference's running score
        # (contributions are non-negative: its leading ``0.0 + c`` is
        # ``c``, and the padding keeps each row's total in its last cell).
        cells = (np.arange(0, groups * width, width) - heads).repeat(lengths)
        cells += np.arange(size)
        grid = np.zeros(groups * width)
        grid[cells] = contrib[chain]
        grid = grid.reshape(groups, width).cumsum(axis=1)
        group_slots = chain_slots[heads]
        scores[group_slots] = grid[:, -1]
        if use_l2:
            # Pruned iff some partial sum plus its tail falls below θ.
            partials = grid.ravel()
            below = partials[cells]
            below += tails[chain]
            if exact is not None:
                gap = below - threshold
                np.abs(gap, out=gap)
                if gap.min() <= band:
                    for k in np.flatnonzero(gap <= band).tolist():
                        p = int(chain[k])
                        below[k] = (float(partials[cells[k]])
                                    + float(exact.raw_tails[p])
                                    * exact.factor(p))
            pruned = np.logical_or.reduceat(below < threshold, heads)
            state[group_slots] = np.where(pruned, -epoch, epoch)
        else:
            state[group_slots] = epoch
        # -- candidate order: the scan position of each chain's start.
        # Pruned candidates ride along (finalize drops them and resets
        # their scores) ----------------------------------------------------
        first_mask = np.zeros(n, dtype=bool)
        first_mask[chain[heads]] = True
        acc._touched.append(slots[first_mask])

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
        dots = self._residual_dots(query, slot_list)
        entries = self._slot_entries
        matches: list[tuple[SparseVector, float]] = []
        for slot, accumulated, rdot in zip(slot_list, accumulated_list, dots):
            score = accumulated + rdot
            if score >= threshold:
                matches.append((entries[slot].vector, score))
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
        dots = self._residual_dots(query,
                                   [slot for slot, _, _, _ in survivors])
        ids = self._slot_ids
        pairs: list[SimilarPair] = []
        for (slot, accumulated, delta, decay_factor), rdot in zip(survivors,
                                                                  dots):
            dot = accumulated + rdot
            similarity = dot * decay_factor
            if similarity >= threshold:
                pairs.append(SimilarPair.make(
                    query.vector_id, int(ids[slot]), similarity,
                    time_delta=delta, dot=dot, reported_at=now,
                ))
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

    def _begin_query(self, vector: SparseVector) -> None:
        """Scatter ``vector`` into the dense scratch the dot kernels read;
        pair with :meth:`_end_query`."""
        arrays = self._arrays(vector)
        dims = arrays.dims
        values = arrays.values
        max_dim = int(dims[-1])
        if max_dim >= _DENSE_DIM_LIMIT:
            # Pathologically sparse dimension space: fall back to the
            # dict-based dot products rather than growing the scratch array.
            self._dense_active = False
            return
        if max_dim >= len(self._dense):
            capacity = len(self._dense)
            while capacity <= max_dim:
                capacity *= 2
            self._dense = np.zeros(capacity, dtype=np.float64)
        self._dense[dims] = values
        self._query_dims = dims
        self._dense_active = True

    def _end_query(self) -> None:
        if self._dense_active and self._query_dims is not None:
            self._dense[self._query_dims] = 0.0
        self._query_dims = None
        self._dense_active = False

    def _residual_dots(self, query: SparseVector,
                       slot_list: list[int]) -> list[float]:
        """The residual dot of each surviving candidate with ``query``.

        Up to ``_LOOP_VERIFY_CUTOFF`` survivors take
        ``ResidualEntry.residual_dot`` one by one; more share one batched
        pass, whose fixed cost (the dense query scatter) a few dots do
        not repay.  Both return the reference's dots bit for bit.
        """
        if len(slot_list) <= _LOOP_VERIFY_CUTOFF:
            entries = self._slot_entries
            return [entries[slot].residual_dot(query) for slot in slot_list]
        self._begin_query(query)
        try:
            return self._batched_residual_dots(query, slot_list)
        finally:
            self._end_query()

    def _batched_residual_dots(self, query: SparseVector,
                               slot_list: list[int]) -> list[float]:
        """Finish the residual dot of several candidates in one array pass.

        The products of every candidate's residual prefix against the dense
        query scratch are computed by a single concatenated multiply; each
        candidate's reduction stays sequential (per segment, in ascending
        dimension order, summed left to right from 0.0), so every returned
        dot is bit-for-bit the reference backend's
        ``entry.residual_dot(query)``.
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
            residual_dims, residual_values, last_dim = (
                slot_residual.get(slot) or self._residual_mirror(slot))
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
            # The unbuffered scatter-add sums each candidate's products
            # left to right from 0.0, bit for bit the reference reduction.
            products = cat_vals * dense[cat_dims]
            segment_ids = np.repeat(
                np.arange(len(part_counts), dtype=np.int64), part_counts)
            dots = np.zeros(len(part_counts), dtype=np.float64)
            np.add.at(dots, segment_ids, products)
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

    def dots_for(self, query: SparseVector,
                 others: Sequence[SparseVector]) -> list[float]:
        self._begin_query(query)
        try:
            if not self._dense_active:
                return [query.dot(other) for other in others]
            dense = self._dense
            # The arrays of the previous call's vectors are reused (the
            # brute-force baselines pass a growing prefix of one list) and
            # only this call's are kept.
            previous = self._dots_arrays
            kept: dict[int, _VectorArrays] = {}
            results = []
            for other in others:
                arrays = previous.get(id(other))
                if arrays is None or arrays.vector is not other:
                    arrays = _VectorArrays(other)
                kept[id(other)] = arrays
                dims = arrays.dims
                if int(dims[-1]) >= len(dense):
                    results.append(query.dot(other))
                else:
                    results.append(_sequential_sum(arrays.values * dense[dims]))
            self._dots_arrays = kept
            return results
        finally:
            self._end_query()

    def _arrays(self, vector: SparseVector) -> _VectorArrays:
        """``vector``'s coordinate arrays, built once per vector.

        Kept for the current query and for the vectors in the residual/Q
        store (:meth:`_keep_arrays` adopts the query's, eviction drops
        them), so the kernel keeps no vector alive that the join let go.
        """
        arrays = self._query_arrays
        if arrays is not None and arrays.vector is vector:
            return arrays
        slot = self._slot_of.get(vector.vector_id)
        if slot is not None:
            arrays = self._stored_arrays.get(slot)
            if arrays is not None and arrays.vector is vector:
                return arrays
            entry = self._slot_entries.get(slot)
            if entry is not None and entry.vector is vector:
                arrays = self._stored_arrays[slot] = _VectorArrays(vector)
                return arrays
        arrays = self._query_arrays = _VectorArrays(vector)
        return arrays

    def _keep_arrays(self, slot: int, entry: ResidualEntry) -> None:
        """A vector entered the residual/Q store: keep the query's arrays
        if they are its own."""
        arrays = self._query_arrays
        if arrays is not None and arrays.vector is entry.vector:
            self._stored_arrays[slot] = arrays
        else:
            self._stored_arrays.pop(slot, None)


def _sequential_sum(products: np.ndarray) -> float:
    """Left-to-right reduction, bit-for-bit identical to the Python loops.

    ``np.sum`` uses pairwise summation, which rounds differently from the
    reference backend's sequential adds; the arrays reduced here (residual
    prefixes, single sparse vectors) are short, so the scalar loop costs
    little and buys exact output parity.
    """
    return sum(products.tolist())


def _as_list(values) -> list:
    """A per-segment input (list or array) as a list for the scalar loop."""
    return values.tolist() if isinstance(values, np.ndarray) else values


def _exact_arguments(exact: _ExactDecay | None) -> tuple:
    """``(raw_tails, timestamps, now, decay)`` of :func:`prefix_segments`."""
    if exact is None:
        return None, None, 0.0, 0.0
    return exact.raw_tails, exact.timestamps, exact.now, exact.decay


def prefix_segments(slots, contrib, tails, decay_factors, tri, seg_rs1,
                    seg_rs2, offsets, state, scores, sf, epoch, sz1, use_ap,
                    use_l2, threshold, fresh_out, raw_tails, timestamps, now,
                    decay, band):
    """Replay a whole-query prefix scan one posting at a time.

    The scalar form of :meth:`NumpyKernel._fused_prefix_segments`: for
    every posting of every segment ``j`` (``offsets[j]`` to
    ``offsets[j + 1]``), the prune-mark check, the tri-state admission
    (``tri[j]``, with the per-entry decayed bound from
    ``seg_rs1``/``seg_rs2`` and ``decay_factors``), the ``sz1`` size
    filter (``use_ap``), the score accumulation and the ``l2bound``
    early prune (``use_l2``), exactly as the reference backend takes
    them.  ``tails`` is read only when ``use_l2``, ``decay_factors`` only
    for ``_ADMIT_PER_ENTRY`` segments.  ``state``/``scores``/``sf`` are
    the kernel's slot arrays, updated in place.

    A decayed decision within ``band`` of θ is re-taken with the
    reference's ``math.exp`` factor of the posting's timestamp (and, for
    the prune, its undecayed ``raw_tails``); a negative ``band`` turns
    the re-decision off.  Outside the band one comparison against its
    upper edge decides, as a plain comparison against θ would.

    First-touched slots go to ``fresh_out`` in accumulation order (the
    candidate insertion order); returns their count.  The NumPy backend
    runs this as plain Python over lists for small gathers.
    """
    fresh_count = 0
    if band < 0.0:
        lower, upper = _INF, threshold
    else:
        lower, upper = threshold - band, threshold + band
    for j in range(len(tri)):
        admit = tri[j]
        rs1 = seg_rs1[j]
        rs2 = seg_rs2[j]
        for p in range(offsets[j], offsets[j + 1]):
            slot = slots[p]
            mark = state[slot]
            if mark == -epoch:
                continue
            started = mark == epoch
            if not started:
                if admit == _ADMIT_NONE:
                    continue
                if admit == _ADMIT_PER_ENTRY:
                    bound = rs2 * decay_factors[p]
                    if lower <= bound < upper:
                        bound = rs2 * math.exp(-decay * (now - timestamps[p]))
                    if rs1 < bound:
                        bound = rs1
                    if bound < threshold:
                        continue
                if use_ap and sf[slot] < sz1:
                    continue
            if started:
                accumulated = scores[slot] + contrib[p]
            else:
                accumulated = 0.0 + contrib[p]
            if use_l2:
                below = accumulated + tails[p]
                if below < upper:
                    if below >= lower:
                        below = accumulated + raw_tails[p] * math.exp(
                            -decay * (now - timestamps[p]))
                    if below < threshold:
                        state[slot] = -epoch
                        continue
            scores[slot] = accumulated
            if not started:
                state[slot] = epoch
                fresh_out[fresh_count] = slot
                fresh_count += 1
    return fresh_count
