"""Shared contiguous posting arena and list directory for the NumPy backend.

Instead of one set of growable arrays *per posting list*, the whole
inverted index stores its postings in a single :class:`PostingArena`: four
parallel ``int64``/``float64`` cell arrays (interned vector slot, value
``x_j``, prefix magnitude ``‖x'_j‖``, timestamp ``t(x)``) shared across
every dimension, plus a **directory** of per-list columns indexed by a
dense list id:

=========  ==========================================================
``lo``     first physical cell of the list's region
``hi``     end of the region (the next append goes to ``hi``)
``cend``   end of the list's chunk (``hi == cend``: the chunk is full)
``dirty``  lazily expired postings still inside the region
``cut``    highest expiry cutoff a scan applied (unordered lists)
``tmin``   smallest live timestamp (``+inf`` when none)
``tmax``   largest live timestamp (``-inf`` when none)
=========  ==========================================================

``dim_lid`` maps a dimension to its list id (a dense array up to
``_DENSE_DIM_LIMIT``, a dict beyond); list id 0 is a permanently empty
sentinel, so an absent dimension reads as an empty list without a mask.
The layout exists for the fused whole-query kernels
(:meth:`repro.backends.numpy_backend.NumpyKernel.scan_query_stream` and
friends): one lookup finds every query dimension's list, and locating,
sizing, time-filtering, truncating and appending are array operations
over the query's list ids, with no per-list Python.

Memory management
-----------------
* **Chunks.**  A list's region sits at the front of its chunk's free
  space; an append into a full chunk relocates the list to a fresh chunk
  of twice its size at the arena tail (:meth:`PostingArena.reserve`).
* **Waste** — abandoned chunks, truncated head cells, free chunk space and
  lazily expired postings — is everything allocated beyond the live
  postings.  Once it exceeds the live postings (and a small floor), the
  whole arena is compacted in one pass of column operations
  (:meth:`PostingArena.maybe_compact`), so allocated cells stay within
  about twice the live postings.  The kernel's per-query maintenance
  budget can additionally pay for an early compaction of a lightly
  fragmented arena (:meth:`PostingArena.compact_if_affordable`).
* **Compaction** rewrites every live list back to back, dropping lazily
  expired postings for free.  Each list gets free chunk space for as
  many appends as it took since the previous compaction (at least a
  quarter of its size, plus a cell), within half the live postings in
  all; lists the stream keeps appending to then rarely relocate between
  compactions.

Where physical moves happen: relocations during appends, and in-place
rewrites of lazily expired lists (:meth:`PostingArena.drop_expired`) and
whole-arena compactions only after a scan's replay has read every
gathered cell.  Growth and compaction allocate *fresh* arrays, so
gathers taken earlier keep reading the old buffers consistently;
``tests/test_arena.py`` pins these points down.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.indexes.posting import PostingEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.numpy_backend import NumpyKernel

__all__ = ["PostingArena", "ArenaPostingList", "SLOT_DTYPE", "VALUE_DTYPE"]

#: Dtypes of the arena's parallel arrays: ``SLOT_DTYPE`` for the interned
#: vector slots, ``VALUE_DTYPE`` for values, prefix magnitudes and
#: timestamps.  The compiled tier (:mod:`repro.backends.kernels`) specialises
#: its JIT signatures against these exact dtypes — its warm-up compiles with
#: them, so an arena allocated with anything else would trigger a fresh
#: compilation (or a TypingError) mid-scan.
SLOT_DTYPE = np.int64
VALUE_DTYPE = np.float64

#: Initial capacity of the arena's cell arrays; also the waste below which
#: no compaction is forced, so small arenas are not rewritten every query.
_INITIAL_ARENA = 1024
#: Initial capacity of the directory columns.
_INITIAL_LISTS = 64
#: Dimensions at or above this threshold map to their list through a dict
#: instead of growing the dense table (2**24 ids = 128 MiB).
_DENSE_DIM_LIMIT = 1 << 24
#: Free chunk space a compaction or a bulk load leaves each list, as a
#: right shift of its size (a quarter).
_SLACK_SHIFT = 2
_INF = math.inf
_CELLS = ("slots", "values", "pnorms", "ts")


def _frozen(value, dtype) -> np.ndarray:
    row = np.full(1, value, dtype=dtype)
    row.setflags(write=False)
    return row


#: The directory of an arena without lists: the sentinel's row of each
#: column (``lo``, ``hi``, ``cend``, ``dirty``, ``cut``, ``tmin``,
#: ``tmax``, ``appends``), and an empty dimension table.
_SENTINEL_ROWS = (_frozen(0, np.int64), _frozen(0, np.int64),
                  _frozen(0, np.int64), _frozen(0, np.int64),
                  _frozen(-math.inf, np.float64),
                  _frozen(math.inf, np.float64),
                  _frozen(-math.inf, np.float64), _frozen(0, np.int64))
_NO_DIMS = _frozen(0, np.int64)[:0]


def _next_pow2(value: int) -> int:
    return 1 << max(value - 1, 0).bit_length()


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """Running starts of back-to-back segments (length ``segments + 1``)."""
    offsets = np.empty(len(lengths) + 1, dtype=np.int64)
    offsets[0] = 0
    lengths.cumsum(out=offsets[1:])
    return offsets


def _segment_counts(mask: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Set entries of ``mask`` per segment (empty segments count 0)."""
    running = _offsets(mask)
    return running[offsets[1:]] - running[offsets[:-1]]


def _cells(firsts: np.ndarray, lengths: np.ndarray,
           offsets: np.ndarray) -> np.ndarray:
    """Cell ``firsts[j] + k`` for every ``k < lengths[j]``, segment by
    segment (``offsets`` as :func:`_offsets` returns them)."""
    cells = np.repeat(firsts - offsets[:-1], lengths)
    cells += np.arange(int(offsets[-1]), dtype=np.int64)
    return cells


class PostingArena:
    """The shared posting store: cell arrays, list directory, accounting.

    One arena per :class:`~repro.backends.numpy_backend.NumpyKernel`,
    serving one posting store (``store``).  Lists are created by
    :meth:`new_lists`/:meth:`load` and never dropped; an emptied list keeps
    its id and reads as empty.
    """

    __slots__ = ("kernel", "store", "slots", "values", "pnorms", "ts", "tail",
                 "live_entries", "dead_entries", "dirty_entries",
                 "compactions", "lists", "lo", "hi", "cend", "dirty", "cut",
                 "tmin", "tmax", "appends", "dim_lid", "far_lids")

    def __init__(self, kernel: "NumpyKernel") -> None:
        # Reference cycle with the kernel (kernel._arena → arena.kernel);
        # collected by the cycle GC.  Lists reach the kernel's slot table
        # through it (to_list translates slots back to vector ids).
        self.kernel = kernel
        #: The posting store (``InvertedIndex``) whose lists live here.
        self.store = None
        self.slots = np.empty(_INITIAL_ARENA, dtype=SLOT_DTYPE)
        self.values = np.empty(_INITIAL_ARENA, dtype=VALUE_DTYPE)
        self.pnorms = np.empty(_INITIAL_ARENA, dtype=VALUE_DTYPE)
        self.ts = np.empty(_INITIAL_ARENA, dtype=VALUE_DTYPE)
        #: Next free cell; everything at or beyond it is unallocated.
        self.tail = 0
        #: Physically stored postings across all lists (incl. dirty).
        self.live_entries = 0
        #: Cells in no chunk's region or free space: abandoned chunks and
        #: truncated head cells.
        self.dead_entries = 0
        #: Lazily expired postings still stored (the sum of ``dirty``).
        self.dirty_entries = 0
        #: Number of whole-arena compactions performed (observability).
        self.compactions = 0
        # List id 0, the empty sentinel, is the whole directory until the
        # first list exists: shared read-only rows, so building an index
        # allocates nothing beyond the cell arrays.
        self.lists = 1
        (self.lo, self.hi, self.cend, self.dirty, self.cut, self.tmin,
         self.tmax, self.appends) = _SENTINEL_ROWS
        self.dim_lid = _NO_DIMS
        self.far_lids: dict[int, int] = {}

    @property
    def capacity(self) -> int:
        """Allocated length of the cell arrays."""
        return len(self.slots)

    @property
    def logical_entries(self) -> int:
        """Postings not yet reported removed (stored minus dirty)."""
        return self.live_entries - self.dirty_entries

    # -- the directory -------------------------------------------------------

    def new_lists(self, count: int, room: int = 0) -> np.ndarray:
        """``count`` fresh empty list ids, each with a chunk of ``room``
        cells at the tail (none: their first append allocates one)."""
        first = self.lists
        needed = first + count
        if needed > len(self.lo):
            capacity = _next_pow2(max(needed, _INITIAL_LISTS))
            for name, fill in (("lo", 0), ("hi", 0), ("cend", 0),
                               ("dirty", 0), ("cut", -_INF), ("tmin", _INF),
                               ("tmax", -_INF), ("appends", 0)):
                old = getattr(self, name)
                fresh = np.full(capacity, fill, dtype=old.dtype)
                fresh[:first] = old[:first]
                setattr(self, name, fresh)
        self.lists = needed
        if room:
            start = self._alloc(count * room)
            starts = np.arange(start, start + count * room, room)
            self.lo[first:needed] = starts
            self.hi[first:needed] = starts
            self.cend[first:needed] = starts + room
        return np.arange(first, needed, dtype=np.int64)

    def register(self, dims: np.ndarray, lids: np.ndarray) -> None:
        """Map each of ``dims`` to the list id beside it."""
        if not len(dims):
            return
        top = int(dims.max())
        if top >= _DENSE_DIM_LIMIT:
            far = dims >= _DENSE_DIM_LIMIT
            self.far_lids.update(zip(dims[far].tolist(), lids[far].tolist()))
            dims, lids = dims[~far], lids[~far]
            if not len(dims):
                return
            top = int(dims.max())
        self._cover(top)
        self.dim_lid[dims] = lids

    def _cover(self, dim: int) -> None:
        """Grow the dense table to hold ``dim`` (below the limit)."""
        table = self.dim_lid
        if dim >= len(table):
            fresh = np.zeros(min(_next_pow2(dim + 1), _DENSE_DIM_LIMIT),
                             dtype=np.int64)
            fresh[:len(table)] = table
            self.dim_lid = fresh

    def lookup(self, dims: np.ndarray) -> np.ndarray:
        """List id of each of ``dims`` (ascending), 0 where none exists."""
        top = int(dims[-1])
        if top >= len(self.dim_lid):
            if top >= _DENSE_DIM_LIMIT:
                return self._lookup_far(dims)
            self._cover(top)
        return self.dim_lid.take(dims)

    def _lookup_far(self, dims: np.ndarray) -> np.ndarray:
        lids = np.zeros(len(dims), dtype=np.int64)
        near = dims < _DENSE_DIM_LIMIT
        if near.any():
            self._cover(int(dims[near][-1]))
            lids[near] = self.dim_lid.take(dims[near])
        far_get = self.far_lids.get
        lids[~near] = [far_get(dim, 0) for dim in dims[~near].tolist()]
        return lids

    # -- allocation ----------------------------------------------------------

    def _alloc(self, length: int) -> int:
        """Reserve ``length`` cells at the tail; returns the first one."""
        if self.tail + length > len(self.slots):
            capacity = _next_pow2(max(self.tail + length, _INITIAL_ARENA))
            tail = self.tail
            for name in _CELLS:
                old = getattr(self, name)
                fresh = np.empty(capacity, dtype=old.dtype)
                fresh[:tail] = old[:tail]
                setattr(self, name, fresh)
        start = self.tail
        self.tail += length
        return start

    def reserve(self, lids: np.ndarray) -> np.ndarray:
        """One new cell at the end of each (distinct) list; their offsets.

        Full chunks relocate first, all in one pass, so no reserved offset
        moves afterwards.  The caller writes the four cell fields.
        """
        hi = self.hi.take(lids)
        full = (hi == self.cend.take(lids)).nonzero()[0]
        if len(full):
            hi[full] = self._relocate(lids.take(full))
        self.hi[lids] = hi + 1
        self.appends[lids] += 1
        self.live_entries += len(lids)
        return hi

    def _relocate(self, lids: np.ndarray) -> list[int]:
        """Move full lists to fresh chunks of ``2·(size + 1)`` cells at the
        tail; returns their new region ends.  The old chunks become dead.

        A loop over only the moving lists (about one per appended vector):
        each costs four slice copies either way, and scalar bookkeeping is
        cheaper than a dozen array calls at that count.
        """
        lo, hi, cend = self.lo, self.hi, self.cend
        ends = []
        for lid in lids.tolist():
            first = int(lo[lid])
            size = int(hi[lid]) - first
            cap = 2 * (size + 1)
            start = self._alloc(cap)
            if size:
                # After _alloc: growth replaces the cell arrays.
                for name in _CELLS:
                    buf = getattr(self, name)
                    buf[start:start + size] = buf[first:first + size]
                # A full chunk is all region and dead head: the region's
                # cells are what becomes dead on top.
                self.dead_entries += size
            lo[lid] = start
            hi[lid] = start + size
            cend[lid] = start + cap
            ends.append(start + size)
        return ends

    def load(self, counts: np.ndarray, slots: list[int], values: list[float],
             pnorms: list[float], timestamps: list[float]) -> np.ndarray:
        """New lists filled in one pass; list ``j`` holds the next
        ``counts[j]`` (> 0) postings of the flat field lists, oldest
        first.  Returns their ids.

        Each list gets a chunk sized like a compaction's; the chunks are
        reserved together at the arena tail and every field is written
        with one vectorised scatter.
        """
        lids = self.new_lists(len(counts))
        if not len(counts):
            return lids
        caps = counts + (counts >> _SLACK_SHIFT)
        offsets = _offsets(caps)
        starts = offsets[:-1] + self._alloc(int(offsets[-1]))
        firsts = _offsets(counts)
        cells = _cells(starts, counts, firsts)
        ts = np.asarray(timestamps, dtype=VALUE_DTYPE)
        self.slots[cells] = slots
        self.values[cells] = values
        self.pnorms[cells] = pnorms
        self.ts[cells] = ts
        self.lo[lids] = starts
        self.hi[lids] = starts + counts
        self.cend[lids] = starts + caps
        self.tmin[lids] = np.minimum.reduceat(ts, firsts[:-1])
        self.tmax[lids] = np.maximum.reduceat(ts, firsts[:-1])
        self.live_entries += len(ts)
        return lids

    # -- expiry --------------------------------------------------------------

    def truncate(self, lids: np.ndarray, lo: np.ndarray, oldest: np.ndarray,
                 newest: np.ndarray, dropped: int) -> None:
        """Time-ordered lists keep only their postings from cell ``lo`` on.

        A column update: the ``dropped`` cells before become dead head
        space and nothing moves.  ``oldest``/``newest`` are the survivors'
        extreme timestamps (``+inf``/``-inf`` when none survive).
        """
        self.lo[lids] = lo
        self.tmin[lids] = oldest
        self.tmax[lids] = newest
        self.live_entries -= dropped
        self.dead_entries += dropped

    def mark_expired(self, lids: np.ndarray, cuts: np.ndarray,
                     dirty: np.ndarray, tmin: np.ndarray,
                     tmax: np.ndarray) -> None:
        """Record a scan's deferred expiry of unordered lists: ``dirty``
        postings of each region fall below ``cuts`` and were reported
        removed; ``tmin``/``tmax`` are the survivors' extremes."""
        self.dirty_entries += int(dirty.sum() - self.dirty[lids].sum())
        self.dirty[lids] = dirty
        self.cut[lids] = cuts
        self.tmin[lids] = tmin
        self.tmax[lids] = tmax

    def drop_expired(self, lids: np.ndarray) -> None:
        """Rewrite lists in place without their lazily expired postings.

        The survivors keep their order and move to the front of their
        regions; the freed cells become free chunk space.  Their removal
        was reported when they expired, so nothing is counted here.
        """
        lo = self.lo[lids]
        sizes = self.hi[lids] - lo
        offsets = _offsets(sizes)
        source = _cells(lo, sizes, offsets)
        keep = self.ts[source] >= np.repeat(self.cut[lids], sizes)
        kept = _segment_counts(keep, offsets)
        source = source[keep]
        target = _cells(lo, kept, _offsets(kept))
        for name in _CELLS:
            buf = getattr(self, name)
            buf[target] = buf[source]
        self.hi[lids] = lo + kept
        self.live_entries -= len(keep) - len(source)
        self.dirty_entries -= int(self.dirty[lids].sum())
        self.dirty[lids] = 0

    # -- compaction ----------------------------------------------------------

    def maybe_compact(self) -> bool:
        """Compact when the waste exceeds the live postings (and the floor)."""
        live = self.logical_entries
        if self.tail - live > max(live, _INITIAL_ARENA):
            self.compact()
            return True
        return False

    def compact_if_affordable(self, budget: int) -> int:
        """Early compaction paid for by the per-query maintenance budget.

        A mandatory compaction (:meth:`maybe_compact`) is always taken and
        costs no budget — it is already amortised.  Otherwise an arena
        with a quarter of its live volume (or of the floor) in dead cells
        and lazily expired postings (reclaiming single cells every query
        would just churn) is rewritten early when the budget covers the
        postings to move.  Returns the budget consumed.
        """
        if self.maybe_compact():
            return 0
        live = self.logical_entries
        if ((self.dead_entries + self.dirty_entries) * 4
                >= max(live, _INITIAL_ARENA) and self.live_entries <= budget):
            cost = self.live_entries
            self.compact()
            return cost
        return 0

    def compact(self) -> None:
        """Rewrite every list back to back, dropping dead space.

        Lazily expired (dirty) postings are dropped for free — their
        removal was already reported by the scans.  Fresh arrays are
        allocated, so gathers taken before the compaction stay valid.
        """
        count = self.lists
        if count == 1:
            # No lists: nothing is stored.
            self.tail = self.live_entries = 0
            self.dead_entries = self.dirty_entries = 0
            self.compactions += 1
            return
        lo = self.lo[:count]
        sizes = self.hi[:count] - lo
        offsets = _offsets(sizes)
        source = _cells(lo, sizes, offsets)
        old_ts = self.ts
        kept = sizes
        dirty = None
        if self.dirty_entries:
            dirty = np.flatnonzero(self.dirty[:count])
            cuts = np.full(count, -_INF)
            cuts[dirty] = self.cut[dirty]
            keep = old_ts[source] >= np.repeat(cuts, sizes)
            kept = _segment_counts(keep, offsets)
            source = source[keep]
        # Free space: what each list took in appends since the last
        # compaction, or a quarter of its size, plus a cell for any list in
        # use — within half the live postings in all, so that the next
        # compaction is as far off.
        appends = self.appends[:count]
        slack = np.maximum(kept >> _SLACK_SHIFT, appends)
        slack += (kept > 0) | (appends > 0)
        budget = int(kept.sum()) >> 1
        room = int(slack.sum())
        if room > budget:
            slack = slack * budget // room
        self.appends[:count] = 0
        caps = kept + slack
        starts = _offsets(caps)
        firsts = _offsets(kept)
        target = _cells(starts[:-1], kept, firsts)
        # Room to grow up to the next compaction's trigger (waste above
        # the live postings) without reallocating on the way.
        capacity = _next_pow2(2 * int(starts[-1]) + _INITIAL_ARENA)
        for name in _CELLS:
            old = getattr(self, name)
            fresh = np.empty(capacity, dtype=old.dtype)
            fresh[target] = old[source]
            setattr(self, name, fresh)
        self.lo[:count] = starts[:-1]
        self.hi[:count] = starts[:-1] + kept
        self.cend[:count] = starts[1:]
        if dirty is not None:
            # The dirty lists' survivors set their extremes anew.
            self.dirty[dirty] = 0
            emptied = dirty[kept[dirty] == 0]
            self.tmin[emptied] = _INF
            self.tmax[emptied] = -_INF
            survivors = dirty[kept[dirty] > 0]
            if len(survivors):
                nonempty = np.flatnonzero(kept)
                kept_ts = old_ts[source]
                at = np.searchsorted(nonempty, survivors)
                self.tmin[survivors] = np.minimum.reduceat(
                    kept_ts, firsts[nonempty])[at]
                self.tmax[survivors] = np.maximum.reduceat(
                    kept_ts, firsts[nonempty])[at]
        self.tail = int(starts[-1])
        self.live_entries = int(firsts[-1])
        self.dead_entries = 0
        self.dirty_entries = 0
        self.compactions += 1

    # -- reading -------------------------------------------------------------

    def views(self, lids: np.ndarray) -> list["ArenaPostingList"]:
        """The posting lists with ids ``lids``."""
        return [ArenaPostingList(self, lid) for lid in lids.tolist()]

    def entries(self, lid: int) -> list[PostingEntry]:
        """The live postings of list ``lid``, oldest first."""
        lo = int(self.lo[lid])
        hi = int(self.hi[lid])
        cutoff = float(self.cut[lid]) if self.dirty[lid] else -_INF
        ids = self.kernel._slot_ids[self.slots[lo:hi]].tolist()
        return [PostingEntry(vector_id=vector_id, value=value,
                             prefix_norm=prefix_norm, timestamp=timestamp)
                for vector_id, value, prefix_norm, timestamp in zip(
                    ids, self.values[lo:hi].tolist(),
                    self.pnorms[lo:hi].tolist(), self.ts[lo:hi].tolist())
                if timestamp >= cutoff]


class ArenaPostingList:
    """A posting list ``I_j``: a view of one row of the arena directory.

    Code outside the backend only takes its length, its truthiness and
    :meth:`to_list`; appends, scans and expiry all go through the kernel,
    which works on the directory columns directly.
    """

    __slots__ = ("_arena", "_lid")

    def __init__(self, arena: PostingArena, lid: int) -> None:
        self._arena = arena
        self._lid = lid

    def __len__(self) -> int:
        """Number of live postings (stored minus lazily expired)."""
        arena = self._arena
        lid = self._lid
        return int(arena.hi[lid] - arena.lo[lid] - arena.dirty[lid])

    def __bool__(self) -> bool:
        return len(self) > 0

    def to_list(self) -> list[PostingEntry]:
        """Copy of the live postings from oldest to newest."""
        return self._arena.entries(self._lid)
