"""Shared contiguous posting arena for the NumPy backend.

Instead of one set of growable arrays *per posting list*, the whole
inverted index stores its postings in a single :class:`PostingArena`: four
parallel ``int64``/``float64`` arrays (interned vector slot, value ``x_j``,
prefix magnitude ``‖x'_j‖``, timestamp ``t(x)``) shared across every
dimension, plus a per-dimension *extent table* — each
:class:`ArenaPostingList` handle records the chunk it owns inside the
arena (``start``/``capacity``), the live region within that chunk
(``head``/``size``) and the lazy-expiry state (``dirty`` counter,
high-water ``expired_cutoff``, min/max live timestamps).

The layout exists for the fused multi-term scan kernels
(:meth:`repro.backends.numpy_backend.NumpyKernel.scan_query_stream` and
friends): because every dimension's postings live in the *same* arrays, a
whole query's candidate-generation pass gathers the matched dimensions'
live ranges with a handful of fancy-index reads instead of one
Python→NumPy round trip per query term.

Memory management
-----------------
* **Chunks** grow by doubling: when a list's region hits its chunk
  capacity it either slides back over its dropped head (when at most half
  the chunk is occupied) or relocates to a fresh, twice-as-large chunk at
  the arena tail, abandoning the old chunk as a hole.
* **Dead space** — abandoned chunks, dropped head cells and released tail
  capacity — is tracked in :attr:`PostingArena.dead_entries`.  Whenever the
  dead space exceeds the live postings the whole arena is compacted in one
  pass (amortised O(1) per dead entry); the compute kernel's per-query
  maintenance budget can additionally pay for an early compaction of a
  lightly fragmented arena (:meth:`PostingArena.compact_if_affordable`).
* **Compaction** rewrites every live list back to back (dropping lazily
  expired postings for free), right-sizing each chunk to the smallest
  power of two holding twice its live postings.

Safety under scanning: arena growth and whole-arena compaction allocate
*fresh* arrays, so array views or fancy-index gathers taken earlier keep
reading the old buffers consistently.  The only in-place rewrites (chunk
slides during appends, per-list :meth:`ArenaPostingList.compress`) happen
at points where the scan kernels hold no views, which
``tests/test_arena.py`` pins down.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator

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

#: Smallest chunk allocated to a non-empty posting list (and the reported
#: capacity of a list that has never stored a posting).
_MIN_CAPACITY = 8
#: Initial capacity of the arena's backing arrays.
_INITIAL_ARENA = 1024
_INF = math.inf


def _next_pow2(value: int) -> int:
    return 1 << max(value - 1, 0).bit_length()


class PostingArena:
    """The shared posting store: four parallel arrays plus chunk accounting.

    One arena per :class:`~repro.backends.numpy_backend.NumpyKernel` (and
    therefore per index).  Lists are created with :meth:`new_list` or
    :meth:`load`; an index never drops a list, so the arena holds every
    list it handed out for its whole life.
    """

    __slots__ = ("kernel", "slots", "values", "pnorms", "ts", "tail",
                 "live_entries", "dead_entries", "_lists", "compactions")

    def __init__(self, kernel: "NumpyKernel") -> None:
        # Reference cycle with the kernel (kernel._arena → arena.kernel);
        # collected by the cycle GC.  Lists reach the kernel's slot table
        # through it (appends intern ids, iteration translates slots).
        self.kernel = kernel
        self.slots = np.empty(_INITIAL_ARENA, dtype=SLOT_DTYPE)
        self.values = np.empty(_INITIAL_ARENA, dtype=VALUE_DTYPE)
        self.pnorms = np.empty(_INITIAL_ARENA, dtype=VALUE_DTYPE)
        self.ts = np.empty(_INITIAL_ARENA, dtype=VALUE_DTYPE)
        #: Next free offset; everything at or beyond it is unallocated.
        self.tail = 0
        #: Physically stored postings across all live lists (incl. dirty).
        self.live_entries = 0
        #: Allocated-but-unreachable cells: abandoned chunks, dropped head
        #: cells, released tail capacity.
        self.dead_entries = 0
        self._lists: list[ArenaPostingList] = []
        #: Number of whole-arena compactions performed (observability).
        self.compactions = 0

    @property
    def capacity(self) -> int:
        """Allocated length of the backing arrays."""
        return len(self.slots)

    def new_list(self) -> "ArenaPostingList":
        posting_list = ArenaPostingList(self)
        self._lists.append(posting_list)
        return posting_list

    # -- allocation ----------------------------------------------------------

    def _alloc_chunk(self, length: int) -> int:
        """Reserve ``length`` cells at the tail; returns the chunk start."""
        if self.tail + length > len(self.slots):
            self._grow(self.tail + length)
        start = self.tail
        self.tail += length
        return start

    def _grow(self, needed: int) -> None:
        capacity = _next_pow2(max(needed, _INITIAL_ARENA))
        for name in ("slots", "values", "pnorms", "ts"):
            old = getattr(self, name)
            fresh = np.empty(capacity, dtype=old.dtype)
            fresh[:self.tail] = old[:self.tail]
            setattr(self, name, fresh)

    def load(self, counts: list[int], slots: list[int], values: list[float],
             pnorms: list[float],
             timestamps: list[float]) -> list["ArenaPostingList"]:
        """New lists filled in one pass; list ``j`` holds the next
        ``counts[j]`` postings of the flat field lists, oldest first.

        Each list gets a chunk sized like a compaction's; the chunks are
        reserved together at the arena tail and every field is written
        with one vectorised scatter.
        """
        lists = [ArenaPostingList(self) for _ in counts]
        self._lists.extend(lists)
        if not lists:
            return lists
        sizes = np.asarray(counts, dtype=np.int64)
        # The smallest power of two >= max(2·count, _MIN_CAPACITY): frexp
        # gives the bit length of (that bound - 1) exactly.
        caps = np.left_shift(1, np.frexp(
            np.maximum(2 * sizes, _MIN_CAPACITY) - 1)[1].astype(np.int64))
        starts = np.empty(len(caps), dtype=np.int64)
        starts[0] = 0
        np.cumsum(caps[:-1], out=starts[1:])
        starts += self._alloc_chunk(int(caps.sum()))
        firsts = np.empty(len(counts), dtype=np.int64)
        firsts[0] = 0
        np.cumsum(sizes[:-1], out=firsts[1:])
        positions = np.repeat(starts - firsts, sizes)
        positions += np.arange(len(slots), dtype=np.int64)
        ts = np.asarray(timestamps, dtype=VALUE_DTYPE)
        self.slots[positions] = slots
        self.values[positions] = values
        self.pnorms[positions] = pnorms
        self.ts[positions] = ts
        lows = np.minimum.reduceat(ts, firsts).tolist()
        highs = np.maximum.reduceat(ts, firsts).tolist()
        for plist, start, cap, count, low, high in zip(
                lists, starts.tolist(), caps.tolist(), counts, lows, highs):
            plist._start = start
            plist._cap = cap
            plist._size = count
            plist._min_ts = low
            plist._max_ts = high
        self.live_entries += len(slots)
        return lists

    # -- compaction ----------------------------------------------------------

    def maybe_compact(self) -> bool:
        """Compact when the dead space exceeds the live postings."""
        if self.dead_entries > self.live_entries:
            self.compact()
            return True
        return False

    def compact_if_affordable(self, budget: int) -> int:
        """Early compaction paid for by the per-query maintenance budget.

        A mandatory compaction (dead > live) is always taken and costs no
        budget — it is already amortised.  Otherwise a *meaningfully*
        fragmented arena (at least a quarter of the live volume wasted;
        reclaiming single cells every query would just churn) is
        rewritten early when the budget covers the live postings to move.
        Returns the budget consumed.
        """
        if self.dead_entries > self.live_entries:
            self.compact()
            return 0
        if (self.dead_entries * 4 >= self.live_entries > 0
                and self.live_entries <= budget):
            cost = self.live_entries
            self.compact()
            return cost
        return 0

    def compact(self) -> None:
        """Rewrite every live list back to back, dropping dead space.

        Lazily expired (dirty) postings are dropped for free — their
        removal was already reported by the scans.  Fresh arrays are
        allocated, so gathers taken before the compaction stay valid.
        """
        plans: list[tuple[ArenaPostingList, np.ndarray | slice | None, int]] = []
        total = 0
        for plist in self._lists:
            lo = plist._start + plist._head
            hi = lo + plist._size
            if plist._size == 0:
                plans.append((plist, None, 0))
                continue
            if plist._dirty:
                keep = self.ts[lo:hi] >= plist._expired_cutoff
                kept = int(np.count_nonzero(keep))
                plans.append((plist, keep, kept))
            else:
                kept = plist._size
                plans.append((plist, slice(lo, hi), kept))
            total += _next_pow2(max(2 * kept, _MIN_CAPACITY)) if kept else 0

        capacity = _next_pow2(max(total, _INITIAL_ARENA))
        fresh = {name: np.empty(capacity, dtype=getattr(self, name).dtype)
                 for name in ("slots", "values", "pnorms", "ts")}
        cursor = 0
        live = 0
        for plist, selector, kept in plans:
            if kept == 0:
                plist._start = 0
                plist._cap = 0
                plist._head = 0
                plist._size = 0
                plist._dirty = 0
                plist._min_ts = _INF
                plist._max_ts = -_INF
                continue
            chunk = _next_pow2(max(2 * kept, _MIN_CAPACITY))
            lo = plist._start + plist._head
            hi = lo + plist._size
            if isinstance(selector, slice):
                for name, buf in fresh.items():
                    buf[cursor:cursor + kept] = getattr(self, name)[selector]
            else:
                for name, buf in fresh.items():
                    buf[cursor:cursor + kept] = getattr(self, name)[lo:hi][selector]
                kept_ts = fresh["ts"][cursor:cursor + kept]
                plist._min_ts = float(kept_ts.min())
                plist._max_ts = float(kept_ts.max())
            plist._start = cursor
            plist._cap = chunk
            plist._head = 0
            plist._size = kept
            plist._dirty = 0
            cursor += chunk
            live += kept
        for name, buf in fresh.items():
            setattr(self, name, buf)
        self.tail = cursor
        self.live_entries = live
        self.dead_entries = 0
        self.compactions += 1


class ArenaPostingList:
    """A posting list ``I_j`` as an extent (chunk) of the shared arena.

    Code outside the backend only takes its length, its truthiness and
    :meth:`to_list`; the NumPy kernel reads the extent fields directly,
    gathers from the arena arrays and appends through the field-level
    methods below (:meth:`append` builds lists from ``PostingEntry``
    objects, as tests do).

    The live region is ``arena[start+head : start+head+size]``.  Dropped
    head cells and abandoned chunks are accounted as arena dead space;
    the arena compacts itself when dead space exceeds live postings.

    Lazy expiry works exactly as in the previous per-list layout: scans
    mask postings older than :attr:`expired_cutoff` on the fly, report
    them removed exactly once (the ``dirty`` counter), and the physical
    rewrite is deferred to :meth:`compress` or an arena compaction.
    """

    __slots__ = ("_arena", "_start", "_cap", "_head", "_size", "_dirty",
                 "_expired_cutoff", "_min_ts", "_max_ts")

    def __init__(self, arena: PostingArena) -> None:
        self._arena = arena
        self._start = 0
        self._cap = 0
        self._head = 0
        self._size = 0
        self._dirty = 0
        self._expired_cutoff = -_INF
        self._min_ts = _INF
        self._max_ts = -_INF

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        """Number of logically live postings (physical minus lazily expired)."""
        return self._size - self._dirty

    def __bool__(self) -> bool:
        return self._size > self._dirty

    @property
    def capacity(self) -> int:
        """Chunk capacity (or the minimum a first append would allocate)."""
        return self._cap if self._cap else _MIN_CAPACITY

    @property
    def physical_size(self) -> int:
        """Number of physically stored postings, including lazily expired ones."""
        return self._size

    @property
    def dirty(self) -> int:
        """Number of lazily expired postings awaiting physical compaction."""
        return self._dirty

    @property
    def expired_cutoff(self) -> float:
        """Highest expiry cutoff a scan has applied so far."""
        return self._expired_cutoff

    @property
    def min_live_timestamp(self) -> float:
        """Smallest timestamp among the live postings (``+inf`` when empty)."""
        return self._min_ts

    @property
    def max_live_timestamp(self) -> float:
        """Largest timestamp among the live postings (``-inf`` when empty)."""
        return self._max_ts

    @property
    def region(self) -> tuple[int, int]:
        """``(lo, hi)`` bounds of the physical region inside the arena."""
        lo = self._start + self._head
        return lo, lo + self._size

    def __iter__(self) -> Iterator[PostingEntry]:
        """Iterate the live postings oldest → newest as :class:`PostingEntry`."""
        arena = self._arena
        ids = arena.kernel._slot_ids
        cutoff = self._expired_cutoff if self._dirty else -_INF
        lo, hi = self.region
        for offset in range(lo, hi):
            timestamp = float(arena.ts[offset])
            if timestamp < cutoff:
                continue
            yield PostingEntry(
                vector_id=int(ids[arena.slots[offset]]),
                value=float(arena.values[offset]),
                prefix_norm=float(arena.pnorms[offset]),
                timestamp=timestamp,
            )

    def to_list(self) -> list[PostingEntry]:
        """Copy of the live postings from oldest to newest."""
        return list(self)

    # -- mutation ------------------------------------------------------------

    def append(self, entry: PostingEntry) -> None:
        """Append a posting at the tail."""
        self._append_fast(self._arena.kernel._intern(entry.vector_id),
                          entry.value, entry.prefix_norm, entry.timestamp)

    def _append_fast(self, slot: int, value: float, prefix_norm: float,
                     timestamp: float) -> None:
        """Field-level append used by the kernel's bulk indexing path."""
        arena = self._arena
        position = self._reserve_tail()
        arena.slots[position] = slot
        arena.values[position] = value
        arena.pnorms[position] = prefix_norm
        arena.ts[position] = timestamp
        if timestamp < self._min_ts:
            self._min_ts = timestamp
        if timestamp > self._max_ts:
            self._max_ts = timestamp

    def _reserve_tail(self) -> int:
        """Make room for one posting; returns its arena offset.

        The returned offset stays valid across subsequent reservations of
        *other* lists in the same bulk append (arena growth reallocates,
        relocation moves only the relocating chunk), which is what the
        kernel's vectorised ``index_vector_postings`` relies on.
        """
        arena = self._arena
        if self._head + self._size == self._cap:
            if self._head and self._size * 2 <= self._cap:
                self._slide()
            else:
                self._relocate(max(2 * self._cap, _MIN_CAPACITY))
        position = self._start + self._head + self._size
        self._size += 1
        arena.live_entries += 1
        return position

    def note_appended(self, count: int, min_ts: float, max_ts: float) -> None:
        """Record ``count`` postings written directly after reservation."""
        if min_ts < self._min_ts:
            self._min_ts = min_ts
        if max_ts > self._max_ts:
            self._max_ts = max_ts

    def _slide(self) -> None:
        """Move the region back over the dropped head (in-place rewrite)."""
        arena = self._arena
        lo, hi = self.region
        start = self._start
        for buf in (arena.slots, arena.values, arena.pnorms, arena.ts):
            buf[start:start + self._size] = buf[lo:hi].copy()
        arena.dead_entries -= self._head
        self._head = 0

    def _relocate(self, new_cap: int) -> None:
        """Move the region to a fresh chunk at the arena tail."""
        arena = self._arena
        lo, hi = self.region
        # The old arrays are captured before _alloc_chunk: growth replaces
        # the arena arrays, and the region must be copied out of the old
        # buffers it lives in.
        old = [arena.slots, arena.values, arena.pnorms, arena.ts]
        start = arena._alloc_chunk(new_cap)
        for source, name in zip(old, ("slots", "values", "pnorms", "ts")):
            getattr(arena, name)[start:start + self._size] = source[lo:hi]
        arena.dead_entries += self._cap - self._head
        self._start = start
        self._cap = new_cap
        self._head = 0

    def drop_oldest(self, count: int) -> int:
        """Remove up to ``count`` postings from the head; return the number dropped.

        Only valid on time-ordered lists, which never carry lazily expired
        postings (their head truncation is O(1) plus amortised arena
        maintenance).
        """
        if count <= 0:
            return 0
        arena = self._arena
        dropped = min(count, self._size)
        self._head += dropped
        self._size -= dropped
        arena.live_entries -= dropped
        arena.dead_entries += dropped
        if self._size:
            self._min_ts = float(arena.ts[self._start + self._head])
        else:
            self._min_ts = _INF
            self._max_ts = -_INF
        arena.maybe_compact()
        return dropped

    def note_lazy_expiry(self, cutoff: float, dirty: int,
                         min_live: float, max_live: float) -> None:
        """Record a deferred expiry pass performed by a scan kernel.

        ``dirty`` postings of the physical region fall below ``cutoff`` and
        have been reported as removed; ``min_live``/``max_live`` are the
        extreme timestamps among the survivors (``±inf`` when none survive).
        """
        self._expired_cutoff = cutoff
        self._dirty = dirty
        self._min_ts = min_live
        self._max_ts = max_live

    def compress(self, keep_mask: np.ndarray) -> int:
        """Keep only the physical postings selected by ``keep_mask``.

        Returns the number of *logical* removals — postings that were live
        before the call and are gone after it; lazily expired postings
        dropped here were already reported by :meth:`note_lazy_expiry`.
        """
        arena = self._arena
        live_before = self._size - self._dirty
        kept = int(np.count_nonzero(keep_mask))
        if kept == self._size:
            return 0
        lo, hi = self.region
        start = self._start
        for buf in (arena.slots, arena.values, arena.pnorms, arena.ts):
            buf[start:start + kept] = buf[lo:hi][keep_mask]
        arena.dead_entries -= self._head
        arena.live_entries -= self._size - kept
        self._head = 0
        self._size = kept
        if kept:
            kept_ts = arena.ts[start:start + kept]
            self._min_ts = float(kept_ts.min())
            self._max_ts = float(kept_ts.max())
            self._dirty = (int(np.count_nonzero(kept_ts < self._expired_cutoff))
                           if self._min_ts < self._expired_cutoff else 0)
        else:
            self._min_ts = _INF
            self._max_ts = -_INF
            self._dirty = 0
        if self._cap > _MIN_CAPACITY and kept * 4 < self._cap:
            released = _next_pow2(max(2 * kept, _MIN_CAPACITY))
            arena.dead_entries += self._cap - released
            self._cap = released
        arena.maybe_compact()
        return live_before - (self._size - self._dirty)
