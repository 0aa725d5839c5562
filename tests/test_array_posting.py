"""Edge-case coverage for single posting lists of the NumPy backend.

A list is a row of the arena directory
(:class:`~repro.backends.arena.PostingArena`): its region ``lo..hi`` inside
a chunk ending at ``cend``, and its lazy-expiry state (``dirty``, ``cut``,
``tmin``/``tmax``).  It mirrors the reference ring buffer's observable
behaviour while adding chunk capacity management and amortised lazy
expiry.  These tests drive one list through the kernel — appends, scans,
compactions — and pin the per-list corners: capacity growth and
hysteresis, in-place rewrites with degenerate outcomes, and the dirty
bookkeeping of deferred expiry.  Arena-level behaviour (chunk layout,
whole-arena compaction, gathers across growth) lives in
``tests/test_arena.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.backends.numpy_backend import NumpyKernel
from repro.core.vector import SparseVector
from repro.indexes.posting import InvertedIndex, PostingEntry

DIM = 0


class OneList:
    """A NumPy kernel's posting store holding the list of dimension 0."""

    def __init__(self) -> None:
        self.kernel = NumpyKernel()
        self.index = InvertedIndex(self.kernel.new_posting_list)
        self.relocations = 0

    @property
    def arena(self):
        return self.kernel._arena

    @property
    def lid(self) -> int:
        return self.index.get(DIM)._lid

    def append(self, vector_id: int, timestamp: float,
               value: float = 0.5) -> None:
        cend = int(self.arena.cend[self.lid]) if self.index.get(DIM) else None
        self.kernel.index_vector_postings(self.index, SparseVector(
            vector_id, timestamp, {DIM: value}, normalize=False))
        if cend is not None and int(self.arena.cend[self.lid]) != cend:
            self.relocations += 1

    def load(self, timestamps) -> None:
        """The list as a restore loads it: any timestamp order."""
        self.kernel.load_postings(self.index, {DIM: [
            PostingEntry(vector_id=vector_id, value=0.5, prefix_norm=0.1,
                         timestamp=timestamp)
            for vector_id, timestamp in enumerate(timestamps)]})

    def expire_ordered(self, cutoff: float) -> tuple[int, int]:
        """A time-ordered scan: truncates the head older than ``cutoff``."""
        query = SparseVector(10 ** 6, 10 ** 6, {DIM: 1.0})
        return self.kernel.scan_query_inv_stream(
            query, self.index, cutoff, self.kernel.new_accumulator())

    def expire_unordered(self, cutoff: float) -> tuple[int, int]:
        """An unordered-list scan: expires lazily (dirty postings)."""
        query = SparseVector(10 ** 6, 10 ** 6, {DIM: 1.0})
        return self.kernel.scan_query_stream(
            query, self.index, now=query.timestamp, cutoff=cutoff, decay=0.0,
            rs1=math.inf, decayed_maxima=None, sz1=0.0, threshold=2.0,
            use_ap=False, use_l2=False, time_ordered=False,
            size_filter=self.kernel.new_size_filter(),
            acc=self.kernel.new_accumulator())

    # -- the row ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.index.get(DIM))

    def column(self, name: str):
        return getattr(self.arena, name)[self.lid].item()

    @property
    def physical_size(self) -> int:
        return self.column("hi") - self.column("lo")

    @property
    def capacity(self) -> int:
        """Cells the list may fill before its next relocation."""
        return self.column("cend") - self.column("lo")

    def timestamps(self) -> list[float]:
        return [posting.timestamp for posting in self.index.get(DIM).to_list()]


class TestCapacityManagement:
    def test_grows_by_doubling(self):
        plist = OneList()
        for index in range(100):
            plist.append(index, float(index))
        assert len(plist) == 100
        assert plist.capacity >= 100
        # Doubling growth: capacity at most one doubling above need, and
        # a logarithmic number of moves.
        assert plist.capacity <= 2 * (100 + 1)
        assert plist.relocations <= 8

    def test_shrinks_in_one_step_not_by_single_halving(self):
        plist = OneList()
        for index in range(4096):
            plist.append(index, float(index))
        assert plist.capacity >= 4096
        # Truncating all but the newest posting leaves the arena mostly
        # waste; one compaction right-sizes the chunk.
        before = plist.arena.compactions
        assert plist.expire_ordered(4095.0) == (1, 4095)
        assert plist.arena.compactions == before + 1
        assert len(plist) == 1
        assert plist.capacity <= 2 + 1

    def test_no_shrink_grow_thrash_at_boundary(self):
        plist = OneList()
        for index in range(64):
            plist.append(index, float(index))
        plist.expire_ordered(48.0)  # 16 of 64 left
        assert len(plist) == 16
        relocations = plist.relocations
        compactions = plist.arena.compactions
        # A steady size under repeated append/drop: every move buys at
        # least ``size`` appends (no oscillation), and the free space never
        # exceeds one doubling.
        for round_index in range(200):
            plist.append(1000 + round_index, 64.0 + round_index)
            plist.expire_ordered(49.0 + round_index)
            assert len(plist) == 16
            assert plist.capacity <= 2 * (16 + 1) + 48
        moves = (plist.relocations - relocations
                 + plist.arena.compactions - compactions)
        assert moves <= 200 // 16 + 2

    def test_capacity_never_below_minimum(self):
        plist = OneList()
        plist.append(1, 0.0)
        assert plist.expire_ordered(5.0) == (0, 1)
        assert len(plist) == 0
        assert plist.capacity >= 0
        # An emptied list keeps working.
        plist.append(2, 6.0)
        assert plist.timestamps() == [6.0]

    def test_drop_oldest_negative_and_oversized(self):
        plist = OneList()
        for index in range(5):
            plist.append(index, float(index))
        # A cutoff below every posting drops nothing; one above drops all.
        assert plist.expire_ordered(-3.0) == (5, 0)
        assert len(plist) == 5
        assert plist.expire_ordered(100.0) == (0, 5)
        assert len(plist) == 0

    def test_dead_head_region_is_reclaimed(self):
        plist = OneList()
        for index in range(32):
            plist.append(index, float(index))
        plist.expire_ordered(20.0)
        assert plist.arena.dead_entries >= 20
        for index in range(100, 130):
            plist.append(index, float(index))
        assert len(plist) == 42
        # The truncated head cells are dead space that compaction returns.
        plist.arena.compact()
        assert plist.arena.dead_entries == 0
        assert plist.arena.tail < 2 * 42 + 2
        assert plist.timestamps() == [float(t) for t in range(20, 32)] + [
            float(t) for t in range(100, 130)]


class TestCompressEdgeCases:
    def test_compress_all_false_mask_empties_the_list(self):
        plist = OneList()
        plist.load([float(index) for index in range(20)])
        # Every posting expires: the list is at least half dirty, so the
        # scan rewrites it in place, empty.
        assert plist.expire_unordered(100.0) == (20, 20)
        assert len(plist) == 0
        assert plist.physical_size == 0
        assert plist.column("dirty") == 0
        assert plist.timestamps() == []
        # The list keeps working after being emptied.
        plist.append(99, 99.0)
        assert [posting.vector_id
                for posting in plist.index.get(DIM).to_list()] == [99]

    def test_compress_all_true_mask_is_a_noop(self):
        plist = OneList()
        plist.load([float(index) for index in range(10)])
        region = (plist.column("lo"), plist.column("hi"))
        assert plist.expire_unordered(-1.0) == (10, 0)
        assert len(plist) == 10
        assert (plist.column("lo"), plist.column("hi")) == region

    def test_compress_empty_mask_on_empty_list(self):
        plist = OneList()
        plist.append(1, 0.0)
        plist.expire_ordered(1.0)
        assert plist.physical_size == 0
        plist.arena.drop_expired(np.array([plist.lid]))
        assert len(plist) == 0
        assert plist.physical_size == 0

    def test_compact_on_empty_list(self):
        plist = OneList()
        plist.append(1, 0.0)
        plist.expire_ordered(1.0)
        plist.arena.compact()
        assert len(plist) == 0
        assert plist.capacity == 0
        plist.append(7, 3.0)
        assert len(plist) == 1

    def test_compact_counts_each_removal_once(self):
        plist = OneList()
        plist.load([float(index) for index in range(10)])
        # 4 of 10 expire: reported once, kept as dirty postings.
        assert plist.expire_unordered(4.0) == (10, 4)
        assert plist.column("dirty") == 4
        assert plist.physical_size == 10
        # Scanning again, or rewriting, reports nothing more.
        assert plist.expire_unordered(4.0) == (6, 0)
        plist.arena.drop_expired(np.array([plist.lid]))
        assert plist.column("dirty") == 0
        assert plist.expire_unordered(4.0) == (6, 0)
        assert plist.timestamps() == [4.0, 5.0, 6.0, 7.0, 8.0, 9.0]


class TestLazyExpiry:
    def test_note_lazy_expiry_hides_expired_postings(self):
        plist = OneList()
        plist.load([3.0, 1.0, 4.0, 0.5, 5.0])
        # 2 of 5 below the cutoff: less than half, so they stay stored.
        assert plist.expire_unordered(2.0) == (5, 2)
        assert len(plist) == 3
        assert plist.column("dirty") == 2
        assert plist.physical_size == 5
        assert plist.timestamps() == [3.0, 4.0, 5.0]

    def test_compress_after_lazy_expiry_reports_no_double_removal(self):
        plist = OneList()
        plist.load([3.0, 1.0, 4.0, 0.5, 5.0])
        plist.expire_unordered(2.0)
        live_before = plist.arena.live_entries
        plist.arena.drop_expired(np.array([plist.lid]))
        # The two lazily expired postings were already reported removed.
        assert plist.arena.live_entries == live_before - 2
        assert plist.column("dirty") == 0
        assert len(plist) == 3
        assert plist.column("tmin") == 3.0
        assert plist.expire_unordered(2.0) == (3, 0)

    def test_compact_respects_earlier_lazy_cutoff(self):
        plist = OneList()
        fresh = [float(t) for t in range(10, 30)]
        plist.load([3.0, 1.0, 4.0] + fresh)
        assert plist.expire_unordered(2.0) == (23, 1)
        # A later scan with a lower cutoff must not resurrect the lazily
        # removed posting, nor report it removed again.
        assert plist.expire_unordered(0.0) == (22, 0)
        assert plist.column("dirty") == 1
        assert plist.timestamps() == [3.0, 4.0] + fresh
        plist.arena.compact()
        assert plist.column("dirty") == 0
        assert plist.timestamps() == [3.0, 4.0] + fresh

    def test_min_max_timestamp_tracking(self):
        plist = OneList()
        for timestamp in (5.0, 2.0, 9.0):
            plist.append(int(timestamp), timestamp)
        assert plist.column("tmin") == 2.0
        assert plist.column("tmax") == 9.0
        plist.expire_unordered(3.0)
        assert plist.column("tmin") == 5.0
        assert plist.column("tmax") == 9.0
        plist.expire_unordered(9.5)
        assert plist.column("tmin") == math.inf
        assert plist.column("tmax") == -math.inf
