"""Edge-case coverage for the NumPy backend's arena posting lists.

The arena-backed posting list (an extent of the shared
:class:`~repro.backends.arena.PostingArena`) mirrors the reference ring
buffer's observable behaviour while adding chunk capacity management and
amortised lazy expiry.  These tests pin down the per-list corners: resize
behaviour at the capacity boundaries, compress with degenerate masks, and
the dirty-counter bookkeeping of deferred expiry.  Arena-level behaviour
(chunk layout, whole-arena compaction, gathers across growth) lives in
``tests/test_arena.py``.
"""

from __future__ import annotations

import math

import pytest

from repro.backends import available_backends

pytestmark = pytest.mark.skipif("numpy" not in available_backends(),
                                reason="NumPy backend unavailable")

if "numpy" in available_backends():
    import numpy as np

    from repro.backends.numpy_backend import _MIN_CAPACITY, NumpyKernel
from repro.indexes.posting import PostingEntry


def entry(vector_id: int, timestamp: float, value: float = 0.5) -> PostingEntry:
    return PostingEntry(vector_id=vector_id, value=value, prefix_norm=0.1,
                        timestamp=timestamp)


def fresh_list():
    return NumpyKernel().new_posting_list()


class TestCapacityManagement:
    def test_grows_by_doubling(self):
        plist = fresh_list()
        for index in range(100):
            plist.append(entry(index, float(index)))
        assert len(plist) == 100
        assert plist.capacity >= 100
        # Power-of-two growth: capacity is at most one doubling above need.
        assert plist.capacity <= 256

    def test_shrinks_in_one_step_not_by_single_halving(self):
        plist = fresh_list()
        for index in range(1024):
            plist.append(entry(index, float(index)))
        grown = plist.capacity
        assert grown >= 1024
        plist.drop_oldest(len(plist) - 1)
        # A single maintenance step must land at a right-sized capacity,
        # not linger one halving below the high-water mark.
        assert len(plist) == 1
        assert plist.capacity <= max(_MIN_CAPACITY, 8)

    def test_no_shrink_grow_thrash_at_boundary(self):
        plist = fresh_list()
        for index in range(64):
            plist.append(entry(index, float(index)))
        # Hover around a quarter occupancy: repeated append/drop must keep
        # the capacity stable (hysteresis), not oscillate between sizes.
        plist.drop_oldest(48)  # 16 of 64 → may shrink once
        stable = plist.capacity
        for round_index in range(200):
            plist.append(entry(1000 + round_index, 64.0 + round_index))
            plist.drop_oldest(1)
            assert plist.capacity in (stable, stable * 2)

    def test_capacity_never_below_minimum(self):
        plist = fresh_list()
        plist.append(entry(1, 0.0))
        plist.drop_oldest(5)
        assert plist.capacity >= _MIN_CAPACITY
        assert len(plist) == 0

    def test_drop_oldest_negative_and_oversized(self):
        plist = fresh_list()
        for index in range(5):
            plist.append(entry(index, float(index)))
        assert plist.drop_oldest(-3) == 0
        assert len(plist) == 5
        assert plist.drop_oldest(100) == 5
        assert len(plist) == 0

    def test_dead_head_region_is_reclaimed(self):
        plist = fresh_list()
        for index in range(32):
            plist.append(entry(index, float(index)))
        plist.drop_oldest(20)
        # After dropping well past half, the head offset must be repacked so
        # appends do not hit the capacity wall early.
        for index in range(100, 130):
            plist.append(entry(index, float(index)))
        assert len(plist) == 42


class TestCompressEdgeCases:
    def test_compress_all_false_mask_empties_the_list(self):
        plist = fresh_list()
        for index in range(20):
            plist.append(entry(index, float(index)))
        removed = plist.compress(np.zeros(20, dtype=bool))
        assert removed == 20
        assert len(plist) == 0
        assert list(plist) == []
        assert plist.capacity == _MIN_CAPACITY
        # The list keeps working after being emptied.
        plist.append(entry(99, 99.0))
        assert [posting.vector_id for posting in plist] == [99]

    def test_compress_all_true_mask_is_a_noop(self):
        plist = fresh_list()
        for index in range(10):
            plist.append(entry(index, float(index)))
        assert plist.compress(np.ones(10, dtype=bool)) == 0
        assert len(plist) == 10

    def test_compress_empty_mask_on_empty_list(self):
        plist = fresh_list()
        assert plist.compress(np.zeros(0, dtype=bool)) == 0
        assert len(plist) == 0

    def test_compact_on_empty_list(self):
        plist = fresh_list()
        plist._arena.compact()
        assert len(plist) == 0
        assert plist.capacity == _MIN_CAPACITY
        plist.append(entry(7, 3.0))
        assert len(plist) == 1

    def test_compact_counts_each_removal_once(self):
        plist = fresh_list()
        for index in range(10):
            plist.append(entry(index, float(index)))
        assert plist.compress(np.arange(10.0) >= 4.0) == 4
        assert plist.compress(np.ones(6, dtype=bool)) == 0
        assert [posting.timestamp for posting in plist] == [4.0, 5.0, 6.0,
                                                            7.0, 8.0, 9.0]


class TestLazyExpiry:
    def test_note_lazy_expiry_hides_expired_postings(self):
        plist = fresh_list()
        timestamps = [3.0, 1.0, 4.0, 0.5, 5.0]
        for index, timestamp in enumerate(timestamps):
            plist.append(entry(index, timestamp))
        # Mark everything below 2.0 as logically removed (2 postings).
        dirty = sum(1 for timestamp in timestamps if timestamp < 2.0)
        live = [timestamp for timestamp in timestamps if timestamp >= 2.0]
        plist.note_lazy_expiry(2.0, dirty, min(live), max(live))
        assert len(plist) == 3
        assert plist.dirty == 2
        assert plist.physical_size == 5
        assert [posting.timestamp for posting in plist] == [3.0, 4.0, 5.0]

    def test_compress_after_lazy_expiry_reports_no_double_removal(self):
        plist = fresh_list()
        timestamps = [3.0, 1.0, 4.0, 0.5, 5.0]
        for index, timestamp in enumerate(timestamps):
            plist.append(entry(index, timestamp))
        plist.note_lazy_expiry(2.0, 2, 3.0, 5.0)
        live_ts = np.array(timestamps)
        removed = plist.compress(live_ts >= 2.0)
        # The two lazily expired postings were already reported removed.
        assert removed == 0
        assert plist.dirty == 0
        assert len(plist) == 3
        assert plist.min_live_timestamp == 3.0

    def test_compact_respects_earlier_lazy_cutoff(self):
        plist = fresh_list()
        for index, timestamp in enumerate([3.0, 1.0, 4.0]):
            plist.append(entry(index, timestamp))
        plist.note_lazy_expiry(2.0, 1, 3.0, 4.0)
        # A mask that keeps the lazily removed posting must not resurrect
        # it, nor report it removed again: only the 4.0 posting counts.
        assert plist.compress(np.array([True, True, False])) == 1
        assert plist.dirty == 1
        assert [posting.timestamp for posting in plist] == [3.0]

    def test_min_max_timestamp_tracking(self):
        plist = fresh_list()
        assert plist.min_live_timestamp == math.inf
        for timestamp in (5.0, 2.0, 9.0):
            plist.append(entry(int(timestamp), timestamp))
        assert plist.min_live_timestamp == 2.0
        assert plist._max_ts == 9.0
        plist.compress(np.array([True, False, True]))
        assert plist.min_live_timestamp == 5.0
        assert plist._max_ts == 9.0
