"""Arena-level tests for the shared posting store.

``tests/test_array_posting.py`` covers the per-list behaviour of
:class:`~repro.backends.arena.ArenaPostingList` (capacity hysteresis,
compress, lazy expiry).  The tests here pin down
the *arena*: chunk layout invariants, whole-arena compaction and its
budget amortisation, safety of gathers taken before growth/compaction
("grow while scanning"), and the per-dimension extents after a
reindexing-plus-expiry workload.
"""

from __future__ import annotations

import pytest

from repro.backends import available_backends

pytestmark = pytest.mark.skipif("numpy" not in available_backends(),
                                reason="NumPy backend unavailable")

if "numpy" in available_backends():
    import numpy as np

    from repro.backends.arena import _MIN_CAPACITY
    from repro.backends.numpy_backend import NumpyKernel
from repro.indexes.posting import PostingEntry


def entry(vector_id: int, timestamp: float, value: float = 0.5) -> PostingEntry:
    return PostingEntry(vector_id=vector_id, value=value, prefix_norm=0.1,
                        timestamp=timestamp)


def assert_arena_invariants(arena) -> None:
    """Structural invariants of the chunk layout and the accounting."""
    lists = arena._lists
    regions = []
    live = 0
    caps = 0
    heads = 0
    for plist in lists:
        if plist._cap == 0:
            assert plist._size == 0 and plist._head == 0
            continue
        assert plist._head + plist._size <= plist._cap
        start, cap = plist._start, plist._cap
        assert 0 <= start and start + cap <= arena.tail <= arena.capacity
        regions.append((start, start + cap))
        live += plist._size
        caps += cap
        heads += plist._head
    # Chunks never overlap.
    regions.sort()
    for (_, previous_end), (next_start, _) in zip(regions, regions[1:]):
        assert previous_end <= next_start
    # Accounting: live postings, and dead = holes + dropped head cells.
    assert arena.live_entries == live
    assert arena.dead_entries == (arena.tail - caps) + heads
    # The compaction trigger is amortised: dead never exceeds live for long;
    # after any maybe_compact() call the bound holds.
    arena.maybe_compact()
    assert arena.dead_entries <= max(arena.live_entries, 0)


class TestArenaCompaction:
    def test_compaction_reclaims_abandoned_chunks(self):
        kernel = NumpyKernel()
        arena = kernel._arena
        lists = [kernel.new_posting_list() for _ in range(8)]
        # Interleaved appends force every list through several relocations,
        # abandoning chunks behind them.
        for round_index in range(200):
            for offset, plist in enumerate(lists):
                plist.append(entry(offset, float(round_index)))
        assert arena.live_entries == 8 * 200
        assert_arena_invariants(arena)
        before = arena.compactions
        # Dropping most of every list makes the dead space dominant; the
        # next drop triggers a whole-arena compaction.
        for plist in lists:
            plist.drop_oldest(len(plist) - 3)
        assert arena.compactions > before
        assert arena.dead_entries <= arena.live_entries
        for plist in lists:
            assert len(plist) == 3
            assert plist.capacity <= _MIN_CAPACITY
        assert_arena_invariants(arena)

    def test_compaction_drops_lazily_expired_postings_for_free(self):
        kernel = NumpyKernel()
        plist = kernel.new_posting_list()
        for index in range(64):
            plist.append(entry(index, float(index)))
        lo, hi = plist.region
        keep = kernel._arena.ts[lo:hi] >= 32.0
        dirty = int((~keep).sum())
        plist.note_lazy_expiry(32.0, dirty, 32.0, 63.0)
        assert len(plist) == 32
        kernel._arena.compact()
        # The compaction dropped the dirty postings without re-reporting.
        assert plist.dirty == 0
        assert plist.physical_size == 32
        assert [posting.timestamp for posting in plist] == [float(t) for t in range(32, 64)]
        assert_arena_invariants(kernel._arena)

    def test_budget_pays_for_early_compaction(self):
        kernel = NumpyKernel()
        arena = kernel._arena
        plist = kernel.new_posting_list()
        for index in range(100):
            plist.append(entry(index, float(index)))
        arena.compact()  # settle the relocation debris from the appends
        assert arena.dead_entries == 0
        drop_compactions = arena.compactions
        # Light fragmentation (under a quarter of the live volume) is not
        # worth a rewrite, whatever the budget.
        plist.drop_oldest(10)
        assert arena.compactions == drop_compactions  # not mandatory yet
        assert arena.compact_if_affordable(budget=10_000) == 0
        # Meaningful fragmentation: paid for when the budget covers it.
        plist.drop_oldest(20)
        assert 0 < arena.dead_entries <= arena.live_entries
        consumed = arena.compact_if_affordable(budget=10)
        assert consumed == 0  # budget too small, nothing happened
        assert arena.dead_entries > 0
        consumed = arena.compact_if_affordable(budget=10_000)
        assert consumed == 70  # the live postings that had to be rewritten
        assert arena.dead_entries == 0
        assert_arena_invariants(arena)

    def test_mandatory_compaction_costs_no_budget(self):
        kernel = NumpyKernel()
        arena = kernel._arena
        plist = kernel.new_posting_list()
        for index in range(64):
            plist.append(entry(index, float(index)))
        # Whole list lazily expired: the postings stay physically present
        # (and counted as live) until a compaction drops them for free.
        plist.note_lazy_expiry(100.0, 64, float("inf"), float("-inf"))
        assert len(plist) == 0
        assert arena.live_entries == 64
        consumed = arena.compact_if_affordable(budget=10 ** 6)
        assert consumed <= 64  # at most the rewritten live postings
        assert arena.live_entries == 0  # dirty postings dropped with the move
        assert arena.dead_entries == 0
        assert plist.physical_size == 0
        assert_arena_invariants(arena)


class TestGrowWhileScanning:
    def test_gathers_survive_growth_and_compaction(self):
        """Fancy-index gathers copy, so arena rewrites cannot corrupt a scan."""
        kernel = NumpyKernel()
        arena = kernel._arena
        plist = kernel.new_posting_list()
        for index in range(32):
            plist.append(entry(index, float(index), value=0.25))
        lo, hi = plist.region
        gathered = arena.values[np.arange(lo, hi)]
        views = [buffer[lo:hi] for buffer in (arena.slots, arena.values,
                                              arena.pnorms, arena.ts)]
        view_copy = [buffer.copy() for buffer in views]
        # Grow the arena well past a reallocation and force a compaction.
        other = kernel.new_posting_list()
        for index in range(5000):
            other.append(entry(1000 + index, float(index)))
        other.drop_oldest(len(other) - 1)  # dead ≫ live → arena compaction
        assert arena.compactions >= 1
        # The gather took copies: unchanged.
        assert gathered.tolist() == [0.25] * 32
        # The old views still read the *old* buffers consistently (growth
        # and compaction allocate fresh arrays rather than rewriting).
        for view, copy in zip(views, view_copy):
            assert view.tolist() == copy.tolist()
        # And the list itself is intact through the move.
        assert [posting.vector_id for posting in plist] == list(range(32))
        assert_arena_invariants(arena)

    def test_bulk_append_positions_survive_relocations(self):
        """index_vector_postings reserves, then scatters: one list's
        relocation or an arena growth must not invalidate the other
        reservations of the same bulk append."""
        from repro.core.vector import SparseVector
        from repro.indexes.posting import InvertedIndex

        kernel = NumpyKernel()
        index = InvertedIndex(kernel.new_posting_list)
        # Pre-fill lists to different occupancies so some relocate during
        # the bulk appends below while others do not.
        for vector_id in range(40):
            vector = SparseVector(vector_id, float(vector_id),
                                  {dim: 1.0 for dim in range(vector_id % 7, vector_id % 7 + 9)})
            kernel.index_vector_postings(index, vector)
        for dim in index.dimensions():
            plist = index.get(dim)
            ids = [posting.vector_id for posting in plist]
            timestamps = [posting.timestamp for posting in plist]
            assert timestamps == sorted(timestamps)
            assert len(ids) == len(plist)
        assert_arena_invariants(kernel._arena)


class TestDeferredExpiryAcrossCompaction:
    def test_stale_mask_rebuilt_after_mid_scan_arena_compaction(self):
        """Regression: a fused scan's deferred lazy-expiry bookkeeping
        must survive an earlier list's compress triggering a whole-arena
        compaction (which drops later lists' old dirty postings and
        shrinks their regions, invalidating the masks captured at gather
        time)."""
        from repro.core.vector import SparseVector
        from repro.indexes.posting import InvertedIndex

        kernel = NumpyKernel()
        index = InvertedIndex(kernel.new_posting_list)
        # Dim 5 (scanned first): large and mostly expiring — its compress
        # triggers the arena compaction.  Dim 1 (scanned second): carries
        # pre-existing dirty postings from an earlier query.
        for vector_id in range(400):
            kernel.index_vector_postings(
                index, SparseVector(vector_id, float(vector_id), {5: 1.0}))
        for vector_id in range(400, 500):
            kernel.index_vector_postings(
                index, SparseVector(vector_id, float(vector_id),
                                    {1: 1.0, 5: 1.0}))
        size_filter = kernel.new_size_filter()

        def scan(query, cutoff):
            accumulator = kernel.new_accumulator()
            kernel._maintenance_budget = 0  # no budget-paid early cleanup
            return kernel.scan_query_stream(
                query, index, now=query.timestamp, cutoff=cutoff, decay=0.05,
                rs1=float("inf"), decayed_maxima=None, sz1=0.0,
                threshold=1e9, use_ap=False, use_l2=True, time_ordered=False,
                size_filter=size_filter, acc=accumulator)

        scan(SparseVector(1000, 520.0, {1: 1.0}), cutoff=430.0)
        assert index.get(1).dirty > 0
        compactions = kernel._arena.compactions
        traversed, removed = scan(SparseVector(1001, 540.0, {1: 1.0, 5: 1.0}),
                                  cutoff=480.0)
        assert kernel._arena.compactions > compactions  # the hazard fired
        assert traversed > 0 and removed > 0
        assert index.get(1).dirty == 0  # compressed with the rebuilt mask
        assert_arena_invariants(kernel._arena)


class TestExtentsAfterReindexAndExpiry:
    def test_extents_consistent_after_reindex_plus_expiry_stream(self):
        """Growing maxima force re-indexing (unordered appends) while a
        short horizon expires postings; afterwards every dimension's
        extent must describe exactly the postings iteration yields."""
        from repro.core.join import create_join
        from repro.core.vector import SparseVector

        kernel = NumpyKernel()
        join = create_join("STR-L2AP", 0.6, 0.08, backend=kernel)
        vectors = [
            SparseVector(index, float(index),
                         {dim: 1.0 + 0.06 * index
                          for dim in range(index % 5, index % 5 + 4)})
            for index in range(150)
        ]
        for vector in vectors:
            join.process(vector)
        arena = kernel._arena
        index = join.index._index
        total = 0
        for dim in index.dimensions():
            plist = index.get(dim)
            postings = plist.to_list()
            assert len(postings) == len(plist)
            # Live postings all respect the list's expiry high-water mark.
            for posting in postings:
                assert posting.timestamp >= plist.expired_cutoff or not plist.dirty
            if postings:
                timestamps = [posting.timestamp for posting in postings]
                assert plist.min_live_timestamp <= min(timestamps)
                assert plist.max_live_timestamp >= max(timestamps)
            total += len(postings)
        assert total == len(index)
        assert_arena_invariants(arena)
