"""Arena-level tests for the shared posting store.

``tests/test_array_posting.py`` covers single lists (capacity growth and
hysteresis, in-place rewrites, lazy expiry).  The tests here pin down the
*arena*: the directory's layout invariants and accounting, whole-arena
compaction and its budget amortisation, the bound on allocated cells,
safety of gathers taken before growth/compaction ("grow while scanning"),
and the per-dimension directory rows after a reindexing-plus-expiry
workload.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.numpy_backend import NumpyKernel
from repro.core.vector import SparseVector
from repro.indexes.posting import InvertedIndex, PostingEntry


def entry(vector_id: int, timestamp: float, value: float = 0.5) -> PostingEntry:
    return PostingEntry(vector_id=vector_id, value=value, prefix_norm=0.1,
                        timestamp=timestamp)


def store():
    kernel = NumpyKernel()
    return kernel, InvertedIndex(kernel.new_posting_list)


def append(kernel, index, vector_id, timestamp, dims, value=0.5):
    kernel.index_vector_postings(index, SparseVector(
        vector_id, timestamp, {dim: value for dim in dims}, normalize=False))


def expire(kernel, index, dims, cutoff):
    """A time-ordered scan of ``dims``: truncates every expired head."""
    query = SparseVector(10 ** 6, 10 ** 6, {dim: 1.0 for dim in dims})
    return kernel.scan_query_inv_stream(query, index, cutoff,
                                        kernel.new_accumulator())


def expire_unordered(kernel, index, dims, cutoff):
    """An unordered-list scan of ``dims``: expires lazily."""
    query = SparseVector(10 ** 6, 10 ** 6, {dim: 1.0 for dim in dims})
    return kernel.scan_query_stream(
        query, index, now=query.timestamp, cutoff=cutoff, decay=0.0,
        rs1=math.inf, decayed_maxima=None, sz1=0.0, threshold=2.0,
        use_ap=False, use_l2=False, time_ordered=False,
        size_filter=kernel.new_size_filter(), acc=kernel.new_accumulator())


def assert_arena_invariants(arena, index=None) -> None:
    """Structural invariants of the directory and the accounting."""
    count = arena.lists
    lo, hi, cend = arena.lo[:count], arena.hi[:count], arena.cend[:count]
    dirty = arena.dirty[:count]
    assert (lo <= hi).all() and (hi <= cend).all()
    assert (cend <= arena.tail).all() and arena.tail <= arena.capacity
    assert (dirty <= hi - lo).all()
    # List 0 is the empty sentinel an absent dimension reads.
    assert lo[0] == hi[0] == 0 and dirty[0] == 0
    # Chunks never overlap: every list's region and free space is its own.
    used = np.flatnonzero(cend > lo)
    spans = sorted(zip(lo[used].tolist(), cend[used].tolist()))
    for (_, previous_end), (next_start, _) in zip(spans, spans[1:]):
        assert previous_end <= next_start
    # Accounting: stored and dirty postings, and dead = cells outside every
    # list's region and free space.
    assert arena.live_entries == int((hi - lo).sum())
    assert arena.dirty_entries == int(dirty.sum())
    assert arena.dead_entries == arena.tail - int((cend - lo).sum())
    if index is not None:
        # The dimension table names each dimension's own list.
        for dim in index.dimensions():
            lid = index.get(dim)._lid
            assert arena.lookup(np.array([dim], dtype=np.int64))[0] == lid
    # Compaction is amortised: after any maybe_compact() call the waste is
    # at most the live postings (or the small-arena floor).
    arena.maybe_compact()
    live = arena.logical_entries
    assert arena.tail - live <= max(live, 1024)


class TestArenaCompaction:
    def test_compaction_reclaims_abandoned_chunks(self):
        kernel, index = store()
        arena = kernel._arena
        dims = range(8)
        # Every round appends to all 8 lists, so each relocates several
        # times, abandoning chunks behind it.
        for round_index in range(200):
            append(kernel, index, round_index, float(round_index), dims)
        assert arena.live_entries == 8 * 200
        assert_arena_invariants(arena, index)
        before = arena.compactions
        # Truncating most of every list makes the waste dominant; the
        # scan's settle compacts the whole arena.
        assert expire(kernel, index, dims, 197.0) == (24, 8 * 197)
        assert arena.compactions > before
        assert arena.dead_entries == 0
        for dim in dims:
            assert len(index.get(dim)) == 3
            lid = index.get(dim)._lid
            assert arena.cend[lid] - arena.lo[lid] <= 3 + 2
        assert_arena_invariants(arena, index)

    def test_compaction_drops_lazily_expired_postings_for_free(self):
        kernel, index = store()
        kernel.load_postings(index, {0: [entry(t, float(t)) for t in range(64)]})
        # 31 of 64 expire: reported once, kept as dirty postings (less than
        # half, so the scan does not rewrite the list).
        assert expire_unordered(kernel, index, [0], 31.0) == (64, 31)
        lid = index.get(0)._lid
        assert kernel._arena.dirty[lid] == 31
        assert len(index.get(0)) == 33
        kernel._arena.compact()
        # The compaction dropped the dirty postings without re-reporting.
        assert kernel._arena.dirty[lid] == 0
        assert kernel._arena.hi[lid] - kernel._arena.lo[lid] == 33
        assert [posting.timestamp for posting in index.get(0).to_list()] == [
            float(t) for t in range(31, 64)]
        assert expire_unordered(kernel, index, [0], 31.0) == (33, 0)
        assert_arena_invariants(kernel._arena, index)

    def test_budget_pays_for_early_compaction(self):
        kernel, index = store()
        arena = kernel._arena
        for vector_id in range(3000):
            append(kernel, index, vector_id, float(vector_id), [0])
        arena.compact()  # settle the relocation debris from the appends
        assert arena.dead_entries == 0
        # Light fragmentation (under a quarter of the live volume) is not
        # worth a rewrite, whatever the budget.
        expire(kernel, index, [0], 300.0)
        compactions = arena.compactions
        assert arena.compact_if_affordable(budget=10_000) == 0
        assert arena.compactions == compactions
        # Meaningful fragmentation: paid for when the budget covers it.
        expire(kernel, index, [0], 800.0)
        assert 0 < arena.dead_entries <= arena.live_entries
        consumed = arena.compact_if_affordable(budget=10)
        assert consumed == 0  # budget too small, nothing happened
        assert arena.dead_entries > 0
        consumed = arena.compact_if_affordable(budget=10_000)
        assert consumed == 2200  # the live postings that had to be rewritten
        assert arena.dead_entries == 0
        assert_arena_invariants(arena, index)

    def test_mandatory_compaction_costs_no_budget(self):
        kernel, index = store()
        arena = kernel._arena
        kernel.load_postings(index, {
            0: [entry(t, float(t)) for t in range(3000)],
            1: [entry(t, float(t)) for t in range(0, 3000, 50)]})
        # Dim 1 lazily expires 29 of 60 postings; they stay stored (and
        # counted as stored) until a compaction drops them for free.
        expire_unordered(kernel, index, [1], 1450.0)
        assert arena.dirty_entries == 29
        # A truncation leaves far more waste than live postings.
        lid = index.get(0)._lid
        arena.truncate(np.array([lid]), arena.hi[[lid]] - 100,
                       np.array([2900.0]), np.array([2999.0]), 2900)
        consumed = arena.compact_if_affordable(budget=10 ** 6)
        assert consumed == 0
        assert arena.live_entries == 100 + 31  # dirty dropped with the move
        assert arena.dirty_entries == 0
        assert arena.dead_entries == 0
        assert len(index.get(1)) == 31
        assert_arena_invariants(arena, index)


class TestOneStorePerKernel:
    def test_a_second_store_is_refused(self):
        """The directory maps dimensions of one posting store; a kernel
        handed a second store raises instead of mixing their lists."""
        from repro.exceptions import SSSJError

        kernel, index = store()
        append(kernel, index, 0, 0.0, [1, 2])
        other = InvertedIndex(kernel.new_posting_list)
        with pytest.raises(SSSJError):
            append(kernel, other, 1, 1.0, [1])
        with pytest.raises(SSSJError):
            expire(kernel, other, [1], 0.0)
        assert [posting.vector_id for posting in index.get(1).to_list()] == [0]


class TestFarDimensions:
    @pytest.mark.parametrize("algorithm", ["STR-L2", "STR-L2AP", "STR-INV"])
    def test_dimensions_past_the_dense_table_match_the_reference(
            self, algorithm):
        """Dimensions at or above ``_DENSE_DIM_LIMIT`` map to their lists
        through a dict; joins mixing them with small ones report what the
        reference backend reports."""
        import random

        from repro.backends.arena import _DENSE_DIM_LIMIT
        from repro.core.join import create_join

        rng = random.Random(3)
        vectors = [SparseVector(index, 0.5 * index, {
            rng.choice([rng.randrange(12), _DENSE_DIM_LIMIT + rng.randrange(12),
                        (1 << 40) + rng.randrange(8)]): rng.uniform(0.1, 1.0)
            for _ in range(rng.randint(1, 4))}) for index in range(300)]
        outcomes = []
        for backend in ("python", "numpy"):
            join = create_join(algorithm, 0.5, 0.05, backend=backend)
            pairs = [(pair.key, pair.similarity)
                     for vector in vectors for pair in join.process(vector)]
            outcomes.append((pairs, join.stats.entries_traversed,
                             join.stats.entries_pruned))
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0][0]) > 20
        assert len(join.index.kernel._arena.far_lids) > 0


class TestArenaSlack:
    def test_allocated_cells_stay_within_twice_the_live_postings(self):
        """A NumPy STR-L2 join over a service_mt-shaped session stream —
        tweets with Poisson arrivals, a 60-unit horizon, many short lists —
        ends with at most twice as many allocated cells as live postings,
        as it does at every step past the small-arena floor."""
        from repro.core.join import create_join
        from repro.datasets import SyntheticCorpusGenerator, get_profile

        profile = dataclasses.replace(get_profile("tweets"),
                                      arrival_process="poisson")
        vectors = SyntheticCorpusGenerator(profile, seed=3).stream(1800)
        kernel = NumpyKernel()
        join = create_join("STR-L2", 0.6, math.log(1 / 0.6) / 60.0,
                           backend=kernel)
        for vector in vectors:
            join.process(vector)
            arena = kernel._arena
            assert arena.tail <= max(2 * arena.logical_entries,
                                     arena.logical_entries + 1024)
        live = len(join.index._index)
        assert live > 4000
        assert kernel._arena.tail <= 2 * live
        assert_arena_invariants(kernel._arena, join.index._index)


class TestGrowWhileScanning:
    def test_gathers_survive_growth_and_compaction(self):
        """Fancy-index gathers copy, so arena rewrites cannot corrupt a scan."""
        kernel, index = store()
        arena = kernel._arena
        for vector_id in range(32):
            append(kernel, index, vector_id, float(vector_id), [0], value=0.25)
        lid = index.get(0)._lid
        lo, hi = int(arena.lo[lid]), int(arena.hi[lid])
        gathered = arena.values[np.arange(lo, hi)]
        views = [buffer[lo:hi] for buffer in (arena.slots, arena.values,
                                              arena.pnorms, arena.ts)]
        view_copy = [buffer.copy() for buffer in views]
        # Grow the arena well past a reallocation and force a compaction.
        for vector_id in range(5000):
            append(kernel, index, 1000 + vector_id, 100.0 + vector_id, [1])
        compactions = arena.compactions
        expire(kernel, index, [1], 5099.0)  # waste ≫ live → compaction
        assert arena.compactions > compactions
        # The gather took copies: unchanged.
        assert gathered.tolist() == [0.25] * 32
        # The old views still read the *old* buffers consistently (growth
        # and compaction allocate fresh arrays rather than rewriting).
        for view, copy in zip(views, view_copy):
            assert view.tolist() == copy.tolist()
        # And the list itself is intact through the move.
        assert [posting.vector_id for posting in index.get(0).to_list()] == (
            list(range(32)))
        assert_arena_invariants(arena, index)

    def test_bulk_append_positions_survive_relocations(self):
        """index_vector_postings reserves, then scatters: one list's
        relocation or an arena growth must not invalidate the other
        reservations of the same bulk append."""
        kernel, index = store()
        # Lists at different occupancies, so some relocate during each
        # bulk append while others do not.
        for vector_id in range(40):
            vector = SparseVector(vector_id, float(vector_id),
                                  {dim: 1.0 + dim for dim in
                                   range(vector_id % 7, vector_id % 7 + 9)})
            kernel.index_vector_postings(index, vector)
        for dim in index.dimensions():
            postings = index.get(dim).to_list()
            timestamps = [posting.timestamp for posting in postings]
            assert timestamps == sorted(timestamps)
            assert [posting.vector_id for posting in postings] == [
                vector_id for vector_id in range(40)
                if vector_id % 7 <= dim < vector_id % 7 + 9]
            assert len(postings) == len(index.get(dim))
        assert_arena_invariants(kernel._arena, index)


class TestDeferredExpiryAcrossCompaction:
    def test_stale_mask_rebuilt_after_mid_scan_arena_compaction(self):
        """A fused scan defers the in-place rewrite of half-expired lists
        and any arena compaction until its reads are done; both must run
        in the same settle without corrupting each other: the rewrite
        first (it reads the lists' regions), then the compaction (which
        drops the other lists' older dirty postings)."""
        from repro.backends.reference import ReferenceKernel

        outcomes = []
        for kernel in (ReferenceKernel(), NumpyKernel()):
            index = InvertedIndex(kernel.new_posting_list)
            # Dim 5 (scanned first): large and mostly expiring — enough
            # waste to force the arena compaction.  Dim 1 (scanned
            # second): carries dirty postings from an earlier query.
            for vector_id in range(4000):
                kernel.index_vector_postings(
                    index, SparseVector(vector_id, float(vector_id), {5: 1.0}))
            for vector_id in range(4000, 4100):
                kernel.index_vector_postings(
                    index, SparseVector(vector_id, float(vector_id),
                                        {1: 1.0, 5: 1.0}))
            counts = [expire_unordered(kernel, index, [1], 4030.0)]
            if isinstance(kernel, NumpyKernel):
                arena = kernel._arena
                assert arena.dirty[index.get(1)._lid] > 0
                compactions = arena.compactions
            counts.append(expire_unordered(kernel, index, [1, 5], 4080.0))
            if isinstance(kernel, NumpyKernel):
                assert arena.compactions > compactions  # the hazard fired
                assert arena.dirty[index.get(1)._lid] == 0
                assert arena.dirty[index.get(5)._lid] == 0
                assert_arena_invariants(arena, index)
            outcomes.append((counts, index.get(1).to_list(),
                             index.get(5).to_list()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0][1][1] > 0


class TestExtentsAfterReindexAndExpiry:
    def test_extents_consistent_after_reindex_plus_expiry_stream(self):
        """Growing maxima force re-indexing (unordered appends) while a
        short horizon expires postings; afterwards every dimension's
        directory row must describe exactly the postings it yields."""
        from repro.core.join import create_join

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
            lid = plist._lid
            postings = plist.to_list()
            assert len(postings) == len(plist)
            assert len(postings) == (arena.hi[lid] - arena.lo[lid]
                                     - arena.dirty[lid])
            # Live postings all respect the list's expiry high-water mark.
            for posting in postings:
                assert posting.timestamp >= arena.cut[lid] or not arena.dirty[lid]
            if postings:
                timestamps = [posting.timestamp for posting in postings]
                assert arena.tmin[lid] <= min(timestamps)
                assert arena.tmax[lid] >= max(timestamps)
            total += len(postings)
        assert total == len(index)
        assert_arena_invariants(arena, index)


interleaved_steps = st.lists(
    st.tuples(st.dictionaries(st.integers(min_value=0, max_value=7),
                              st.floats(min_value=0.05, max_value=1.0),
                              min_size=1, max_size=5),
              st.floats(min_value=0.0, max_value=2.0),
              st.sampled_from(["scan"] * 4 + ["compact", "switch",
                                              "checkpoint"])),
    min_size=1, max_size=60)


class TestInterleavedMaintenance:
    @settings(max_examples=60, deadline=None)
    @given(algorithm=st.sampled_from(["STR-L2AP", "STR-L2"]),
           steps=interleaved_steps)
    def test_every_step_matches_the_reference(self, algorithm, steps):
        """Appends (with STR-L2AP's re-indexing moves, which make lists
        unordered), scans at advancing cutoffs, whole-arena compactions,
        kernel switches and checkpoint round trips, in any order: after
        every step each list holds what the reference backend's holds,
        and every scan traversed and removed as many postings."""
        from repro.core.checkpoint import restore_join, snapshot_join
        from repro.core.join import create_join

        reference = create_join(algorithm, 0.5, 0.1, backend="python")
        join = create_join(algorithm, 0.5, 0.1, backend="numpy")
        now = 0.0
        for vector_id, (coords, gap, maintenance) in enumerate(steps):
            now += gap
            vector = SparseVector(vector_id, now, coords)
            expected = [(pair.key, pair.similarity)
                        for pair in reference.process(vector)]
            assert [(pair.key, pair.similarity)
                    for pair in join.process(vector)] == expected
            if maintenance == "compact":
                join.index.kernel._arena.compact()
            elif maintenance == "switch":
                join.index.switch_kernel(NumpyKernel())
            elif maintenance == "checkpoint":
                join = restore_join(snapshot_join(join))
            assert (join.index.posting_entries()
                    == reference.index.posting_entries())
            for counter in ("entries_traversed", "entries_pruned",
                            "candidates_generated", "full_similarities"):
                assert (getattr(join.stats, counter)
                        == getattr(reference.stats, counter)), counter
            assert_arena_invariants(join.index.kernel._arena,
                                    join.index._index)
