"""Unit tests for posting lists and the inverted index container."""

from __future__ import annotations

import math

from repro.backends.reference import ReferenceKernel
from repro.core.vector import SparseVector
from repro.indexes.posting import InvertedIndex, PostingEntry, PostingList


def entry(vector_id: int, timestamp: float, value: float = 0.5) -> PostingEntry:
    return PostingEntry(vector_id=vector_id, value=value, prefix_norm=0.1,
                        timestamp=timestamp)


def expire(index: InvertedIndex, cutoff: float, *, time_ordered: bool) -> int:
    """Drop ``index``'s postings older than ``cutoff`` as the reference
    backend's streaming scan does (head truncation of time-ordered lists,
    a rewrite of unordered ones); return the number removed."""
    kernel = ReferenceKernel()
    query = SparseVector(-1, 100.0, {dim: 1.0 for dim in index.dimensions()})
    _, removed = kernel.scan_query_stream(
        query, index, now=query.timestamp, cutoff=cutoff, decay=0.0,
        rs1=math.inf, decayed_maxima=None, sz1=0.0, threshold=0.5,
        use_ap=False, use_l2=False, time_ordered=time_ordered,
        size_filter=kernel.new_size_filter(), acc=kernel.new_accumulator())
    index.note_removed(removed)
    return removed


class TestPostingList:
    def test_append_and_iterate(self):
        plist = PostingList()
        plist.append(entry(1, 0.0))
        plist.append(entry(2, 1.0))
        assert [e.vector_id for e in plist] == [1, 2]
        assert [e.vector_id for e in plist.iter_newest_first()] == [2, 1]

    def test_len_and_bool(self):
        plist = PostingList()
        assert not plist
        plist.append(entry(1, 0.0))
        assert plist
        assert len(plist) == 1

    def test_truncate_older_than(self):
        index = InvertedIndex()
        for i in range(5):
            index.add(1, entry(i, float(i)))
        removed = expire(index, 3.0, time_ordered=True)
        assert removed == 3
        assert [e.vector_id for e in index.get(1)] == [3, 4]

    def test_truncate_with_no_expired_entries(self):
        index = InvertedIndex()
        index.add(1, entry(1, 5.0))
        assert expire(index, 1.0, time_ordered=True) == 0

    def test_keep_newest(self):
        plist = PostingList()
        for i in range(5):
            plist.append(entry(i, float(i)))
        assert plist.keep_newest(2) == 3
        assert [e.vector_id for e in plist] == [3, 4]

    def test_compact_removes_expired_anywhere(self):
        index = InvertedIndex()
        # Out-of-order timestamps, as after L2AP re-indexing.
        for vector_id, timestamp in [(1, 5.0), (2, 1.0), (3, 6.0), (4, 0.5)]:
            index.add(1, entry(vector_id, timestamp))
        removed = expire(index, 2.0, time_ordered=False)
        assert removed == 2
        assert [e.vector_id for e in index.get(1)] == [1, 3]

    def test_compact_noop_when_nothing_expired(self):
        index = InvertedIndex()
        index.add(1, entry(1, 5.0))
        assert expire(index, 1.0, time_ordered=False) == 0
        assert len(index.get(1)) == 1

    def test_replace_all_entries(self):
        plist = PostingList()
        plist.append(entry(1, 0.0))
        plist.replace_all_entries([entry(7, 2.0), entry(8, 3.0)])
        assert [e.vector_id for e in plist] == [7, 8]

    def test_to_list(self):
        plist = PostingList()
        plist.append(entry(1, 0.0))
        assert [e.vector_id for e in plist.to_list()] == [1]


class TestInvertedIndex:
    def test_add_and_size(self):
        index = InvertedIndex()
        index.add(3, entry(1, 0.0))
        index.add(3, entry(2, 1.0))
        index.add(5, entry(1, 0.0))
        assert len(index) == 3
        assert 3 in index
        assert 7 not in index

    def test_get_missing_dimension(self):
        assert InvertedIndex().get(42) is None

    def test_list_for_creates_on_demand(self):
        index = InvertedIndex()
        plist = index.list_for(9)
        assert len(plist) == 0
        assert index.get(9) is plist

    def test_dimensions(self):
        index = InvertedIndex()
        index.add(1, entry(1, 0.0))
        index.add(4, entry(1, 0.0))
        assert sorted(index.dimensions()) == [1, 4]

    def test_note_removed_adjusts_size(self):
        index = InvertedIndex()
        index.add(1, entry(1, 0.0))
        index.get(1).keep_newest(0)
        index.note_removed(1)
        assert len(index) == 0

    def test_note_removed_never_goes_negative(self):
        index = InvertedIndex()
        index.note_removed(5)
        assert len(index) == 0

    def test_prune_older_than_ordered(self):
        index = InvertedIndex()
        for i in range(4):
            index.add(1, entry(i, float(i)))
        removed = expire(index, 2.0, time_ordered=True)
        assert removed == 2
        assert len(index) == 2

    def test_prune_older_than_unordered(self):
        index = InvertedIndex()
        index.add(1, entry(1, 5.0))
        index.add(1, entry(2, 0.5))
        removed = expire(index, 2.0, time_ordered=False)
        assert removed == 1
        assert len(index) == 1
