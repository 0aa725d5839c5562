"""Section 6.2's circular posting buffer, as the reference backend lays it out.

The paper keeps each posting list in a circular buffer that doubles when
full and halves below a quarter, to avoid many small (de)allocations.
The reference backend's :class:`~repro.indexes.posting.PostingList` is a
plain ``list`` instead: the index appends at the tail, the streaming
scans walk it newest first and cut the expired head with ``del``, an
unordered list is rewritten without its expired postings, and CPython
grows and shrinks the allocation geometrically.  These tests drive the
lists through the reference kernel, as a join does.
"""

from __future__ import annotations

import math
import sys

import pytest

from repro.backends.reference import ReferenceKernel
from repro.core.vector import SparseVector
from repro.indexes.posting import InvertedIndex, PostingEntry, PostingList

DIM = 1


def entry(vector_id: int, timestamp: float) -> PostingEntry:
    return PostingEntry(vector_id=vector_id, value=0.5, prefix_norm=0.1,
                        timestamp=timestamp)


def filled(timestamps) -> tuple[ReferenceKernel, InvertedIndex]:
    """A reference index whose list for ``DIM`` holds one posting per
    timestamp, vector ids counting from 0 in arrival order."""
    kernel = ReferenceKernel()
    index = InvertedIndex(kernel.new_posting_list)
    for vector_id, timestamp in enumerate(timestamps):
        index.add(DIM, entry(vector_id, timestamp))
    return kernel, index


def inv_scan(kernel, index, cutoff):
    """One STR-INV query on ``DIM``; ``(traversed, removed, accumulator)``."""
    acc = kernel.new_accumulator()
    query = SparseVector(-1, 1000.0, {DIM: 1.0})
    traversed, removed = kernel.scan_query_inv_stream(query, index, cutoff,
                                                      acc)
    index.note_removed(removed)
    return traversed, removed, acc


def prefix_scan(kernel, index, cutoff, *, time_ordered):
    """One streaming prefix-filter query on ``DIM``; ``(traversed, removed)``."""
    query = SparseVector(-1, 1000.0, {DIM: 1.0})
    traversed, removed = kernel.scan_query_stream(
        query, index, now=query.timestamp, cutoff=cutoff, decay=0.0,
        rs1=math.inf, decayed_maxima=None, sz1=0.0, threshold=0.5,
        use_ap=False, use_l2=False, time_ordered=time_ordered,
        size_filter=kernel.new_size_filter(), acc=kernel.new_accumulator())
    index.note_removed(removed)
    return traversed, removed


def ids(index) -> list[int]:
    return [posting.vector_id for posting in index.get(DIM)]


class TestAppendAndAccess:
    def test_starts_empty(self):
        plist = ReferenceKernel().new_posting_list()
        assert isinstance(plist, PostingList)
        assert not plist and len(plist) == 0
        assert plist.to_list() == []

    def test_append_and_len(self):
        _, index = filled([0.0, 1.0, 2.0])
        assert len(index.get(DIM)) == len(index) == 3

    def test_getitem_from_head(self):
        _, index = filled([0.0, 1.0, 2.0])
        assert index.get(DIM)[0].vector_id == 0

    def test_negative_index(self):
        _, index = filled([0.0, 1.0, 2.0])
        assert index.get(DIM)[-1].vector_id == 2

    def test_out_of_range_raises(self):
        _, index = filled([0.0])
        with pytest.raises(IndexError):
            index.get(DIM)[1]

    def test_iteration_oldest_to_newest(self):
        _, index = filled([0.0, 1.0, 2.0, 3.0])
        assert ids(index) == [0, 1, 2, 3]
        assert [p.vector_id for p in index.get(DIM).to_list()] == [0, 1, 2, 3]

    def test_iter_newest_first(self):
        """The STR-INV scan walks the list newest first: candidates enter
        the score table in that order."""
        kernel, index = filled([0.0, 1.0, 2.0, 3.0])
        traversed, removed, acc = inv_scan(kernel, index, cutoff=-1.0)
        assert (traversed, removed) == (4, 0)
        assert list(acc.scores) == [3, 2, 1, 0]
        assert list(acc.arrival.values()) == [3.0, 2.0, 1.0, 0.0]


class TestResizing:
    def test_capacity_doubles_when_full(self):
        """Appends reallocate geometrically (CPython over-allocates), so
        an append is amortised O(1), as with the paper's doubling buffer."""
        _, index = filled([])
        plist = index.list_for(DIM)
        sizes = set()
        for vector_id in range(1000):
            index.add(DIM, entry(vector_id, float(vector_id)))
            sizes.add(sys.getsizeof(plist))
        assert len(sizes) < 100
        assert len(plist) == 1000

    def test_capacity_shrinks_when_sparse(self):
        """Truncating most of a list's head gives its allocation back."""
        kernel, index = filled([float(t) for t in range(64)])
        grown = sys.getsizeof(index.get(DIM))
        assert inv_scan(kernel, index, cutoff=60.0)[1] == 60
        assert sys.getsizeof(index.get(DIM)) < grown
        assert ids(index) == [60, 61, 62, 63]

    def test_capacity_never_below_minimum(self):
        """A list the scans empty keeps its dimension's slot in the index
        and shrinks to an empty list's allocation."""
        kernel, index = filled([0.0, 1.0])
        plist = index.get(DIM)
        assert inv_scan(kernel, index, cutoff=5.0)[1] == 2
        assert index.get(DIM) is plist and list(index.dimensions()) == [DIM]
        assert DIM not in index
        assert sys.getsizeof(plist) == sys.getsizeof(PostingList())

    def test_wrap_around_preserves_order(self):
        kernel, index = filled([float(t) for t in range(6)])
        assert inv_scan(kernel, index, cutoff=4.0)[1] == 4
        for vector_id in range(6, 12):
            index.add(DIM, entry(vector_id, float(vector_id)))
        assert ids(index) == [4, 5, 6, 7, 8, 9, 10, 11]
        assert len(index) == 8


class TestDropAndKeep:
    def test_drop_oldest(self):
        kernel, index = filled([0.0, 1.0, 2.0, 3.0, 4.0])
        traversed, removed, _ = inv_scan(kernel, index, cutoff=2.0)
        assert (traversed, removed) == (3, 2)
        assert ids(index) == [2, 3, 4]

    def test_drop_more_than_size(self):
        kernel, index = filled([0.0])
        traversed, removed, acc = inv_scan(kernel, index, cutoff=10.0)
        assert (traversed, removed) == (0, 1)
        assert len(index.get(DIM)) == len(index) == 0
        assert not acc.scores

    def test_drop_zero_or_negative_is_noop(self):
        kernel, index = filled([1.0, 2.0])
        before = index.get(DIM).to_list()
        assert inv_scan(kernel, index, cutoff=1.0)[:2] == (2, 0)
        assert index.get(DIM).to_list() == before

    def test_keep_newest(self):
        """The backward prefix-filter scan of a time-ordered list keeps the
        newest postings and truncates the rest."""
        kernel, index = filled([float(t) for t in range(6)])
        assert prefix_scan(kernel, index, 4.0, time_ordered=True) == (2, 4)
        assert ids(index) == [4, 5]

    def test_keep_newest_larger_than_size_is_noop(self):
        kernel, index = filled([3.0])
        assert prefix_scan(kernel, index, 0.0, time_ordered=True) == (1, 0)
        assert ids(index) == [0]

    def test_replace_all(self):
        """An unordered list (after L2AP re-indexing) is rewritten in place
        without its expired postings, keeping the survivors' order."""
        kernel, index = filled([5.0, 1.0, 6.0, 0.5, 7.0])
        plist = index.get(DIM)
        assert prefix_scan(kernel, index, 2.0, time_ordered=False) == (5, 2)
        assert index.get(DIM) is plist
        assert ids(index) == [0, 2, 4]

    def test_replace_all_with_empty(self):
        kernel, index = filled([1.0, 0.5])
        plist = index.get(DIM)
        assert prefix_scan(kernel, index, 2.0, time_ordered=False) == (2, 2)
        assert index.get(DIM) is plist and not plist
        assert len(index) == 0

    def test_clear(self):
        """An emptied list takes new postings like a fresh one."""
        kernel, index = filled([0.0, 1.0])
        inv_scan(kernel, index, cutoff=5.0)
        index.add(DIM, entry(7, 6.0))
        assert ids(index) == [7]
        assert inv_scan(kernel, index, cutoff=5.0)[:2] == (1, 0)

    def test_to_list_is_a_copy(self):
        _, index = filled([0.0])
        copy = index.get(DIM).to_list()
        assert type(copy) is list
        copy.append(entry(9, 9.0))
        assert len(index.get(DIM)) == 1
