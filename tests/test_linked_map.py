"""Section 6.2's linked hash-map: ``R``/``Q`` and a partition's owned vectors.

The paper keeps the residual index ``R`` and the ``Q`` array in a linked
hash-map: O(1) lookup by vector id, and eviction in insertion order,
which is arrival order, once entries fall behind the time horizon.  Here
that map is a :class:`collections.OrderedDict` (CPython's linked
hash-map) in :class:`~repro.indexes.residual.ResidualIndex`, and in a
candidate partition's STR-INV index (``InvertedStreamingIndex._owned``,
the vectors it stores and their arrival steps).  These tests pin the map
behaviour those callers rely on.
"""

from __future__ import annotations

import pytest

from repro.core.vector import SparseVector
from repro.indexes.inverted import InvertedStreamingIndex
from repro.indexes.residual import ResidualEntry, ResidualIndex


def make_entry(vector_id: int, t: float = 0.0,
               boundary: int = 2) -> ResidualEntry:
    """An entry whose residual holds the first ``boundary`` of dims 1, 3, 5, 8."""
    vector = SparseVector(vector_id, t, {1: 0.2, 3: 0.3, 5: 0.6, 8: 0.7},
                          normalize=False)
    return ResidualEntry(vector=vector, boundary=boundary, pscore=0.4)


def stored(*entries: ResidualEntry) -> ResidualIndex:
    residual = ResidualIndex()
    for entry in entries:
        residual.add(entry)
    return residual


def arrival_ids(residual: ResidualIndex) -> list[int]:
    return [entry.vector_id for entry in residual.entries()]


def partition(k: int, of: int, timestamps) -> InvertedStreamingIndex:
    """Partition ``k`` of ``of`` of an STR-INV join fed one vector (all on
    dimension 1) per timestamp; its horizon is about 10."""
    index = InvertedStreamingIndex(0.5, 0.0693147, partition=(k, of))
    for vector_id, timestamp in enumerate(timestamps):
        index.process(SparseVector(vector_id, timestamp, {1: 1.0}))
    return index


class TestMappingProtocol:
    def test_set_and_get(self):
        entry = make_entry(7)
        residual = stored(entry)
        assert residual.get(7) is entry
        assert 7 in residual

    def test_get_missing_returns_default(self):
        assert ResidualIndex().get(7) is None
        assert stored(make_entry(7)).get(8) is None

    def test_contains_and_len(self):
        residual = stored(make_entry(1), make_entry(2))
        assert 1 in residual and 2 in residual and 3 not in residual
        assert len(residual) == 2

    def test_delete(self):
        """An evicted vector leaves the map and the dimension map."""
        residual = stored(make_entry(1, t=0.0), make_entry(2, t=9.0, boundary=1))
        residual.evict_older_than(5.0)
        assert 1 not in residual and residual.get(1) is None
        assert residual.candidates_for_dimensions([1, 3]) == {2}

    def test_pop(self):
        first, second = make_entry(1, t=0.0), make_entry(2, t=1.0)
        residual = stored(first, second, make_entry(3, t=9.0))
        assert residual.evict_older_than(5.0) == [first, second]
        assert arrival_ids(residual) == [3]

    def test_update_keeps_position(self):
        """Re-indexing shrinks a stored residual in place: the vector keeps
        its arrival position and still leaves first."""
        oldest = make_entry(1, t=0.0, boundary=3)
        residual = stored(oldest, make_entry(2, t=1.0))
        freed = oldest.shrink_to(1, 0.1)
        residual.forget_residual_dimension(1, freed)
        residual.note_residual_shrunk(len(freed))
        assert arrival_ids(residual) == [1, 2]
        assert residual.total_residual_coordinates() == 3
        assert residual.evict_older_than(0.5) == [oldest]
        assert residual.total_residual_coordinates() == 2

    def test_bool_and_clear(self):
        residual = stored(make_entry(1), make_entry(2))
        residual.clear()
        assert len(residual) == 0 and residual.total_residual_coordinates() == 0
        assert residual.candidates_for_dimensions([1, 3]) == set()
        residual.add(make_entry(3))
        assert arrival_ids(residual) == [3]

    def test_iteration_orders(self):
        """Entries iterate in arrival order, not id order."""
        residual = stored(make_entry(5, t=0.0), make_entry(2, t=1.0),
                          make_entry(9, t=2.0))
        assert arrival_ids(residual) == [5, 2, 9]


class TestInsertionOrderHelpers:
    def test_oldest_and_newest(self):
        """A partition owns every second arrival, oldest first."""
        index = partition(0, 2, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        assert list(index._owned) == [0, 2, 4]
        assert [step for _, step in index._owned.values()] == [0, 2, 4]

    def test_oldest_on_empty_raises(self):
        index = partition(0, 2, [])
        query = SparseVector(10, 0.0, {1: 1.0})
        with pytest.raises(KeyError):
            index.merge_key(query, 0)

    def test_newest_on_empty_raises(self):
        """A partition that stored nothing yet owns no candidate."""
        index = partition(1, 2, [0.0])
        assert not index._owned
        with pytest.raises(KeyError):
            index.merge_key(SparseVector(10, 1.0, {1: 1.0}), 0)

    def test_pop_oldest(self):
        """A query past the horizon pops the expired owned vectors from the
        head; the live ones keep their merge keys."""
        index = partition(0, 2, [0.0, 1.0, 2.0, 3.0, 11.5])
        assert list(index._owned) == [2, 4]
        query = SparseVector(10, 11.5, {1: 1.0})
        assert index.merge_key(query, 2) == (0, -2)
        with pytest.raises(KeyError):
            index.merge_key(query, 0)

    def test_evict_while(self):
        """Eviction pops the expired head and keeps the coordinate total and
        the dimension map in step."""
        residual = stored(make_entry(1, t=0.0, boundary=3),
                          make_entry(2, t=1.0, boundary=2),
                          make_entry(3, t=9.0, boundary=1))
        assert residual.total_residual_coordinates() == 6
        assert [e.vector_id for e in residual.evict_older_than(5.0)] == [1, 2]
        assert residual.total_residual_coordinates() == 1
        assert residual.candidates_for_dimensions([1, 3, 5]) == {3}

    def test_evict_while_stops_at_first_failure(self):
        """Eviction follows arrival order: an older timestamp behind a live
        head entry stays."""
        residual = stored(make_entry(1, t=9.0), make_entry(2, t=0.0))
        assert residual.evict_older_than(5.0) == []
        assert arrival_ids(residual) == [1, 2]

    def test_evict_while_on_empty(self):
        residual = ResidualIndex()
        assert residual.evict_older_than(5.0) == []
        assert residual.total_residual_coordinates() == 0
