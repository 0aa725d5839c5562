"""Property-based tests for the Section 6.2 structures (hypothesis).

Posting lists, truncated by the streaming scans, are checked against a
``collections.deque`` model per dimension (the reference layout) and
against the reference postings (the NumPy arena, whose directory must
stay consistent); the residual store and a partition's owned-vector map
are checked against ``OrderedDict`` models.  After any sequence of
operations each must hold exactly the same content in the same order.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.core.vector import SparseVector
from repro.indexes.inverted import InvertedStreamingIndex
from repro.indexes.posting import InvertedIndex
from repro.indexes.residual import ResidualEntry, ResidualIndex
from tests.test_arena import assert_arena_invariants

DIMS = (0, 1, 2)

# Operations on the posting store:
#   ("append", gap, dims) — a vector arriving ``gap`` after the last one,
#                           with a posting on each of ``dims``;
#   ("expire", back, inv) — a query on every dimension with cutoff
#                           ``back`` before the last arrival, scanned by the
#                           STR-INV scan (inv) or the time-ordered prefix
#                           scan.
posting_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 3),
                  st.sets(st.sampled_from(DIMS), min_size=1)),
        st.tuples(st.just("expire"), st.integers(0, 20), st.booleans()),
    ),
    max_size=120,
)

# Operations on the residual store:
#   ("add", gap, boundary) | ("evict", back)
residual_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 3), st.integers(0, 4)),
        st.tuples(st.just("evict"), st.integers(0, 20)),
    ),
    max_size=120,
)


class PostingStore:
    """One backend's posting store, fed and expired as a join would."""

    def __init__(self, backend: str) -> None:
        self.kernel = get_backend(backend)()
        self.index = InvertedIndex(self.kernel.new_posting_list)

    def append(self, vector: SparseVector) -> None:
        self.kernel.index_vector_postings(self.index, vector)

    def expire(self, cutoff: float, inv: bool) -> tuple[int, int]:
        kernel = self.kernel
        query = SparseVector(-1, 1e6, {dim: 1.0 for dim in DIMS})
        if inv:
            counts = kernel.scan_query_inv_stream(query, self.index, cutoff,
                                                  kernel.new_accumulator())
        else:
            counts = kernel.scan_query_stream(
                query, self.index, now=query.timestamp, cutoff=cutoff,
                decay=0.0, rs1=math.inf, decayed_maxima=None, sz1=0.0,
                threshold=2.0, use_ap=False, use_l2=False, time_ordered=True,
                size_filter=kernel.new_size_filter(),
                acc=kernel.new_accumulator())
        self.index.note_removed(counts[1])
        return counts

    def postings(self, dim: int) -> list:
        plist = self.index.get(dim)
        return [] if plist is None else plist.to_list()


def replay(operations, store: PostingStore):
    """Apply ``operations`` to ``store`` one at a time, yielding
    ``(operation, vector_id, now, counts)`` after each: the arrival's id
    and time, and the scan's ``(traversed, removed)`` (``None`` for an
    append)."""
    now = 0.0
    for vector_id, operation in enumerate(operations):
        if operation[0] == "append":
            _, gap, dims = operation
            now += gap
            store.append(SparseVector(vector_id, now,
                                      {dim: 0.5 for dim in dims},
                                      normalize=False))
            yield operation, vector_id, now, None
        else:
            _, back, inv = operation
            yield operation, vector_id, now, store.expire(now - back, inv)


class TestCircularBufferModel:
    @given(posting_ops)
    @settings(max_examples=150, deadline=None)
    def test_behaves_like_a_deque(self, operations):
        """The reference lists drop exactly the expired head, newest kept."""
        store = PostingStore("python")
        models: dict[int, deque] = {dim: deque() for dim in DIMS}
        for operation, vector_id, now, counts in replay(operations, store):
            if counts is None:
                for dim in operation[2]:
                    models[dim].append((vector_id, now))
            else:
                cutoff = now - operation[1]
                expired = 0
                for model in models.values():
                    while model and model[0][1] < cutoff:
                        model.popleft()
                        expired += 1
                live = sum(len(model) for model in models.values())
                assert counts == (live, expired)
            for dim, model in models.items():
                assert [(p.vector_id, p.timestamp)
                        for p in store.postings(dim)] == list(model)
                plist = store.index.get(dim)
                if plist is not None:
                    assert [p.vector_id for p in reversed(plist)] \
                        == [vector_id for vector_id, _ in reversed(model)]
            assert len(store.index) == sum(len(m) for m in models.values())

    @given(posting_ops)
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, operations):
        """The NumPy arena keeps every region inside its chunk and its
        waste bounded, and holds the reference's postings throughout."""
        reference, store = PostingStore("python"), PostingStore("numpy")
        expected = [counts for *_, counts in replay(operations, reference)]
        steps = replay(operations, store)
        for (*_, counts), reference_counts in zip(steps, expected):
            assert counts == reference_counts
            assert_arena_invariants(store.kernel._arena, store.index)
        for dim in DIMS:
            assert store.postings(dim) == reference.postings(dim)
        assert len(store.index) == len(reference.index)


def residual_entry(vector_id: int, timestamp: float,
                   boundary: int) -> ResidualEntry:
    vector = SparseVector(vector_id, timestamp,
                          {1: 0.2, 3: 0.3, 5: 0.6, 8: 0.7}, normalize=False)
    return ResidualEntry(vector=vector, boundary=boundary, pscore=0.4)


class TestLinkedHashMapModel:
    @given(residual_ops)
    @settings(max_examples=150, deadline=None)
    def test_behaves_like_an_ordered_dict(self, operations):
        """The residual store evicts the expired head in arrival order and
        keeps its coordinate total and dimension map in step."""
        residual = ResidualIndex()
        model: OrderedDict[int, tuple[float, int]] = OrderedDict()
        now = 0.0
        for vector_id, operation in enumerate(operations):
            if operation[0] == "add":
                _, gap, boundary = operation
                now += gap
                residual.add(residual_entry(vector_id, now, boundary))
                model[vector_id] = (now, boundary)
            else:
                cutoff = now - operation[1]
                expected = []
                while model and next(iter(model.values()))[0] < cutoff:
                    expected.append(model.popitem(last=False)[0])
                evicted = residual.evict_older_than(cutoff)
                assert [entry.vector_id for entry in evicted] == expected
            assert [entry.vector_id for entry in residual.entries()] \
                == list(model)
            assert len(residual) == len(model)
            assert residual.total_residual_coordinates() \
                == sum(boundary for _, boundary in model.values())
            assert residual.candidates_for_dimensions([1, 3, 5, 8]) \
                == {key for key, (_, boundary) in model.items() if boundary}

    @given(gaps=st.lists(st.integers(0, 6), max_size=60),
           layout=st.sampled_from([(0, 2), (1, 2), (0, 3), (2, 3)]))
    @settings(max_examples=50, deadline=None)
    def test_oldest_and_newest_match_model(self, gaps, layout):
        """A partition's owned-vector map holds its own arrivals inside the
        horizon, oldest first, newest last."""
        index = InvertedStreamingIndex(0.5, 0.0693147, partition=layout)
        model: OrderedDict[int, float] = OrderedDict()
        now = 0.0
        for step, gap in enumerate(gaps):
            now += gap
            index.process(SparseVector(step, now, {step % 4: 1.0}))
            cutoff = now - index.horizon
            while model and next(iter(model.values())) < cutoff:
                model.popitem(last=False)
            if step % layout[1] == layout[0]:
                model[step] = now
            assert list(index._owned) == list(model)
            if model:
                assert next(iter(index._owned)) == next(iter(model))
                assert next(reversed(index._owned)) == next(reversed(model))
