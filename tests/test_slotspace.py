"""Property tests for the slot-space candidate pipeline.

The NumPy backend keeps candidates in ``(slots, partial_scores)`` arrays
from scan through verification (see ``docs/ARCHITECTURE.md``, "Candidate
data path"), while the reference backend keeps the original dictionaries.
These tests assert that the two data paths are observationally identical on
randomised streams: the same pairs with the same similarities, and the same
``candidates_generated`` / ``full_similarities`` / ``entries_traversed`` /
``entries_pruned`` operation counters — including the regimes the
acceptance gate does not reach: ``θ = 1``, aggressive decay (so postings
expire and the amortised lazy compaction runs), and re-indexing-heavy
streams whose unordered lists mix lazy and physical removal.

The fused whole-query arena scan is the NumPy backend's only
candidate-generation path, so parity with the reference backend's per-term
loops is checked directly here, counter for counter.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SparseVector, available_backends, create_join
from repro.core.results import JoinStatistics
from tests.conftest import accelerated_backends

pytestmark = pytest.mark.skipif("numpy" not in available_backends(),
                                reason="NumPy backend unavailable")

PARITY_COUNTERS = ("candidates_generated", "full_similarities",
                   "entries_traversed", "entries_pruned", "entries_indexed",
                   "residual_entries", "reindexings", "reindexed_entries",
                   "pairs_output")


def run_backend(algorithm, vectors, threshold, decay, backend):
    stats = JoinStatistics()
    join = create_join(algorithm, threshold, decay, stats=stats,
                       backend=backend)
    pairs = {pair.key: pair for pair in join.run(vectors)}
    return pairs, stats


def assert_backends_agree(algorithm, vectors, threshold, decay,
                          reference_backend, other_backend):
    reference, reference_stats = run_backend(algorithm, vectors, threshold,
                                             decay, reference_backend)
    vectorized, vectorized_stats = run_backend(algorithm, vectors, threshold,
                                               decay, other_backend)
    assert set(vectorized) == set(reference)
    for key, pair in reference.items():
        other = vectorized[key]
        assert other.similarity == pair.similarity, key
        assert other.dot == pair.dot, key
        assert other.time_delta == pair.time_delta, key
    for counter in PARITY_COUNTERS:
        assert (getattr(vectorized_stats, counter)
                == getattr(reference_stats, counter)), counter


def assert_dict_and_array_paths_agree(algorithm, vectors, threshold, decay,
                                      backend="numpy"):
    assert_backends_agree(algorithm, vectors, threshold, decay,
                          "python", backend)


sparse_streams = st.lists(
    st.dictionaries(st.integers(min_value=0, max_value=30),
                    st.floats(min_value=0.05, max_value=1.0),
                    min_size=1, max_size=7),
    min_size=2, max_size=40,
)


@pytest.mark.parametrize("backend", accelerated_backends())
class TestSlotSpaceParity:
    @settings(max_examples=25, deadline=None)
    @given(entries=sparse_streams,
           threshold=st.floats(min_value=0.3, max_value=0.99),
           decay=st.floats(min_value=0.05, max_value=2.0))
    def test_expiring_streams(self, entries, threshold, decay, backend):
        # Fast decay → short horizon: postings expire constantly, driving
        # both the time-ordered truncation (STR-L2) and the lazy masked
        # expiry + amortised compaction of unordered lists (STR-L2AP).
        vectors = [SparseVector(index, float(index), coords)
                   for index, coords in enumerate(entries)]
        for algorithm in ("STR-L2AP", "STR-L2", "STR-INV", "STR-AP"):
            assert_dict_and_array_paths_agree(algorithm, vectors, threshold,
                                              decay, backend)

    @settings(max_examples=15, deadline=None)
    @given(entries=sparse_streams)
    def test_theta_one(self, entries, backend):
        # θ = 1 collapses the horizon to zero: only simultaneous identical
        # vectors can pair, every bound sits exactly at the threshold, and
        # the guard-band verification must not leak near-misses.
        vectors = [SparseVector(index, float(index // 3), coords)
                   for index, coords in enumerate(entries)]
        for algorithm in ("STR-L2AP", "STR-L2", "STR-INV"):
            assert_dict_and_array_paths_agree(algorithm, vectors, 1.0, 0.5,
                                              backend)

    @settings(max_examples=15, deadline=None)
    @given(entries=sparse_streams,
           threshold=st.floats(min_value=0.4, max_value=0.9))
    def test_expired_entry_verification(self, entries, threshold, backend):
        # Bursts separated by long gaps: whole windows of residual entries
        # and postings expire between bursts, so verification must mask
        # candidates whose residual metadata was evicted.
        vectors = [
            SparseVector(index, float(index) + (index // 5) * 1000.0, coords)
            for index, coords in enumerate(entries)
        ]
        for algorithm in ("STR-L2AP", "STR-L2"):
            assert_dict_and_array_paths_agree(algorithm, vectors, threshold,
                                              0.01, backend)

    def test_reindexing_with_expiry(self, backend):
        # Growing maxima force re-indexing (unordered lists) while a short
        # horizon expires postings: the lazily compacted lists must report
        # exactly the removals the eagerly compacting reference reports.
        vectors = [
            SparseVector(index, float(index),
                         {dim: 1.0 + 0.06 * index
                          for dim in range(index % 5, index % 5 + 4)})
            for index in range(150)
        ]
        assert_dict_and_array_paths_agree("STR-L2AP", vectors, 0.6, 0.08,
                                          backend)

    def test_identical_vectors_at_threshold_one(self, backend):
        coords = {1: 2.0, 5: 1.0, 9: 3.0}
        vectors = [SparseVector(index, 0.0, coords) for index in range(4)]
        reference, _ = run_backend("STR-L2AP", vectors, 1.0, 0.7, "python")
        vectorized, _ = run_backend("STR-L2AP", vectors, 1.0, 0.7, backend)
        assert set(vectorized) == set(reference)
        assert len(vectorized) == 6  # all pairs of the 4 identical vectors

    def test_fused_scan_counts_one_kernel_call_per_query(self, backend):
        # The whole-query fusion is observable through the profiling
        # wrapper: exactly one scan call per processed vector, instead of
        # one per query term.
        from repro.backends import get_backend
        from repro.backends.profiling import ProfilingKernel

        kernel = ProfilingKernel(get_backend(backend)())
        join = create_join("STR-L2AP", 0.6, 0.05, backend=kernel)
        vectors = [SparseVector(index, float(index),
                                {dim: 1.0 for dim in range(index % 3, index % 3 + 4)})
                   for index in range(30)]
        for vector in vectors:
            join.process(vector)
        assert kernel.stage_calls["scan"] == len(vectors)


class TestCandidateSetViews:
    def test_batch_candidate_set_views(self):
        # The CandidateSet compatibility views must agree with the
        # reference dictionaries entry for entry and in order.
        vectors = [SparseVector(index, 0.0,
                                {dim: 1.0 for dim in range(index % 4, index % 4 + 3)})
                   for index in range(20)]
        from repro.indexes.base import create_batch_index

        reference = create_batch_index("L2AP", 0.5, backend="python")
        vectorized = create_batch_index("L2AP", 0.5, backend="numpy")
        for vector in vectors[:-1]:
            reference.index_vector(vector)
            vectorized.index_vector(vector)
        query = vectors[-1]
        reference_set = reference.candidate_generation(query)
        vectorized_set = vectorized.candidate_generation(query)
        assert len(vectorized_set) == len(reference_set)
        assert vectorized_set.to_dict() == reference_set.to_dict()
        assert (list(vectorized_set.to_dict())
                == list(reference_set.to_dict()))  # insertion order
        assert vectorized_set.above(0.5) == reference_set.above(0.5)

    def test_batch_prefix_parity(self):
        # The batch candidate generation of every scheme, fused NumPy scan
        # against the reference per-term loops: same candidates, scores and
        # insertion order.
        from repro.indexes.base import create_batch_index

        vectors = [SparseVector(index, 0.0,
                                {dim: 1.0 + 0.1 * (index % 4)
                                 for dim in range(index % 4, index % 4 + 3)})
                   for index in range(25)]
        for algorithm in ("L2AP", "AP", "L2", "INV"):
            reference = create_batch_index(algorithm, 0.5, backend="python")
            vectorized = create_batch_index(algorithm, 0.5, backend="numpy")
            for vector in vectors[:-1]:
                reference.index_vector(vector)
                vectorized.index_vector(vector)
            query = vectors[-1]
            reference_set = reference.candidate_generation(query)
            vectorized_set = vectorized.candidate_generation(query)
            assert vectorized_set.to_dict() == reference_set.to_dict(), algorithm
            assert (list(vectorized_set.to_dict())
                    == list(reference_set.to_dict())), algorithm
