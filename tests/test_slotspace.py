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
loops is checked directly here, counter for counter.  Its replay has two
implementations chosen by gather size (the slot-grouped pass and the
scalar loop); every parity check runs once with each forced, and compares
the pairs of every ``process()`` call in order, since candidate order is
what the grouped pass rebuilds.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SparseVector, create_join
from repro.core.results import JoinStatistics
from tests.conftest import (
    ACCELERATED_BACKENDS,
    REPLAY_PATHS,
    forced_replay_path,
)

PARITY_COUNTERS = ("candidates_generated", "full_similarities",
                   "entries_traversed", "entries_pruned", "entries_indexed",
                   "residual_entries", "reindexings", "reindexed_entries",
                   "pairs_output")


def run_backend(algorithm, vectors, threshold, decay, backend):
    """Pairs by key, the stats, and each ``process()`` result's key order."""
    stats = JoinStatistics()
    join = create_join(algorithm, threshold, decay, stats=stats,
                       backend=backend)
    batches = [join.process(vector) for vector in vectors] + [join.flush()]
    pairs = {pair.key: pair for batch in batches for pair in batch}
    return pairs, stats, [[pair.key for pair in batch] for batch in batches]


def assert_backends_agree(algorithm, vectors, threshold, decay,
                          reference_backend, other_backend):
    """``other_backend`` against the reference, with every NumPy replay
    forced onto each path in turn: same pairs in the same order, same
    similarities, same counters."""
    reference, reference_stats, reference_order = run_backend(
        algorithm, vectors, threshold, decay, reference_backend)
    for path in REPLAY_PATHS:
        with forced_replay_path(path):
            vectorized, vectorized_stats, order = run_backend(
                algorithm, vectors, threshold, decay, other_backend)
        assert order == reference_order, path
        for key, pair in reference.items():
            other = vectorized[key]
            assert other.similarity == pair.similarity, (path, key)
            assert other.dot == pair.dot, (path, key)
            assert other.time_delta == pair.time_delta, (path, key)
        for counter in PARITY_COUNTERS:
            assert (getattr(vectorized_stats, counter)
                    == getattr(reference_stats, counter)), (path, counter)


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


@pytest.mark.parametrize("backend", ACCELERATED_BACKENDS)
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

    def test_replay_edge_shapes(self, backend):
        # Candidates that share every query term with the later queries,
        # among many one-term and a few mid-size ones, over ~1.3 horizons.
        # At seed 0 the replays meet an l2bound prune at a candidate's
        # first, a middle and its last posting, _ADMIT_PER_ENTRY lists
        # that admit some newcomers and refuse others, and (STR-L2AP,
        # STR-AP) the sz1 size filter refusing one-term newcomers.
        import random

        rng = random.Random(0)
        query_dims = list(range(12))
        vectors = []
        timestamp = 0.0
        for index in range(63):
            kind = rng.random() if index < 60 else 1.5
            if kind < 0.6:
                entries = {rng.choice(query_dims): rng.uniform(0.2, 1.0)}
                for dim in rng.sample(range(100, 140), rng.choice((0, 2))):
                    entries[dim] = rng.uniform(0.1, 1.0)
            elif kind < 0.85:
                entries = {dim: rng.uniform(0.2, 1.0) for dim in
                           rng.sample(query_dims, rng.randint(3, 8))}
                entries[rng.randrange(100, 140)] = rng.uniform(0.1, 0.6)
            elif kind < 1.0:
                entries = {dim: rng.uniform(0.5, 1.0) for dim in query_dims}
            else:  # the closing queries
                entries = {dim: 1.0 for dim in query_dims}
            timestamp += rng.uniform(0.0, 0.6)
            vectors.append(SparseVector(index, round(timestamp, 3), entries))
        for algorithm in ("STR-L2", "STR-L2AP", "STR-AP"):
            assert_dict_and_array_paths_agree(algorithm, vectors, 0.5, 0.08,
                                              backend)

    def test_identical_vectors_at_threshold_one(self, backend):
        coords = {1: 2.0, 5: 1.0, 9: 3.0}
        vectors = [SparseVector(index, 0.0, coords) for index in range(4)]
        reference, _, _ = run_backend("STR-L2AP", vectors, 1.0, 0.7, "python")
        vectorized, _, _ = run_backend("STR-L2AP", vectors, 1.0, 0.7, backend)
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
            for vector in vectors[:-1]:
                reference.index_vector(vector)
            expected = reference.candidate_generation(vectors[-1]).to_dict()
            for path in REPLAY_PATHS:
                vectorized = create_batch_index(algorithm, 0.5,
                                                backend="numpy")
                for vector in vectors[:-1]:
                    vectorized.index_vector(vector)
                with forced_replay_path(path):
                    found = vectorized.candidate_generation(
                        vectors[-1]).to_dict()
                assert found == expected, (algorithm, path)
                assert list(found) == list(expected), (algorithm, path)


class TestReplayPaths:
    def test_grouped_pass_matches_scalar_loop(self):
        # The two replay implementations on synthetic gathers.  Unlike
        # real scans, the tri-states here follow no order (a refused
        # posting may precede an admitting one), so each candidate's chain
        # start, the size filter and every prune position get exercised.
        import numpy as np

        from repro.backends.numpy_backend import NumpyKernel

        rng = np.random.default_rng(5)
        for case in range(300):
            candidates = int(rng.integers(1, 25))
            segment_slots = [
                rng.permutation(candidates)[:int(rng.integers(0, candidates + 1))]
                for _ in range(int(rng.integers(1, 10)))]
            slots = np.concatenate(segment_slots).astype(np.int64)
            offsets = np.cumsum([0] + [len(seg) for seg in segment_slots])
            segments = len(segment_slots)
            size = len(slots)
            tri = rng.choice([1, 0, -1], size=segments).tolist()
            seg_rs1 = rng.uniform(0.2, 1.5, segments).tolist()
            seg_rs2 = rng.uniform(0.2, 1.5, segments).tolist()
            contrib = rng.uniform(0.0, 0.4, size)
            tails = rng.uniform(0.0, 0.8, size)
            decay_factors = rng.uniform(0.3, 1.0, size)
            sizes = rng.uniform(0.0, 2.0, candidates)
            use_ap, use_l2 = (bool(flag) for flag in rng.integers(0, 2, 2))
            sz1 = float(rng.uniform(0.0, 1.5))
            threshold = float(rng.uniform(0.2, 0.9))
            outcomes = []
            for path in REPLAY_PATHS:
                kernel = NumpyKernel()
                for vector_id in range(candidates):
                    kernel._intern(vector_id)
                kernel._slot_sf[:candidates] = sizes
                acc = kernel.new_accumulator()
                with forced_replay_path(path):
                    kernel._fused_prefix_segments(
                        slots, contrib, tails if use_l2 else None,
                        decay_factors, tri, seg_rs1, seg_rs2, offsets, sz1,
                        use_ap, use_l2, threshold, acc)
                found = acc.finalize()
                outcomes.append((found.slots.tolist(), found.scores.tolist(),
                                 kernel._slot_state[:candidates].tolist()))
            assert outcomes[0] == outcomes[1], case


def reachable_vectors(root) -> set[int]:
    """Ids of the ``SparseVector`` objects reachable from ``root``."""
    import gc
    import types

    seen: set[int] = set()
    found: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType,
                                               types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, SparseVector):
            found.add(obj.vector_id)
            continue
        stack.extend(gc.get_referents(obj))
    return found


class TestVectorRetention:
    @pytest.mark.parametrize("algorithm", ["STR-L2", "STR-L2AP"])
    def test_kernel_keeps_no_evicted_vector(self, algorithm):
        """After a stream many horizons long, the join holds no vector
        outside its residual store but the last query: the kernel's
        per-vector arrays follow the store, not every vector processed."""
        from repro.datasets import generate_profile_corpus

        vectors = generate_profile_corpus("hashtags", seed=1,
                                          num_vectors=1200)
        join = create_join(algorithm, 0.6, math.log(1 / 0.6) / 100.0,
                           backend="numpy")
        for vector in vectors:
            join.process(vector)
        stored = {entry.vector_id for entry in join.index._residual.entries()}
        assert len(stored) < 200
        assert reachable_vectors(join) <= stored | {vectors[-1].vector_id}
