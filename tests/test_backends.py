"""Equivalence and property coverage for the compute-backend subsystem.

The NumPy backend must be a drop-in replacement for the pure-Python
reference backend: identical :class:`SimilarPair` output (keys *and*
similarity values), identical operation counters, and posting lists with
identical observable behaviour.  These tests enforce that on the dataset
profiles and with hypothesis-generated adversarial inputs.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    SparseVector,
    UnknownBackendError,
    all_pairs,
    available_backends,
    brute_force_all_pairs,
    brute_force_time_dependent,
    create_join,
    default_backend,
    sliding_window_join,
)
from repro.backends import (
    backend_availability,
    get_backend,
    known_backends,
    probe_backends,
    resolve_kernel,
)
from repro.core.results import JoinStatistics
from repro.core.similarity import JoinParameters
from repro.indexes.posting import PostingEntry
from tests.conftest import ACCELERATED_BACKENDS, random_vectors, wait_until
from tests.groundtruth import counters_without_time, engine_pairs

STREAMING_ALGORITHMS = ["STR-INV", "STR-L2", "STR-L2AP", "STR-AP"]
MINIBATCH_ALGORITHMS = ["MB-INV", "MB-L2", "MB-L2AP", "MB-AP"]
BATCH_INDEXES = ["INV", "AP", "L2", "L2AP"]


def run_pairs(algorithm, vectors, threshold, decay, backend):
    stats = JoinStatistics()
    join = create_join(algorithm, threshold, decay, stats=stats, backend=backend)
    pairs = {pair.key: pair for pair in join.run(vectors)}
    return pairs, stats


def assert_backend_parity(algorithm, vectors, threshold, decay,
                          backend="numpy"):
    reference, reference_stats = run_pairs(algorithm, vectors, threshold, decay,
                                           "python")
    vectorized, vectorized_stats = run_pairs(algorithm, vectors, threshold, decay,
                                             backend)
    assert set(vectorized) == set(reference)
    for key, pair in reference.items():
        other = vectorized[key]
        assert other.similarity == pair.similarity
        assert other.dot == pair.dot
        assert other.time_delta == pair.time_delta
    # The kernels must traverse, admit and verify exactly the same entries.
    assert vectorized_stats.entries_traversed == reference_stats.entries_traversed
    assert vectorized_stats.candidates_generated == reference_stats.candidates_generated
    assert vectorized_stats.full_similarities == reference_stats.full_similarities
    assert vectorized_stats.entries_pruned == reference_stats.entries_pruned
    return reference


@pytest.mark.parametrize("backend", ACCELERATED_BACKENDS)
class TestJoinEquivalence:
    """Pair-for-pair parity on the paper-shaped profile corpora."""

    @pytest.mark.parametrize("algorithm", STREAMING_ALGORITHMS + MINIBATCH_ALGORITHMS)
    def test_tweets_profile(self, tweets_corpus, algorithm, backend):
        pairs = assert_backend_parity(algorithm, tweets_corpus, 0.6, 0.05,
                                      backend)
        expected = {p.key for p in brute_force_time_dependent(tweets_corpus, 0.6, 0.05)}
        assert set(pairs) == expected

    @pytest.mark.parametrize("algorithm", STREAMING_ALGORITHMS + MINIBATCH_ALGORITHMS)
    def test_rcv1_profile(self, rcv1_corpus, algorithm, backend):
        assert_backend_parity(algorithm, rcv1_corpus, 0.7, 0.02, backend)

    @pytest.mark.parametrize("algorithm", ["STR-L2", "STR-L2AP"])
    def test_near_threshold_parameters(self, tweets_corpus, algorithm, backend):
        # A high threshold with slow decay stresses the decayed bounds.
        assert_backend_parity(algorithm, tweets_corpus, 0.9, 0.001, backend)

    def test_reindexing_heavy_stream(self, backend):
        # Growing maxima force frequent STR-L2AP re-indexing, exercising the
        # unordered (compacting) posting-list scans on both backends.
        vectors = [
            SparseVector(index, float(index),
                         {dim: 1.0 + 0.05 * index for dim in range(index % 7, index % 7 + 4)})
            for index in range(120)
        ]
        assert_backend_parity("STR-L2AP", vectors, 0.6, 0.02, backend)

    @pytest.mark.parametrize("algorithm", ["STR-INV", "STR-L2", "STR-L2AP"])
    def test_long_posting_lists_use_vectorised_scans(self, algorithm, backend):
        # Every vector shares the same six dimensions, so the posting lists
        # grow far past the NumPy backend's scalar-scan cutoff and the fully
        # vectorised kernels (not just the short-list fast path) are covered.
        vectors = [
            SparseVector(index, index * 0.01,
                         {dim: 1.0 + ((index * 7 + dim) % 5) * 0.1
                          for dim in range(6)})
            for index in range(150)
        ]
        assert_backend_parity(algorithm, vectors, 0.5, 0.001, backend)

    @pytest.mark.slow
    def test_hot_path_profile_equivalence(self, backend):
        from repro.datasets.generator import generate_profile_corpus

        vectors = generate_profile_corpus("hashtags", num_vectors=1200, seed=7)
        assert_backend_parity("STR-L2AP", vectors, 0.6, 2e-5, backend)
        assert_backend_parity("STR-L2", vectors, 0.6, 2e-5, backend)


class TestBatchAndBaselineEquivalence:
    @pytest.mark.parametrize("backend", ACCELERATED_BACKENDS)
    @pytest.mark.parametrize("index", BATCH_INDEXES)
    def test_all_pairs(self, rcv1_corpus, index, backend):
        reference = {p.key: p.similarity
                     for p in all_pairs(rcv1_corpus, 0.7, index=index, backend="python")}
        vectorized = {p.key: p.similarity
                      for p in all_pairs(rcv1_corpus, 0.7, index=index, backend=backend)}
        assert vectorized == reference

    def test_brute_force(self, small_random_stream):
        reference = {p.key: p.similarity
                     for p in brute_force_all_pairs(small_random_stream, 0.6,
                                                    backend="python")}
        vectorized = {p.key: p.similarity
                      for p in brute_force_all_pairs(small_random_stream, 0.6,
                                                     backend="numpy")}
        assert vectorized == reference

    def test_brute_force_time_dependent(self, small_random_stream):
        reference = {p.key: p.similarity
                     for p in brute_force_time_dependent(small_random_stream, 0.6,
                                                         0.05, backend="python")}
        vectorized = {p.key: p.similarity
                      for p in brute_force_time_dependent(small_random_stream, 0.6,
                                                          0.05, backend="numpy")}
        assert vectorized == reference

    def test_sliding_window(self, small_random_stream):
        reference = {p.key: p.similarity
                     for p in sliding_window_join(small_random_stream, 0.6, 0.05,
                                                  backend="python")}
        vectorized = {p.key: p.similarity
                      for p in sliding_window_join(small_random_stream, 0.6, 0.05,
                                                   backend="numpy")}
        assert vectorized == reference


class TestBackendSelection:
    def test_python_backend_always_available(self):
        assert "python" in available_backends()

    def test_default_backend_prefers_numpy(self):
        override = os.environ.get("SSSJ_BACKEND", "").strip().lower()
        if override and override != "auto":
            if override in available_backends():
                assert default_backend() == override
            else:
                # A known-but-unavailable override (e.g. the retired
                # numba) degrades to the auto default.
                assert default_backend() in available_backends()
        else:
            assert default_backend() == "numpy"

    def test_auto_resolves_to_default(self):
        assert get_backend("auto").name == default_backend()
        assert get_backend(None).name == default_backend()

    def test_unknown_backend_raises(self):
        with pytest.raises(UnknownBackendError):
            get_backend("fortran")

    def test_env_var_override(self):
        code = (
            "import repro; import sys; "
            "sys.exit(0 if repro.default_backend() == 'python' else 1)"
        )
        env = dict(os.environ, SSSJ_BACKEND="python",
                   PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                cwd=os.path.dirname(os.path.dirname(__file__)))
        assert result.returncode == 0

    def test_join_reports_backend(self):
        join = create_join("STR-L2", 0.7, 0.1, backend="python")
        assert join.backend_name == "python"
        assert join.index.backend_name == "python"

    def test_join_parameters_carry_backend(self):
        params = JoinParameters(threshold=0.7, decay=0.1, backend="PYTHON")
        assert params.backend == "python"
        join = params.create_join("STR-L2")
        assert join.threshold == 0.7
        assert join.backend_name == "python"

    def test_kernel_resolution_accepts_instance(self):
        kernel = get_backend("python")()
        assert resolve_kernel(kernel) is kernel


# ---------------------------------------------------------------------------
# Property tests for the vectorised kernels and the array posting lists.


entry_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),          # vector id
        st.floats(min_value=0.01, max_value=1.0),        # value
        st.floats(min_value=0.0, max_value=1.0),         # prefix norm
        st.floats(min_value=0.0, max_value=100.0),       # timestamp
    ),
    max_size=80,
)


def build_indexes(raw, *, time_ordered):
    """One ``(kernel, index)`` per backend, each holding ``raw`` as the
    posting list of dimension 0 (one posting per vector, as in a join),
    loaded through the kernel as a restore or a kernel switch loads it."""
    from repro.indexes.posting import InvertedIndex

    if time_ordered:
        raw = sorted(raw, key=lambda item: item[3])
    built = []
    for backend in ("python", "numpy"):
        kernel = get_backend(backend)()
        index = InvertedIndex(kernel.new_posting_list)
        kernel.load_postings(index, {0: [
            PostingEntry(vector_id=vector_id, value=value, prefix_norm=norm,
                         timestamp=timestamp)
            for vector_id, (_, value, norm, timestamp) in enumerate(raw)]})
        built.append((kernel, index))
    return built


def postings_of(index):
    """The live postings of dimension 0 (none when it has no list)."""
    plist = index.get(0)
    return [] if plist is None else plist.to_list()


#: A query on dimension 0 arriving after every generated posting.
EXPIRY_QUERY = SparseVector(10_000, 101.0, {0: 1.0})


class TestArenaPostingListProperties:
    @settings(max_examples=40, deadline=None)
    @given(raw=entry_lists)
    def test_iteration_matches_reference(self, raw):
        (_, reference), (_, vectorized) = build_indexes(raw,
                                                        time_ordered=False)
        assert (postings_of(vectorized) == postings_of(reference)
                == [PostingEntry(vector_id, value, norm, timestamp)
                    for vector_id, (_, value, norm, timestamp)
                    in enumerate(raw)])
        if raw:
            assert len(vectorized.get(0)) == len(reference.get(0)) == len(raw)

    @settings(max_examples=40, deadline=None)
    @given(raw=entry_lists, cutoff=st.floats(min_value=-1.0, max_value=101.0))
    def test_truncate_older_than(self, raw, cutoff):
        """The STR-INV scan truncates a time-ordered list's expired head
        as the reference does."""
        outcomes = []
        for kernel, index in build_indexes(raw, time_ordered=True):
            counts = kernel.scan_query_inv_stream(
                EXPIRY_QUERY, index, cutoff, kernel.new_accumulator())
            outcomes.append((counts, postings_of(index)))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=40, deadline=None)
    @given(raw=entry_lists, cutoff=st.floats(min_value=-1.0, max_value=101.0))
    def test_compact(self, raw, cutoff):
        """Two prefix scans of an unordered list remove its expired
        postings as the reference's eager compaction does, each reported
        once."""
        outcomes = []
        for kernel, index in build_indexes(raw, time_ordered=False):
            size_filter = kernel.new_size_filter()
            for scan_cutoff in (cutoff, cutoff + 10.0):
                counts = kernel.scan_query_stream(
                    EXPIRY_QUERY, index, now=EXPIRY_QUERY.timestamp,
                    cutoff=scan_cutoff, decay=0.0, rs1=math.inf,
                    decayed_maxima=None, sz1=0.0, threshold=0.5,
                    use_ap=False, use_l2=False, time_ordered=False,
                    size_filter=size_filter, acc=kernel.new_accumulator())
                outcomes.append((counts, postings_of(index)))
        assert outcomes[:2] == outcomes[2:]

    @settings(max_examples=40, deadline=None)
    @given(raw=entry_lists, cutoff=st.floats(min_value=-1.0, max_value=101.0))
    def test_keep_newest(self, raw, cutoff):
        """The arena's head truncation keeps a time-ordered list's newest
        postings, as the reference's backward scan at ``cutoff`` does."""
        import numpy as np

        (reference_kernel, reference), (kernel, vectorized) = build_indexes(
            raw, time_ordered=True)
        if not raw:
            return
        _, dropped = reference_kernel.scan_query_inv_stream(
            EXPIRY_QUERY, reference, cutoff,
            reference_kernel.new_accumulator())
        survivors = reference.get(0).to_list()
        arena = kernel._arena
        lid = np.array([vectorized.get(0)._lid])
        arena.truncate(lid, arena.hi[lid] - len(survivors),
                       np.array([survivors[0].timestamp if survivors
                                 else math.inf]),
                       np.array([survivors[-1].timestamp if survivors
                                 else -math.inf]), dropped)
        assert postings_of(vectorized) == survivors
        assert arena.live_entries == len(survivors)


sparse_streams = st.lists(
    st.dictionaries(st.integers(min_value=0, max_value=25),
                    st.floats(min_value=0.05, max_value=1.0),
                    min_size=1, max_size=6),
    min_size=2, max_size=30,
)


@pytest.mark.parametrize("backend", ACCELERATED_BACKENDS)
class TestKernelProperties:
    """End-to-end kernel parity on adversarial hypothesis streams."""

    @settings(max_examples=30, deadline=None)
    @given(entries=sparse_streams,
           threshold=st.floats(min_value=0.3, max_value=0.95),
           decay=st.floats(min_value=0.01, max_value=0.5))
    def test_streaming_parity(self, entries, threshold, decay, backend):
        vectors = [SparseVector(index, float(index), coords)
                   for index, coords in enumerate(entries)]
        for algorithm in ("STR-L2", "STR-L2AP", "STR-INV"):
            reference, _ = run_pairs(algorithm, vectors, threshold, decay, "python")
            vectorized, _ = run_pairs(algorithm, vectors, threshold, decay, backend)
            assert set(vectorized) == set(reference)
            for key, pair in reference.items():
                assert math.isclose(vectorized[key].similarity, pair.similarity,
                                    rel_tol=1e-12, abs_tol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(entries=sparse_streams,
           threshold=st.floats(min_value=0.3, max_value=0.95))
    def test_batch_parity(self, entries, threshold, backend):
        vectors = [SparseVector(index, float(index), coords)
                   for index, coords in enumerate(entries)]
        reference = {p.key: p.similarity
                     for p in all_pairs(vectors, threshold, backend="python")}
        vectorized = {p.key: p.similarity
                      for p in all_pairs(vectors, threshold, backend=backend)}
        assert vectorized == reference


class TestCheckpointAcrossBackends:
    def test_checkpoint_roundtrip_records_backend(self, tmp_path):
        from repro import load_checkpoint, save_checkpoint

        vectors = random_vectors(60, seed=5)
        join = create_join("STR-L2", 0.6, 0.05, backend="numpy")
        midpoint = len(vectors) // 2
        for vector in vectors[:midpoint]:
            join.process(vector)
        path = save_checkpoint(join, tmp_path / "join.ckpt")
        resumed = load_checkpoint(path)
        assert resumed.index.backend_name == "numpy"
        rest = [pair.key for vector in vectors[midpoint:]
                for pair in resumed.process(vector)]
        fresh = create_join("STR-L2", 0.6, 0.05, backend="python")
        expected = []
        for index, vector in enumerate(vectors):
            keys = [pair.key for pair in fresh.process(vector)]
            if index >= midpoint:
                expected.extend(keys)
        assert rest == expected

    @pytest.mark.parametrize("backend", ["python", *ACCELERATED_BACKENDS])
    def test_resume_preserves_size_filter_counters(self, tmp_path, backend):
        # Restoring must rebuild the kernel's sz1 size-filter map: a resumed
        # join has to do exactly the same amount of work (not just produce
        # the same pairs) as an uninterrupted one.  STR-AP makes sz1 the
        # binding filter: single-coordinate vectors on the *highest* query
        # dimensions are admitted by the remaining-score bound (the backward
        # scan meets them first) and, with no ℓ₂ pruning, only the size
        # filter rejects them — so a lost map inflates candidates_generated.
        from repro import load_checkpoint, save_checkpoint

        singles = [SparseVector(index, float(index), {20 + index % 5: 1.0})
                   for index in range(40)]
        wide = [SparseVector(100 + index, 40.0 + index,
                             {dim: 1.0 for dim in range(25)})
                for index in range(10)]
        vectors = singles + wide
        midpoint = len(singles)

        uninterrupted = create_join("STR-AP", 0.8, 0.01, backend=backend)
        for vector in vectors:
            uninterrupted.process(vector)

        first = create_join("STR-AP", 0.8, 0.01, backend=backend)
        for vector in vectors[:midpoint]:
            first.process(vector)
        resumed = load_checkpoint(save_checkpoint(first, tmp_path / "l2ap.ckpt"))
        for vector in vectors[midpoint:]:
            resumed.process(vector)

        for attribute in ("entries_traversed", "candidates_generated",
                          "full_similarities", "pairs_output"):
            assert (getattr(resumed.stats, attribute)
                    == getattr(uninterrupted.stats, attribute)), attribute


# ---------------------------------------------------------------------------
# The retired ``numba`` name.  The compiled tier is gone; a join, checkpoint,
# session, shard config or ``SSSJ_BACKEND`` that still names it runs on
# NumPy after one warning.

#: The one-time fallback warning, which only the test pinning it records.
_NUMBA_FALLBACK = "ignore:backend 'numba' is unavailable:RuntimeWarning"


def ok(response):
    assert response.get("ok"), response
    return response


class TestRetiredNumba:
    def test_numba_is_always_known(self):
        assert "numba" in known_backends()
        assert "numba" not in available_backends()

    def test_availability_probe_reports_numba(self):
        row = {row["name"]: row for row in probe_backends()}["numba"]
        assert not row["available"]
        assert "removed" in row["reason"]
        assert row["description"]

    def test_backend_availability(self):
        available, reason = backend_availability("numba")
        assert not available
        assert "removed" in reason

    def test_get_backend_falls_back_with_warning(self):
        from repro.backends import _FALLBACK_WARNED

        _FALLBACK_WARNED.discard("numba")  # the warning is once per process
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert get_backend("numba").name == "numpy"
        fallback = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(fallback) == 1
        assert "falling back to 'numpy'" in str(fallback[0].message)
        # Later resolutions stay silent.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            get_backend("numba")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.filterwarnings(_NUMBA_FALLBACK)
    def test_create_join_accepts_numba_spec_everywhere(self):
        join = create_join("STR-L2", 0.7, 0.1, backend="numba")
        assert join.backend_name == "numpy"

    def test_env_override_degrades_in_subprocess(self):
        code = (
            "import warnings; warnings.simplefilter('ignore'); "
            "import repro; print(repro.default_backend())"
        )
        env = dict(os.environ, SSSJ_BACKEND="numba",
                   PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True,
                                cwd=os.path.dirname(os.path.dirname(__file__)))
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "numpy"

    @pytest.mark.filterwarnings(_NUMBA_FALLBACK)
    def test_minibatch_joins_name_their_kernel(self):
        """A MiniBatch join, and a session over one, reports the kernel its
        window indexes resolve to, not the configured string."""
        from repro.service import JoinSession, SessionConfig

        for backend, kernel in (("numba", "numpy"), (None, default_backend()),
                                ("python", "python")):
            join = create_join("MB-L2AP", 0.6, 0.01, backend=backend)
            assert join.backend_name == kernel
            session = JoinSession(SessionConfig(
                name="mb", threshold=0.6, decay=0.01, algorithm="MB-L2AP",
                backend=backend))
            assert (session.backend, session.kernel) == (kernel, kernel)
            stats = session.stats()
            session.close()
            assert (stats["backend"], stats["kernel"]) == (kernel, kernel)

    @pytest.mark.filterwarnings(_NUMBA_FALLBACK)
    def test_numba_checkpoint_resumes_pinned_to_numpy(self):
        from repro import restore_join
        from repro.core.checkpoint import snapshot_join

        vectors = random_vectors(80, seed=11)
        expected, stats = engine_pairs(vectors, 0.6, 0.05,
                                       algorithm="STR-L2AP", backend="python")
        join = create_join("STR-L2AP", 0.6, 0.05, backend="numpy")
        pairs = join.feed(vectors[:40])
        state = json.loads(json.dumps(snapshot_join(join)))
        state["backend"] = "numba"
        resumed = restore_join(state)
        assert not resumed.adaptive and resumed.backend_name == "numpy"
        pairs += resumed.feed(vectors[40:]) + resumed.flush()
        assert pairs == expected
        assert (counters_without_time(resumed.stats.as_dict())
                == counters_without_time(stats.as_dict()))

    @pytest.mark.filterwarnings(_NUMBA_FALLBACK)
    def test_numba_session_runs_numpy_through_evict_and_restore(self,
                                                                tmp_path):
        from repro.service import JoinService, read_jsonl_pairs
        from repro.service.protocol import encode_vector

        vectors = random_vectors(60, seed=8)
        expected, stats = engine_pairs(vectors, 0.6, 0.05, backend="python")
        sink_path = tmp_path / "pairs.jsonl"
        service = JoinService(pool_workers=1, checkpoint_dir=tmp_path)

        def ingest(lo, hi):
            ok(service.handle({
                "op": "ingest", "session": "n", "seq": lo,
                "vectors": [encode_vector(v) for v in vectors[lo:hi]]}))
            session = service.sessions["n"]
            wait_until(lambda: session.processed == hi
                       and session.run_state == "idle")

        def kernels():
            row = ok(service.handle(
                {"op": "stats", "session": "n"}))["sessions"]["n"]
            return row["backend"], row["kernel"]

        try:
            ok(service.handle({
                "op": "open", "session": "n", "theta": 0.6, "decay": 0.05,
                "backend": "numba", "normalize": False,
                "sinks": [{"kind": "jsonl", "path": str(sink_path)}]}))
            ingest(0, 35)
            assert kernels() == ("numpy", "numpy")
            assert ok(service.handle(
                {"op": "evict", "session": "n"}))["evicted"]
            assert service.sessions["n"].status == "evicted"
            assert kernels() == ("numpy", "numpy")
            ingest(35, len(vectors))  # lazy restore
            assert service.sessions["n"].resumed
            assert kernels() == ("numpy", "numpy")
            ok(service.handle({"op": "drain", "session": "n"}))
            assert read_jsonl_pairs(sink_path) == expected
            counters = ok(service.handle(
                {"op": "stats", "session": "n"}))["sessions"]["n"]["counters"]
            assert (counters_without_time(counters)
                    == counters_without_time(stats.as_dict()))
        finally:
            service.shutdown()

    @pytest.mark.filterwarnings(_NUMBA_FALLBACK)
    def test_numba_sharded_join_matches_reference(self):
        from repro.shard import create_sharded_join

        vectors = random_vectors(80, seed=12)
        expected, stats = engine_pairs(vectors, 0.6, 0.05,
                                       algorithm="STR-L2AP", backend="python")
        sharded = JoinStatistics()
        with create_sharded_join("STR-L2AP", 0.6, 0.05, workers=2,
                                 stats=sharded, backend="numba",
                                 executor="serial") as join:
            assert join.backend_name == "numpy"
            assert list(join.run(vectors)) == expected
        assert (counters_without_time(sharded.as_dict())
                == counters_without_time(stats.as_dict()))
