"""Differential tests for the approximate prefilter tier (repro.approx).

Three properties make the tier safe to offer:

1. **Disabled means exact** — with ``approx=None`` (the default) the
   engine is bitwise-identical across backends: same pairs in the same
   order with the same similarities/dots/deltas, same operation counters,
   and the sketch counter pinned at zero.
2. **Enabled means one-sided** — with the prefilter on, every *emitted*
   pair is still a true pair (verification stays exact; the filter can
   only lose pairs, never invent them), the emitted set is a subset of
   the exact answer, and both backends take bit-identical keep/reject
   decisions (same pairs, same counters).  Measured recall on the shared
   corpus must clear the configured floor.
3. **Checkpoints round-trip** — an approximate join checkpoints its
   canonical spec, restore regenerates the signatures from the residual
   entries, and a resumed run is indistinguishable from an uninterrupted
   one.

The hypothesis suites drive all three over adversarial streams; the
deterministic tests pin the recall floor and the scope fences.
"""

from __future__ import annotations

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SparseVector, approx
from repro.approx import ApproxConfig, SignatureScheme, _splitmix64, parse_approx
from repro.backends.numpy_backend import NumpyKernel
from repro.core.checkpoint import restore_join, snapshot_join
from repro.core.join import create_join
from repro.core.similarity import JoinParameters
from repro.datasets.generator import generate_profile_corpus
from repro.exceptions import InvalidParameterError
from repro.indexes.residual import ResidualEntry
from tests.conftest import random_vectors
from tests.groundtruth import counters_without_time, engine_pairs

THETA, DECAY = 0.6, 0.05

#: Acceptance floor for the default sketch on the shared tweets corpus.
RECALL_FLOOR = 0.95

BACKENDS = ["python", "numpy"]

APPROX_SPECS = ("minhash", "minhash:8x2", "wminhash:8x2", "wminhash:24x3")

sparse_streams = st.lists(
    st.dictionaries(st.integers(min_value=0, max_value=30),
                    st.floats(min_value=0.05, max_value=1.0),
                    min_size=1, max_size=7),
    min_size=2, max_size=30,
)


def make_stream(entries):
    return [SparseVector(index, float(index) * 0.5, coords)
            for index, coords in enumerate(entries)]


def fingerprint(pairs):
    """Everything a pair carries, in report order — the bitwise identity."""
    return [(p.key, p.similarity, p.dot, p.time_delta) for p in pairs]


def true_similarity(by_id, pair, decay):
    x, y = by_id[pair.id_a], by_id[pair.id_b]
    return x.dot(y) * math.exp(-decay * abs(x.timestamp - y.timestamp))


# -- 1. disabled means exact ---------------------------------------------------


class TestDisabledIsExact:
    @settings(max_examples=15, deadline=None)
    @given(entries=sparse_streams,
           threshold=st.floats(min_value=0.3, max_value=0.99),
           decay=st.floats(min_value=0.05, max_value=1.0))
    def test_backends_are_bitwise_identical_with_approx_off(
            self, entries, threshold, decay):
        vectors = make_stream(entries)
        for algorithm in ("STR-L2AP", "STR-L2", "MB-L2AP"):
            runs = {backend: engine_pairs(vectors, threshold, decay,
                                          algorithm=algorithm,
                                          backend=backend, approx=None)
                    for backend in BACKENDS}
            reference_pairs, reference_stats = runs[BACKENDS[0]]
            assert reference_stats.candidates_sketch_pruned == 0
            for backend in BACKENDS[1:]:
                pairs, stats = runs[backend]
                assert fingerprint(pairs) == fingerprint(reference_pairs), \
                    (algorithm, backend)
                assert (counters_without_time(stats.as_dict())
                        == counters_without_time(reference_stats.as_dict())), \
                    (algorithm, backend)

    def test_parameters_with_approx_none_build_an_exact_join(self):
        params = JoinParameters(threshold=THETA, decay=DECAY, approx=None)
        join = params.create_join("STR-L2AP")
        assert join.approx is None
        assert join.index.kernel._sketch_scheme is None


# -- 2. enabled means one-sided ------------------------------------------------


class TestEnabledIsOneSided:
    @settings(max_examples=15, deadline=None)
    @given(entries=sparse_streams,
           threshold=st.floats(min_value=0.3, max_value=0.99),
           decay=st.floats(min_value=0.05, max_value=1.0),
           approx=st.sampled_from(APPROX_SPECS))
    def test_emitted_pairs_are_true_and_backends_agree(
            self, entries, threshold, decay, approx):
        vectors = make_stream(entries)
        by_id = {vector.vector_id: vector for vector in vectors}
        exact, _ = engine_pairs(vectors, threshold, decay,
                                algorithm="STR-L2AP", backend=BACKENDS[0])
        exact_keys = {pair.key for pair in exact}
        runs = {backend: engine_pairs(vectors, threshold, decay,
                                      algorithm="STR-L2AP", backend=backend,
                                      approx=approx)
                for backend in BACKENDS}
        reference_pairs, reference_stats = runs[BACKENDS[0]]
        for backend, (pairs, stats) in runs.items():
            for pair in pairs:
                # One-sided: everything emitted survives exact verification.
                assert pair.key in exact_keys, (backend, pair.key)
                assert true_similarity(by_id, pair, decay) \
                    >= threshold - 1e-9, (backend, pair.key)
            # Sketch decisions are a pure function of (vector, config):
            # both backends lose exactly the same pairs and count exactly
            # the same rejections.
            assert fingerprint(pairs) == fingerprint(reference_pairs), backend
            assert (counters_without_time(stats.as_dict())
                    == counters_without_time(reference_stats.as_dict())), \
                backend

    def test_recall_clears_the_floor_on_the_shared_corpus(self, tweets_corpus,
                                                          tweets_truth):
        exact_keys = tweets_truth.keys(THETA, DECAY)
        assert exact_keys, "corpus must produce pairs for recall to mean anything"
        pairs, stats = engine_pairs(tweets_corpus, THETA, DECAY,
                                    algorithm="STR-L2AP", approx="minhash")
        got = {pair.key for pair in pairs}
        assert got <= exact_keys  # no false positives, ever
        recall = len(got & exact_keys) / len(exact_keys)
        assert recall >= RECALL_FLOOR
        assert stats.candidates_sketch_pruned > 0  # the tier actually ran

    def test_sketch_counter_surfaces_in_stats_dict(self):
        vectors = random_vectors(60, seed=7)
        _, stats = engine_pairs(vectors, THETA, DECAY, algorithm="STR-L2AP",
                                approx="minhash:4x4")
        payload = stats.as_dict()
        assert "candidates_sketch_pruned" in payload
        assert payload["candidates_sketch_pruned"] == \
            stats.candidates_sketch_pruned


# -- 3. checkpoints round-trip -------------------------------------------------


class TestCheckpointRoundTrip:
    @settings(max_examples=10, deadline=None)
    @given(entries=sparse_streams,
           split=st.floats(min_value=0.1, max_value=0.9),
           backend=st.sampled_from(BACKENDS))
    def test_restored_approx_join_resumes_deterministically(
            self, entries, split, backend):
        vectors = make_stream(entries)
        split_at = max(1, int(len(vectors) * split))
        uninterrupted = create_join("STR-L2AP", THETA, DECAY, backend=backend,
                                    approx="minhash:8x2")
        expected = uninterrupted.feed(vectors)

        join = create_join("STR-L2AP", THETA, DECAY, backend=backend,
                           approx="minhash:8x2")
        before = join.feed(vectors[:split_at])
        state = snapshot_join(join)
        assert state["approx"] == "minhash:8x2"
        restored = restore_join(state)
        assert restored.approx == "minhash:8x2"
        after = restored.feed(vectors[split_at:])
        assert fingerprint(before + after) == fingerprint(expected)
        assert (counters_without_time(restored.stats.as_dict())
                == counters_without_time(uninterrupted.stats.as_dict()))

    def test_restore_regenerates_signatures_for_every_resident_vector(self):
        vectors = random_vectors(50, seed=13)
        join = create_join("STR-L2AP", THETA, DECAY, backend="python",
                           approx="minhash:8x2")
        join.feed(vectors)
        restored = restore_join(snapshot_join(join))
        kernel = restored.index.kernel
        resident = {entry.vector_id
                    for entry in restored.index._residual.entries()}
        assert resident  # the horizon keeps a tail of the stream alive
        assert set(kernel._sketch_keys) >= resident
        original = join.index.kernel._sketch_keys
        for vector_id in resident:
            assert kernel._sketch_keys[vector_id] == original[vector_id]

    def test_restored_numpy_kernel_holds_the_oracle_keys(self, monkeypatch):
        # A lane table that fills every few vectors, on both sides of the
        # checkpoint: the restored kernel re-signs every resident vector.
        monkeypatch.setattr(approx, "_LANE_TABLE_ROWS", 16)
        vectors = random_vectors(70, seed=23)
        config = parse_approx("wminhash:8x3")
        uninterrupted = create_join("STR-L2AP", THETA, DECAY, backend="numpy",
                                    approx=config)
        expected = uninterrupted.feed(vectors)
        join = create_join("STR-L2AP", THETA, DECAY, backend="numpy",
                           approx=config)
        before = join.feed(vectors[:40])
        restored = restore_join(snapshot_join(join))
        after = restored.feed(vectors[40:])
        assert fingerprint(before + after) == fingerprint(expected)
        assert (counters_without_time(restored.stats.as_dict())
                == counters_without_time(uninterrupted.stats.as_dict()))
        kernel = restored.index.kernel
        resident = list(restored.index._residual.entries())
        assert resident
        for entry in resident:
            slot = kernel._slot_of[entry.vector_id]
            assert kernel._slot_sig_valid[slot]
            assert tuple(kernel._slot_bands[:, slot].tolist()) == \
                scalar_band_keys(config, scalar_signature(config, entry.vector))

    def test_approx_session_survives_kill_and_resume(self, tmp_path):
        from repro.service import JoinSession, SessionConfig

        vectors = random_vectors(80, seed=19)
        expected, expected_stats = engine_pairs(vectors, THETA, DECAY,
                                                algorithm="STR-L2AP",
                                                approx="minhash:8x2")
        ckpt = tmp_path / "approx.ckpt"
        config = SessionConfig(name="approx", threshold=THETA, decay=DECAY,
                               algorithm="STR-L2AP", approx="minhash:8x2",
                               batch_max_items=8)
        session = JoinSession(config, checkpoint_path=ckpt)
        session.ingest(vectors[:45])
        session.checkpoint_now()
        session.ingest(vectors[45:60])  # lost with the crash
        session.kill()

        resumed = JoinSession.resume(ckpt)
        assert resumed.config.approx == "minhash:8x2"
        assert resumed.join.approx == "minhash:8x2"
        resumed.ingest(vectors[resumed.processed:])
        resumed.drain()
        assert resumed.stats()["approx"] == "minhash:8x2"
        assert (counters_without_time(resumed.join.stats.as_dict())
                == counters_without_time(expected_stats.as_dict()))
        resumed.close()


# -- configuration plumbing and scope fences -----------------------------------


class TestConfiguration:
    def test_parse_approx_normalises_and_round_trips(self):
        config = parse_approx("MinHash:8x2")
        assert config == ApproxConfig(method="minhash", bands=8, rows=2)
        assert parse_approx(config.spec()) == config
        assert parse_approx(None) is None
        assert parse_approx("") is None
        assert parse_approx("wminhash", bands=4, rows=4) \
            == ApproxConfig(method="wminhash", bands=4, rows=4)

    @pytest.mark.parametrize("bad", [
        "bogus", "minhash:2", "minhash:axb", "minhash:8x2:zz",
        "minhash:0x4", "minhash:64x8",  # 512 lanes > 256 cap
    ])
    def test_parse_approx_rejects_malformed_specs(self, bad):
        with pytest.raises(InvalidParameterError):
            parse_approx(bad)

    def test_simhash_spec_is_rejected(self):
        for spec in ("simhash", "simhash:16x2"):
            with pytest.raises(InvalidParameterError,
                               match="'minhash', 'wminhash'"):
                parse_approx(spec)
        join = create_join("STR-L2AP", THETA, DECAY, backend="python",
                           approx="minhash:8x2")
        join.feed(random_vectors(10, seed=5))
        state = snapshot_join(join)
        state["approx"] = "simhash:8x2"
        with pytest.raises(InvalidParameterError):
            restore_join(state)

    def test_geometry_overrides_require_a_method(self):
        with pytest.raises(InvalidParameterError):
            parse_approx(None, bands=8)

    def test_join_parameters_canonicalise_the_spec(self):
        params = JoinParameters(threshold=0.7, decay=0.01, approx="minhash")
        assert params.approx == "minhash:16x2"
        join = params.create_join("STR-L2AP")
        assert join.approx == "minhash:16x2"

    def test_inv_schemes_reject_approx(self):
        for algorithm in ("STR-INV", "MB-INV"):
            with pytest.raises(InvalidParameterError):
                create_join(algorithm, THETA, DECAY, approx="minhash")

    def test_sharded_engine_rejects_approx(self):
        with pytest.raises(InvalidParameterError):
            create_join("STR-L2AP", THETA, DECAY, approx="minhash", workers=2)


def scalar_signature(config, vector):
    """The signature of ``config`` computed lane by lane in Python ints,
    an oracle for the vectorised ``SignatureScheme.lanes``."""
    base = _splitmix64(config.seed)
    salts = [_splitmix64(base + lane * 0x9E3779B97F4A7C15)
             for lane in range(config.signature_length)]
    dim_hashes = [_splitmix64(dim) for dim in vector.dims]
    if config.method == "minhash":
        return tuple(min(_splitmix64(mixed ^ salt) for mixed in dim_hashes)
                     for salt in salts)
    squared = [value * value for value in vector.values]
    signature = []
    for salt in salts:
        # The first dimension with the smallest key uniform / weight² wins
        # (IEEE division: a weight whose square underflows gives inf).
        keys = [float(_splitmix64(mixed ^ salt)) / weight if weight
                else math.inf
                for mixed, weight in zip(dim_hashes, squared)]
        signature.append(dim_hashes[keys.index(min(keys))])
    return tuple(signature)


def scalar_band_keys(config, signature):
    """Band keys folded lane by lane in Python ints: band ``b``'s key is
    its first lane, mixed with each further lane by one splitmix64."""
    keys = []
    for start in range(0, config.signature_length, config.rows):
        key = signature[start]
        for lane in signature[start + 1:start + config.rows]:
            key = _splitmix64(key ^ lane)
        keys.append(key)
    return tuple(keys)


def bucket_entries(kernel):
    return sum(len(slots) for bucket in kernel._band_buckets
               for slots in bucket.values())


# The oracle test's cases: 8x2 keeps the ids it had before the geometry
# became a parameter.
ORACLE_CASES = [
    pytest.param(method, geometry,
                 id=method if geometry == "8x2" else f"{method}-{geometry}")
    for geometry in ("8x2", "24x3", "16x2", "8x4:7", "16x1")
    for method in ("minhash", "wminhash")
]


def lane_tuple(scheme, vector):
    return tuple(scheme.lanes(vector).tolist())


class TestSignatureScheme:
    @pytest.mark.parametrize("method, geometry", ORACLE_CASES)
    def test_vectorised_and_pure_python_paths_agree(self, method, geometry):
        config = parse_approx(f"{method}:{geometry}")
        scheme = SignatureScheme(config)
        # 40 dimensions over 60 vectors: most dimensions come back, and
        # are read from the lane table the second time.
        for vector in random_vectors(60, seed=11):
            signature = scalar_signature(config, vector)
            assert lane_tuple(scheme, vector) == signature
            keys = scheme.band_keys(vector)
            assert keys.dtype == "uint64" and keys.shape == (config.bands,)
            assert tuple(keys.tolist()) == scalar_band_keys(config, signature)
        assert 0 < len(scheme._rows) <= 40

    @pytest.mark.parametrize("method", ["minhash", "wminhash"])
    def test_keys_survive_a_full_lane_table(self, method, monkeypatch):
        monkeypatch.setattr(approx, "_LANE_TABLE_ROWS", 16)
        config = parse_approx(f"{method}:8x3")
        scheme = SignatureScheme(config)
        wide = SparseVector(999, 0.0, {dim: 1.0 + dim for dim in range(20)})
        sizes = []
        for vector in [*random_vectors(50, seed=17), wide,
                       *random_vectors(10, seed=18)]:
            signature = scalar_signature(config, vector)
            assert lane_tuple(scheme, vector) == signature
            assert tuple(scheme.band_keys(vector).tolist()) \
                == scalar_band_keys(config, signature)
            sizes.append(len(scheme._rows))
            assert len(scheme._rows) <= 16
        assert len(scheme._dim_hashes) == 16
        # The table filled and was cleared more than once.
        assert sum(after < before
                   for before, after in zip(sizes, sizes[1:])) > 1

    def test_signatures_raise_no_warnings(self):
        vectors = [
            *random_vectors(20, seed=29),
            SparseVector(100, 0.0, {0: 1.0, 2**63 - 1: 0.5}),
            # A weight whose square underflows to zero.
            SparseVector(101, 1.0, {1: 1.0, 5: 1e-170}),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in ("minhash:8x2", "wminhash:24x3"):
                config = parse_approx(spec)
                scheme = SignatureScheme(config)
                for vector in vectors:
                    signature = scalar_signature(config, vector)
                    assert lane_tuple(scheme, vector) == signature
                    assert tuple(scheme.band_keys(vector).tolist()) \
                        == scalar_band_keys(config, signature)
                for backend in ("python", "numpy"):
                    create_join("STR-L2AP", THETA, DECAY, backend=backend,
                                approx=config).feed(vectors[:20])

    def test_a_fresh_scheme_holds_no_dimension_rows(self):
        scheme = SignatureScheme(parse_approx("wminhash:24x3"))
        assert scheme._rows == {}
        assert scheme._dim_hashes is None and scheme._lane_hashes is None
        join = create_join("STR-L2AP", THETA, DECAY, backend="numpy",
                           approx="wminhash:24x3")
        assert join.index.kernel._sketch_scheme._lane_hashes is None
        join.process(SparseVector(0, 0.0, {3: 1.0, 4: 1.0}))
        assert sorted(join.index.kernel._sketch_scheme._rows) == [3, 4]

    def test_identical_dimension_sets_always_match_under_minhash(self):
        scheme = SignatureScheme(ApproxConfig(method="minhash"))
        x = SparseVector(0, 0.0, {3: 0.9, 7: 0.2})
        y = SparseVector(1, 1.0, {3: 0.1, 7: 0.8})  # same dims, other weights
        assert lane_tuple(scheme, x) == lane_tuple(scheme, y)
        assert (scheme.band_keys(x).tolist()
                == scheme.band_keys(y).tolist())

    def test_wminhash_is_scale_invariant_but_weight_sensitive(self):
        # The consistent-sampling race keys are uniform / weight², so a
        # uniform rescale divides every key by the same constant and the
        # per-lane winners — hence the signature — cannot change ...
        scheme = SignatureScheme(ApproxConfig(method="wminhash"))
        x = SparseVector(0, 0.0, {3: 0.9, 7: 0.2})
        scaled = SparseVector(1, 1.0, {3: 0.45, 7: 0.1})
        assert lane_tuple(scheme, x) == lane_tuple(scheme, scaled)
        # ... while redistributing mass between the dims changes which
        # dimension wins some lanes — unlike minhash, which is blind to
        # the weights entirely.
        reweighted = SparseVector(2, 2.0, {3: 0.1, 7: 0.8})
        assert lane_tuple(scheme, x) != lane_tuple(scheme, reweighted)

    def test_band_keys_tile_the_signature(self):
        config = ApproxConfig(method="minhash", bands=4, rows=3)
        scheme = SignatureScheme(config)
        vector = SparseVector(0, 0.0, {1: 1.0, 5: 0.5})
        # Band b folds lanes 3b, 3b+1, 3b+2 in order, one splitmix64 each.
        assert tuple(scheme.band_keys(vector).tolist()) \
            == scalar_band_keys(config, lane_tuple(scheme, vector))


class TestBandBuckets:
    """The NumPy kernel's band buckets hold the live signed slots only."""

    def test_buckets_shrink_with_the_horizon(self):
        # 1 200 hashtags vectors, one per time unit, with a horizon of
        # 100 time units: almost every vector is evicted again.
        vectors = generate_profile_corpus("hashtags", num_vectors=1200, seed=3)
        decay = math.log(1.0 / THETA) / 100.0
        spec = "wminhash:24x3"
        join = create_join("STR-L2AP", THETA, decay, backend="numpy",
                           approx=spec)
        pairs = join.feed(vectors)
        kernel = join.index.kernel
        live = int(kernel._slot_sig_valid.sum())
        assert 0 < live == len(join.index._residual) < 200
        assert bucket_entries(kernel) <= 24 * live
        expected, expected_stats = engine_pairs(
            vectors, THETA, decay, algorithm="STR-L2AP", backend="python",
            approx=spec)
        assert fingerprint(pairs) == fingerprint(expected)
        assert (counters_without_time(join.stats.as_dict())
                == counters_without_time(expected_stats.as_dict()))

    def test_a_slot_indexed_again_is_bucketed_once(self):
        kernel = NumpyKernel()
        kernel.configure_approx(parse_approx("minhash:8x2"))
        vector = SparseVector(7, 0.0, {1: 0.6, 2: 0.8})
        kernel.note_vector_indexed(ResidualEntry(vector, 0, 0.0))
        # A restore or note_vector_updated's fallback indexes it again.
        kernel.note_vector_indexed(ResidualEntry(vector, 0, 0.0))
        assert bucket_entries(kernel) == 8
        kernel.note_vector_evicted(7)
        kernel.note_vector_evicted(7)
        assert bucket_entries(kernel) == 0
        assert all(not bucket for bucket in kernel._band_buckets)
