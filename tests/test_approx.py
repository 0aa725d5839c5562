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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SparseVector, available_backends
from repro.approx import ApproxConfig, SignatureScheme, parse_approx
from repro.core.checkpoint import restore_join, snapshot_join
from repro.core.join import create_join
from repro.core.similarity import JoinParameters
from repro.exceptions import InvalidParameterError
from tests.conftest import random_vectors
from tests.groundtruth import counters_without_time, engine_pairs

THETA, DECAY = 0.6, 0.05

#: Acceptance floor for the default sketch on the shared tweets corpus.
RECALL_FLOOR = 0.95

BACKENDS = [name for name in ("python", "numpy")
            if name in available_backends()]

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
        assert set(kernel._sketch_sigs) >= resident
        original = join.index.kernel._sketch_sigs
        for vector_id in resident:
            assert kernel._sketch_sigs[vector_id] == original[vector_id]

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


class TestSignatureScheme:
    @pytest.mark.parametrize("method", ["minhash", "wminhash"])
    def test_vectorised_and_pure_python_paths_agree(self, method):
        pytest.importorskip("numpy")
        config = ApproxConfig(method=method, bands=8, rows=2)
        vectorised = SignatureScheme(config)
        assert vectorised._np is not None
        portable = SignatureScheme(config)
        portable._np = None  # force the pure-Python path
        for vector in random_vectors(25, seed=3):
            assert vectorised.signature(vector) == portable.signature(vector)

    def test_identical_dimension_sets_always_match_under_minhash(self):
        scheme = SignatureScheme(ApproxConfig(method="minhash"))
        x = SparseVector(0, 0.0, {3: 0.9, 7: 0.2})
        y = SparseVector(1, 1.0, {3: 0.1, 7: 0.8})  # same dims, other weights
        assert scheme.signature(x) == scheme.signature(y)
        assert scheme.matches(scheme.signature(x), scheme.signature(y))

    def test_wminhash_is_scale_invariant_but_weight_sensitive(self):
        # The consistent-sampling race keys are uniform / weight², so a
        # uniform rescale divides every key by the same constant and the
        # per-lane winners — hence the signature — cannot change ...
        scheme = SignatureScheme(ApproxConfig(method="wminhash"))
        x = SparseVector(0, 0.0, {3: 0.9, 7: 0.2})
        scaled = SparseVector(1, 1.0, {3: 0.45, 7: 0.1})
        assert scheme.signature(x) == scheme.signature(scaled)
        # ... while redistributing mass between the dims changes which
        # dimension wins some lanes — unlike minhash, which is blind to
        # the weights entirely.
        reweighted = SparseVector(2, 2.0, {3: 0.1, 7: 0.8})
        assert scheme.signature(x) != scheme.signature(reweighted)

    def test_band_keys_tile_the_signature(self):
        config = ApproxConfig(method="minhash", bands=4, rows=3)
        scheme = SignatureScheme(config)
        signature = scheme.signature(SparseVector(0, 0.0, {1: 1.0, 5: 0.5}))
        keys = scheme.band_keys(signature)
        assert len(keys) == 4 and all(len(key) == 3 for key in keys)
        assert tuple(value for key in keys for value in key) == signature
