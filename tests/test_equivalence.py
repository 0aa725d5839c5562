"""Integration tests: every algorithm produces the exact answer.

The central correctness claim of the paper (Appendix A) is that neither
framework produces false positives or false negatives.  These tests compare
every framework/index combination against the brute-force oracle on
realistic synthetic corpora generated from the paper-shaped profiles.

The oracle itself comes from the shared :mod:`tests.groundtruth` harness:
the ``tweets_truth`` / ``rcv1_truth`` fixtures memoise the O(n²) pair
sets session-wide, so each (θ, λ) setting is brute-forced once no matter
how many algorithm parametrisations compare against it.
"""

from __future__ import annotations

import pytest

from repro import create_join, sliding_window_join
from tests.conftest import ACCELERATED_BACKENDS

ALGORITHMS = ["STR-INV", "STR-L2AP", "STR-L2", "MB-INV", "MB-L2AP", "MB-L2"]

# The INV schemes have no prefix filtering, so the MB variant re-tests
# every cross-window combination — by far the heaviest cells of the
# matrix.  The cheaper STR-INV row keeps the oracle honest for the
# unfiltered scheme in the default (tier-1) run.
_HEAVY = {"MB-INV"}

ALGORITHM_PARAMS = [
    pytest.param(algorithm, marks=pytest.mark.slow)
    if algorithm in _HEAVY else algorithm
    for algorithm in ALGORITHMS
]


class TestTweetsProfile:
    @pytest.mark.parametrize("algorithm", ALGORITHM_PARAMS)
    def test_matches_oracle(self, tweets_corpus, tweets_truth, algorithm):
        threshold, decay = 0.6, 0.05
        expected = tweets_truth.keys(threshold, decay)
        join = create_join(algorithm, threshold, decay)
        got = {pair.key for pair in join.run(tweets_corpus)}
        assert got == expected

    @pytest.mark.parametrize("threshold,decay", [(0.5, 0.01), (0.7, 0.1), (0.9, 0.001)])
    def test_str_l2_across_parameters(self, tweets_corpus, tweets_truth,
                                      threshold, decay):
        expected = tweets_truth.keys(threshold, decay)
        join = create_join("STR-L2", threshold, decay)
        assert {pair.key for pair in join.run(tweets_corpus)} == expected


class TestRCV1Profile:
    @pytest.mark.parametrize("algorithm", ALGORITHM_PARAMS)
    def test_matches_oracle(self, rcv1_corpus, rcv1_truth, algorithm):
        threshold, decay = 0.7, 0.02
        expected = rcv1_truth.keys(threshold, decay)
        join = create_join(algorithm, threshold, decay)
        got = {pair.key for pair in join.run(rcv1_corpus)}
        assert got == expected


class TestBackendOracle:
    """The no-false-positive/negative claim, per explicit backend.

    The classes above run the default backend (so the reference-backend
    CI job re-checks them under ``SSSJ_BACKEND=python``); this one names
    each accelerated backend explicitly and pins it against the memoised
    oracle.
    """

    @pytest.mark.parametrize("backend", ACCELERATED_BACKENDS)
    @pytest.mark.parametrize("algorithm", ["STR-INV", "STR-L2AP", "STR-L2"])
    def test_matches_oracle(self, tweets_corpus, tweets_truth, algorithm,
                            backend):
        threshold, decay = 0.6, 0.05
        expected = tweets_truth.keys(threshold, decay)
        join = create_join(algorithm, threshold, decay, backend=backend)
        got = {pair.key for pair in join.run(tweets_corpus)}
        assert got == expected


class TestCrossAlgorithmAgreement:
    def test_all_algorithms_agree_with_each_other(self, tweets_corpus):
        threshold, decay = 0.65, 0.02
        results = {}
        for algorithm in ALGORITHMS:
            join = create_join(algorithm, threshold, decay)
            results[algorithm] = {pair.key for pair in join.run(tweets_corpus)}
        reference = results[ALGORITHMS[0]]
        for algorithm, keys in results.items():
            assert keys == reference, f"{algorithm} disagrees with {ALGORITHMS[0]}"

    def test_sliding_window_baseline_agrees(self, tweets_corpus, tweets_truth):
        threshold, decay = 0.65, 0.02
        expected = tweets_truth.keys(threshold, decay)
        got = {pair.key for pair in sliding_window_join(tweets_corpus, threshold, decay)}
        assert got == expected


class TestNoFalsePositives:
    @pytest.mark.parametrize("algorithm", ALGORITHM_PARAMS)
    def test_every_reported_pair_is_above_threshold(self, tweets_corpus, algorithm):
        threshold, decay = 0.6, 0.05
        by_id = {vector.vector_id: vector for vector in tweets_corpus}
        join = create_join(algorithm, threshold, decay)
        import math

        for pair in join.run(tweets_corpus):
            x, y = by_id[pair.id_a], by_id[pair.id_b]
            true_similarity = x.dot(y) * math.exp(-decay * abs(x.timestamp - y.timestamp))
            assert true_similarity >= threshold - 1e-9
            assert pair.similarity == pytest.approx(true_similarity)


class TestNoDuplicates:
    @pytest.mark.parametrize("algorithm", ALGORITHM_PARAMS)
    def test_each_pair_reported_once(self, tweets_corpus, algorithm):
        join = create_join(algorithm, 0.6, 0.05)
        pairs = [pair.key for pair in join.run(tweets_corpus)]
        assert len(pairs) == len(set(pairs))
