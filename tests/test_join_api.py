"""Tests for the high-level public API (create_join, streaming_self_join)."""

from __future__ import annotations

import pytest

from repro import (
    JoinStatistics,
    ListCollector,
    MiniBatchSimilarityJoin,
    StreamingSimilarityJoin,
    create_join,
    parse_algorithm,
    streaming_self_join,
)
from repro.core.frameworks.minibatch import MiniBatchFramework
from repro.core.frameworks.streaming import StreamingFramework
from repro.exceptions import UnknownAlgorithmError
from tests.conftest import random_vectors


class TestParseAlgorithm:
    @pytest.mark.parametrize("text,expected", [
        ("STR-L2", ("STR", "L2")),
        ("mb-inv", ("MB", "INV")),
        ("str_l2ap", ("STR", "L2AP")),
    ])
    def test_valid_names(self, text, expected):
        assert parse_algorithm(text) == expected

    @pytest.mark.parametrize("text", ["L2", "STRL2", "XXX-L2", ""])
    def test_invalid_names(self, text):
        with pytest.raises(UnknownAlgorithmError):
            parse_algorithm(text)


class TestCreateJoin:
    def test_str_framework(self):
        join = create_join("STR-L2", 0.7, 0.1)
        assert isinstance(join, StreamingFramework)
        assert join.algorithm == "STR-L2"

    def test_mb_framework(self):
        join = create_join("MB-INV", 0.7, 0.1)
        assert isinstance(join, MiniBatchFramework)
        assert join.algorithm == "MB-INV"

    def test_unknown_index_propagates(self):
        with pytest.raises(UnknownAlgorithmError):
            create_join("STR-NOPE", 0.7, 0.1)

    def test_shared_stats_object(self):
        stats = JoinStatistics()
        join = create_join("STR-L2", 0.7, 0.1, stats=stats)
        join.run_to_list(random_vectors(20, seed=91))
        assert stats.vectors_processed == 20

    def test_workers_delegates_to_the_sharded_engine(self):
        from repro.shard import ShardedStreamingJoin

        join = create_join("STR-L2", 0.7, 0.1, workers=2)
        try:
            assert isinstance(join, ShardedStreamingJoin)
            assert join.workers == 2
        finally:
            join.close()

    def test_workers_rejects_minibatch_algorithms(self):
        with pytest.raises(UnknownAlgorithmError):
            create_join("MB-L2", 0.7, 0.1, workers=2)


class TestIncrementalFeed:
    @pytest.mark.parametrize("algorithm", ["STR-L2", "MB-L2"])
    @pytest.mark.parametrize("chunk_size", [1, 7, 100])
    def test_chunked_feed_equals_one_shot_run(self, algorithm, chunk_size):
        """feed()'s contract: concatenating chunks ≡ feeding the stream."""
        vectors = random_vectors(50, seed=95)
        expected = create_join(algorithm, 0.6, 0.05).run_to_list(vectors)
        join = create_join(algorithm, 0.6, 0.05)
        got = []
        for start in range(0, len(vectors), chunk_size):
            got.extend(join.feed(vectors[start:start + chunk_size]))
        got.extend(join.flush())
        assert got == expected

    def test_feed_does_not_flush(self):
        join = create_join("MB-L2", 0.6, 0.05)
        join.feed(random_vectors(10, seed=97))
        # The MB window is still open: flush() reports the buffered pairs.
        assert join.flush() or join.stats.vectors_processed == 10


class TestStreamingSelfJoin:
    def test_yields_pairs_lazily(self):
        vectors = random_vectors(40, seed=93)
        pairs = list(streaming_self_join(vectors, 0.6, 0.05))
        assert all(pair.similarity >= 0.6 for pair in pairs)

    def test_algorithm_selection(self):
        vectors = random_vectors(40, seed=93)
        default = {p.key for p in streaming_self_join(vectors, 0.6, 0.05)}
        via_mb = {p.key for p in streaming_self_join(vectors, 0.6, 0.05, algorithm="MB-L2")}
        assert default == via_mb

    def test_collector_integration(self):
        vectors = random_vectors(40, seed=95)
        collector = ListCollector()
        for pair in streaming_self_join(vectors, 0.6, 0.05):
            collector(pair)
        assert collector.keys() == {p.key for p in streaming_self_join(vectors, 0.6, 0.05)}


class TestPublicClasses:
    def test_streaming_similarity_join_defaults_to_l2(self):
        join = StreamingSimilarityJoin(threshold=0.7, decay=0.1)
        assert join.algorithm == "STR-L2"

    def test_minibatch_similarity_join(self):
        join = MiniBatchSimilarityJoin(threshold=0.7, decay=0.1, index="INV")
        assert join.algorithm == "MB-INV"

    def test_docstring_example(self):
        from repro import SparseVector

        join = StreamingSimilarityJoin(threshold=0.7, decay=0.1)
        a = SparseVector(1, 0.0, {0: 1.0, 1: 1.0})
        b = SparseVector(2, 1.0, {0: 1.0, 1: 1.0})
        assert [pair.key for pair in join.run([a, b])] == [(1, 2)]
