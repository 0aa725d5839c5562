"""Tests for the Streaming (STR) framework."""

from __future__ import annotations

import math

import pytest

from repro import create_join
from repro.baselines.brute_force import brute_force_time_dependent
from repro.core.frameworks.streaming import StreamingFramework
from repro.core.similarity import time_horizon
from repro.core.vector import SparseVector
from repro.exceptions import StreamOrderError, UnknownAlgorithmError
from tests.conftest import random_vectors


def vec(vector_id: int, t: float, entries: dict[int, float]) -> SparseVector:
    return SparseVector(vector_id, t, entries)


class TestBasics:
    def test_algorithm_name(self):
        assert StreamingFramework(0.7, 0.1, index="l2ap").algorithm == "STR-L2AP"

    def test_unknown_index_rejected(self):
        with pytest.raises(UnknownAlgorithmError):
            StreamingFramework(0.7, 0.1, index="BOGUS")

    def test_horizon_property(self):
        framework = StreamingFramework(0.7, 0.1)
        assert framework.horizon == pytest.approx(time_horizon(0.7, 0.1))

    def test_flush_is_empty(self):
        framework = StreamingFramework(0.7, 0.1)
        framework.process(vec(1, 0.0, {1: 1.0}))
        assert framework.flush() == []

    def test_index_size_exposed(self):
        framework = StreamingFramework(0.7, 0.1)
        framework.process(vec(1, 0.0, {1: 1.0, 2: 1.0}))
        assert framework.index_size >= 1


class TestReporting:
    def test_pairs_reported_immediately(self):
        framework = StreamingFramework(0.7, 0.1)
        assert framework.process(vec(1, 0.0, {1: 1.0})) == []
        pairs = framework.process(vec(2, 1.0, {1: 1.0}))
        assert [pair.key for pair in pairs] == [(1, 2)]
        assert pairs[0].reported_at == pytest.approx(1.0)

    def test_no_reporting_delay(self):
        framework = StreamingFramework(0.6, 0.05)
        vectors = random_vectors(50, seed=81)
        by_id = {vector.vector_id: vector for vector in vectors}
        for pair in framework.run(vectors):
            later = max(by_id[pair.id_a].timestamp, by_id[pair.id_b].timestamp)
            assert pair.reported_at == pytest.approx(later)

    def test_similarity_value(self):
        framework = StreamingFramework(0.5, 0.2)
        framework.process(vec(1, 0.0, {1: 1.0, 2: 1.0}))
        pairs = framework.process(vec(2, 1.0, {1: 1.0, 2: 1.0}))
        assert pairs[0].similarity == pytest.approx(math.exp(-0.2))


class TestRunDriver:
    def test_run_to_list(self):
        framework = StreamingFramework(0.7, 0.1)
        pairs = framework.run_to_list([
            vec(1, 0.0, {1: 1.0}), vec(2, 0.5, {1: 1.0}), vec(3, 1.0, {9: 1.0}),
        ])
        assert {pair.key for pair in pairs} == {(1, 2)}

    def test_stats_accumulate_across_run(self):
        framework = StreamingFramework(0.6, 0.05)
        framework.run_to_list(random_vectors(40, seed=83))
        assert framework.stats.vectors_processed == 40
        assert framework.stats.entries_indexed > 0


class TestCorrectness:
    @pytest.mark.parametrize("index", ["INV", "L2AP", "L2", "AP"])
    @pytest.mark.parametrize("threshold,decay", [(0.5, 0.05), (0.8, 0.01)])
    def test_matches_brute_force(self, index, threshold, decay):
        vectors = random_vectors(90, seed=89)
        expected = {p.key for p in brute_force_time_dependent(vectors, threshold, decay)}
        framework = StreamingFramework(threshold, decay, index=index)
        got = {p.key for p in framework.run(vectors)}
        assert got == expected


STR_ALGORITHMS = ("STR-INV", "STR-L2", "STR-AP", "STR-L2AP")


def emitted(join, vectors) -> list[list[tuple]]:
    """Every pair field of every ``process()`` result, in order."""
    return [[(pair.key, pair.similarity, pair.dot, pair.time_delta)
             for pair in join.process(vector)] for vector in vectors]


def counters(join) -> dict:
    state = join.stats.as_dict()
    state.pop("elapsed_seconds", None)
    return state


class TestStreamOrder:
    """A vector older than its predecessor is refused before any state
    changes, so the join goes on exactly as if it never arrived."""

    def test_older_duplicate_does_not_pair_above_one(self):
        for algorithm in STR_ALGORITHMS:
            join = create_join(algorithm, 0.6, 0.1, backend="python")
            assert join.process(vec(1, 5.0, {1: 0.6, 2: 0.8})) == []
            with pytest.raises(StreamOrderError):
                join.process(vec(2, 4.0, {1: 0.6, 2: 0.8}))
            pairs = join.process(vec(3, 5.0, {1: 0.6, 2: 0.8}))
            assert [pair.key for pair in pairs] == [(1, 3)], algorithm
            assert pairs[0].similarity <= 1.0

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("algorithm", STR_ALGORITHMS)
    def test_rejected_vector_leaves_no_trace(self, algorithm, backend):
        self._assert_rejection_is_invisible(
            lambda: create_join(algorithm, 0.5, 0.05, backend=backend))

    @pytest.mark.parametrize("algorithm", STR_ALGORITHMS)
    def test_sharded_join_rejects_too(self, algorithm):
        from repro.shard import create_sharded_join

        joins = []

        def build():
            join = create_sharded_join(algorithm, 0.5, 0.05, workers=2,
                                       executor="serial")
            joins.append(join)
            return join

        try:
            self._assert_rejection_is_invisible(build)
        finally:
            for join in joins:
                join.close()

    @staticmethod
    def _assert_rejection_is_invisible(build) -> None:
        vectors = random_vectors(60, seed=23)
        last = vectors[29]
        # Equal timestamps stay legal: the vector after the rejected one
        # shares the last accepted vector's time.
        vectors[30] = SparseVector(vectors[30].vector_id, last.timestamp,
                                   dict(vectors[30]))
        clean = build()
        expected = emitted(clean, vectors)
        join = build()
        got = emitted(join, vectors[:30])
        with pytest.raises(StreamOrderError):
            join.process(SparseVector(10_000, last.timestamp - 0.5,
                                      dict(last)))
        got += emitted(join, vectors[30:])
        assert got == expected
        assert counters(join) == counters(clean)
