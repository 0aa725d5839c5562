"""Parity and unit tests for the sharded parallel join engine.

The determinism contract of :mod:`repro.shard` (see
``repro/shard/coordinator.py``) promises that a sharded run is *bitwise
identical* to the single-process run on the same kernel — the same pairs
in the same report order, with the same similarities, dots and time
deltas, and the same operation counters — at every worker count.  Each
of W candidate partitions runs every vector as a query but stores only
every W-th vector; the suites here drive that contract across the
regimes that stress different machinery:

* ``θ = 1`` and mid-range thresholds (admission edge cases),
* aggressive decay (expiry: head truncation on time-ordered lists, lazy
  masked expiry + amortised compaction on unordered ones),
* growing maxima under STR-L2AP (re-indexing: out-of-order appends of
  vectors owned by different partitions into one list, pscore
  refreshes, ℓ₂-locked boundaries, ``reindexings`` OR-ed per step),
* STR-INV, equal-timestamp bursts, the reference backend, and a worker
  killed mid-stream.

The hypothesis suites run every partition in-process
(``executor="serial"``, ``workers ∈ {1, 2, 4}``) so they are
deterministic and CI-safe; smaller non-hypothesis tests fork the
partitions end to end.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SparseVector
from repro.core.results import JoinStatistics
from repro.exceptions import SSSJError
from repro.shard import ProcessShardExecutor, create_sharded_join
from tests.conftest import (
    ACCELERATED_BACKENDS,
    REPLAY_PATHS,
    forced_replay_path,
)
from tests.groundtruth import engine_pair_map

PARITY_COUNTERS = ("candidates_generated", "candidates_sketch_pruned",
                   "full_similarities",
                   "entries_traversed", "entries_pruned", "entries_indexed",
                   "residual_entries", "reindexings", "reindexed_entries",
                   "pairs_output", "max_index_size", "max_residual_size")

WORKER_COUNTS = (1, 2, 4)


def run_single_process(algorithm, vectors, threshold, decay,
                       backend="numpy"):
    return engine_pair_map(vectors, threshold, decay, algorithm=algorithm,
                           backend=backend)


def run_sharded(algorithm, vectors, threshold, decay, workers,
                executor="serial", backend="numpy"):
    stats = JoinStatistics()
    with create_sharded_join(algorithm, threshold, decay, workers=workers,
                             stats=stats, backend=backend,
                             executor=executor) as join:
        pairs = {pair.key: pair for pair in join.run(vectors)}
    return pairs, stats


def assert_sharded_matches(algorithm, vectors, threshold, decay,
                           worker_counts=WORKER_COUNTS, executor="serial",
                           backend="numpy"):
    """Sharded runs against the single-process run on the same backend,
    with the NumPy replay forced onto each path in turn."""
    expected, expected_stats = run_single_process(algorithm, vectors,
                                                  threshold, decay, backend)
    paths = REPLAY_PATHS if backend != "python" else ("scalar",)
    for path in paths:
        for workers in worker_counts:
            with forced_replay_path(path):
                actual, actual_stats = run_sharded(
                    algorithm, vectors, threshold, decay, workers, executor,
                    backend)
            where = (algorithm, backend, path, workers)
            assert set(actual) == set(expected), where
            assert list(actual) == list(expected), where  # report order
            for key, pair in expected.items():
                other = actual[key]
                assert other.similarity == pair.similarity, (*where, key)
                assert other.dot == pair.dot, (*where, key)
                assert other.time_delta == pair.time_delta, (*where, key)
            for counter in PARITY_COUNTERS:
                assert (getattr(actual_stats, counter)
                        == getattr(expected_stats, counter)), (*where, counter)


sparse_streams = st.lists(
    st.dictionaries(st.integers(min_value=0, max_value=30),
                    st.floats(min_value=0.05, max_value=1.0),
                    min_size=1, max_size=7),
    min_size=2, max_size=35,
)


@pytest.mark.parametrize("backend", ACCELERATED_BACKENDS)
class TestShardedParity:
    @settings(max_examples=15, deadline=None)
    @given(entries=sparse_streams,
           threshold=st.floats(min_value=0.3, max_value=0.99),
           decay=st.floats(min_value=0.05, max_value=2.0))
    def test_expiring_streams(self, entries, threshold, decay, backend):
        # Fast decay → short horizon: postings expire constantly, driving
        # both head truncation (STR-L2) and the lazy masked expiry +
        # amortised compaction of unordered lists (STR-L2AP) inside the
        # shard workers.
        vectors = [SparseVector(index, float(index), coords)
                   for index, coords in enumerate(entries)]
        for algorithm in ("STR-L2AP", "STR-L2", "STR-INV"):
            assert_sharded_matches(algorithm, vectors, threshold, decay,
                                   backend=backend)

    @settings(max_examples=10, deadline=None)
    @given(entries=sparse_streams,
           threshold=st.floats(min_value=0.4, max_value=0.95))
    def test_reindexing_streams(self, entries, threshold, backend):
        # Slow decay + values scaled up over time: the online maximum
        # vector keeps growing, so STR-L2AP re-indexes constantly and the
        # re-indexed (out-of-time-order) postings are routed to shards.
        count = len(entries)
        vectors = [
            SparseVector(index, float(index) * 0.1,
                         {dim: value * (0.3 + 0.7 * index / count)
                          for dim, value in coords.items()})
            for index, coords in enumerate(entries)
        ]
        for algorithm in ("STR-L2AP", "STR-AP"):
            assert_sharded_matches(algorithm, vectors, threshold, 0.002,
                                   backend=backend)

    @settings(max_examples=8, deadline=None)
    @given(entries=sparse_streams)
    def test_theta_one(self, entries, backend):
        # θ = 1 only admits exact duplicates; the admission bound sits on
        # the threshold for identical vectors, the regime where any
        # sharded drift in the replayed bounds would show.
        vectors = [SparseVector(index, float(index) * 0.01, coords)
                   for index, coords in enumerate(entries + entries[:3])]
        for algorithm in ("STR-L2AP", "STR-L2"):
            assert_sharded_matches(algorithm, vectors, 1.0, 0.01,
                                   worker_counts=(1, 3), backend=backend)

    def test_equal_timestamp_burst(self, backend):
        # Bursts of equal timestamps (the merge_streams tie regime) must
        # shard identically too: candidates of one burst tie on time and
        # are told apart by their append steps alone.
        vectors = [SparseVector(index, float(index // 4),
                                {index % 6: 0.8, 6 + index % 5: 0.6})
                   for index in range(40)]
        for algorithm in ("STR-L2AP", "STR-L2", "STR-INV"):
            assert_sharded_matches(algorithm, vectors, 0.5, 0.1,
                                   backend=backend)


def reindexing_burst():
    """A stream whose maxima grow under vectors of several partitions.

    Every vector shares dimensions 0-3 with larger and larger weights, so
    each arrival raises ``m`` and re-indexes the stored vectors of every
    partition; their moved postings land in the same unordered lists in
    the same step, and the next queries reach them there.
    """
    vectors = []
    for index in range(36):
        grow = 0.2 + 0.8 * index / 36
        coords = {dim: (0.3 + 0.1 * ((index + dim) % 4)) * grow
                  for dim in range(4)}
        coords[4 + index % 5] = 0.5
        vectors.append(SparseVector(index, index * 0.05, coords))
    return vectors


class TestPartitionRegimes:
    """Targeted streams for the merge keys and counter rules."""

    @pytest.mark.parametrize("algorithm", ["STR-L2AP", "STR-AP"])
    def test_reindexing_across_partitions(self, algorithm):
        vectors = reindexing_burst()
        _, stats = run_single_process(algorithm, vectors, 0.6, 0.01)
        assert stats.reindexings > 0 and stats.reindexed_entries > 0
        assert_sharded_matches(algorithm, vectors, 0.6, 0.01)

    @pytest.mark.parametrize("algorithm", ["STR-L2AP", "STR-AP"])
    def test_same_step_reindexing_ties(self, algorithm):
        # Vector 5 raises m on dimension 0 and re-indexes vectors 1
        # (partition 1) and 8 (partition 0) in one step: both move their
        # dimension-0 posting into one list, where vector 5's own scan
        # finds them.  Their merge keys tie on position and step, and
        # only the id order of the moves (8 after 1, though a set would
        # iterate 8 first) restores the single-process report order.
        vectors = [SparseVector(100, 0.0, {10: 1.0}),
                   SparseVector(1, 0.1, {0: 0.6, 2: 0.8}),
                   SparseVector(8, 0.2, {0: 0.6, 1: 0.8}),
                   SparseVector(5, 0.3, {0: 0.9, 3: 0.436})]
        expected, stats = run_single_process(algorithm, vectors, 0.5, 0.001)
        assert list(expected) == [(1, 5), (5, 8)]
        assert stats.reindexed_entries == 2
        assert_sharded_matches(algorithm, vectors, 0.5, 0.001)

    def test_reindexings_is_one_event_per_step(self):
        # Every partition re-indexes in the same steps; summing the
        # per-partition events would overcount.
        vectors = reindexing_burst()
        _, expected = run_single_process("STR-L2AP", vectors, 0.6, 0.01)
        _, sharded = run_sharded("STR-L2AP", vectors, 0.6, 0.01, 4)
        assert sharded.reindexings == expected.reindexings

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_inverted_index(self, executor):
        from tests.conftest import random_vectors

        vectors = random_vectors(120, seed=5, time_step=0.2)
        assert_sharded_matches("STR-INV", vectors, 0.5, 0.05,
                               worker_counts=(2, 4), executor=executor)

    def test_equal_timestamp_burst_over_processes(self):
        vectors = [SparseVector(index, float(index // 5),
                                {index % 7: 0.8, 7 + index % 4: 0.6})
                   for index in range(60)]
        for algorithm in ("STR-L2AP", "STR-L2", "STR-INV"):
            assert_sharded_matches(algorithm, vectors, 0.5, 0.1,
                                   worker_counts=(2, 3), executor="process")

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_reference_backend_partitions(self, executor):
        from tests.conftest import random_vectors

        vectors = random_vectors(90, seed=3, time_step=0.3)
        for algorithm in ("STR-L2AP", "STR-L2", "STR-INV"):
            assert_sharded_matches(algorithm, vectors, 0.5, 0.05,
                                   worker_counts=(1, 2), executor=executor,
                                   backend="python")
        vectors = reindexing_burst()
        assert_sharded_matches("STR-L2AP", vectors, 0.6, 0.01,
                               worker_counts=(2, 3), executor=executor,
                               backend="python")

    def test_kill_worker_mid_stream_recovers_bitwise(self):
        # Fed one vector per ``process()`` call, so the kill lands between
        # two single-vector exchanges (``TestFeed`` covers chunks).
        from tests.conftest import random_vectors

        vectors = random_vectors(140, seed=9, time_step=0.2)
        expected, expected_stats = run_single_process("STR-L2AP", vectors,
                                                      0.5, 0.05)
        stats = JoinStatistics()
        with create_sharded_join("STR-L2AP", 0.5, 0.05, workers=3,
                                 stats=stats,
                                 fault_plan="kill-worker:shard=2,after=70",
                                 ) as join:
            actual = {pair.key: pair for vector in vectors
                      for pair in join.process(vector)}
            events = join.recovery_events
        assert [event["kind"] for event in events] == ["respawn"]
        assert events[0]["shard"] == 2
        assert events[0]["replayed_steps"] == 69
        assert list(actual) == list(expected)
        for key, pair in expected.items():
            assert actual[key].similarity == pair.similarity
        for counter in PARITY_COUNTERS:
            assert getattr(stats, counter) == getattr(expected_stats, counter)


class TestProcessExecutor:
    def test_multiprocess_parity_two_workers(self):
        import random

        random.seed(17)
        vectors = []
        timestamp = 0.0
        for index in range(150):
            timestamp += random.random() * 0.2
            coords = {random.randrange(20): random.uniform(0.05, 1.0)
                      for _ in range(random.randrange(1, 6))}
            vectors.append(SparseVector(index, timestamp, coords))
        for algorithm in ("STR-L2AP", "STR-INV"):
            assert_sharded_matches(algorithm, vectors, 0.5, 0.05,
                                   worker_counts=(2,), executor="process")

    def test_shard_counters_report_traffic(self):
        from repro.shard import create_sharded_join

        vectors = [SparseVector(index, float(index),
                                {index % 8: 0.9, 8 + index % 7: 0.5})
                   for index in range(60)]
        with create_sharded_join("STR-L2", 0.5, 0.05, workers=2,
                                 executor="process") as join:
            for vector in vectors:
                join.process(vector)
            counters = join.shard_counters()
        assert len(counters) == 2
        assert (sum(c.entries_indexed for c in counters)
                == join.stats.entries_indexed)
        assert (sum(c.entries_traversed for c in counters)
                == join.stats.entries_traversed)
        # Every partition runs every vector as a query.
        assert all(c.scans == 60 for c in counters)
        assert [c.shard for c in counters] == [0, 1]

    def test_close_is_idempotent(self):
        from repro.shard import create_sharded_join

        join = create_sharded_join("STR-L2", 0.6, 0.1, workers=2,
                                   executor="process")
        join.process(SparseVector(0, 0.0, {1: 1.0}))
        join.close()
        join.close()

    def test_workers_leave_dev_shm_untouched(self):
        # Worker arenas are private heap arrays: a process join creates no
        # shared-memory segment while it runs, and leaves none behind.
        # Only Python's unnamed SharedMemory segments (``psm_*``) are
        # compared, so other processes' segments cannot fail the test.
        import os

        from repro.shard import create_sharded_join
        from tests.conftest import random_vectors

        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")

        def segments():
            return {name for name in os.listdir("/dev/shm")
                    if name.startswith("psm_")}

        before = segments()
        join = create_sharded_join("STR-L2AP", 0.6, 0.05, workers=2,
                                   executor="process")
        try:
            join.run_to_list(random_vectors(300, seed=11))
            assert segments() - before == set()
        finally:
            join.close()
        assert segments() - before == set()


class TestClosedJoin:
    """After ``close()`` no call reaches a partition: each one that would
    send to or spawn a partition raises, and no worker outlives it."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_calls_after_close_raise(self, executor):
        import multiprocessing

        before = set(multiprocessing.active_children())
        vectors = [SparseVector(index, float(index), {index % 3: 1.0})
                   for index in range(4)]
        join = create_sharded_join("STR-L2", 0.5, 0.05, workers=2,
                                   executor=executor)
        join.process(vectors[0])
        join.close()
        with pytest.raises(SSSJError, match="closed"):
            join.process(vectors[1])
        with pytest.raises(SSSJError, match="closed"):
            join.feed(vectors[2:])
        with pytest.raises(SSSJError, match="closed"):
            join.shard_counters()
        join.close()
        # The metrics collector still reads these from a closed join.
        assert join.recovery_events == [] and not join.degraded
        assert join.executor.respawns == 0
        assert join.stats.vectors_processed == 1
        assert [child.name for child in multiprocessing.active_children()
                if child not in before] == []


class TestDropIn:
    def test_default_index_matches_the_streaming_join(self):
        from repro import ShardedStreamingJoin, StreamingSimilarityJoin

        with ShardedStreamingJoin(0.7, 0.1, executor="serial") as join:
            assert join.algorithm == "STR-L2"
            assert join.algorithm == StreamingSimilarityJoin(0.7,
                                                             0.1).algorithm


def stored_by(workers: int, count: int) -> list[list[int]]:
    """Per arrival step, the partitions whose index stored that vector."""
    from repro.shard import Partition, PartitionSpec
    from repro.shard.partition import SUMMED_COUNTERS

    spec = PartitionSpec("L2", 0.5, 0.01, workers, "python")
    partitions = [Partition(spec, part) for part in range(workers)]
    indexed = SUMMED_COUNTERS.index("entries_indexed")
    owners = []
    for step in range(count):
        vector = SparseVector(step, float(step), {step: 1.0})
        owners.append([part for part, partition in enumerate(partitions)
                       if partition.step(vector)[2][3][indexed]])
    return owners


class TestShardPlan:
    def test_deterministic_and_in_range(self):
        owners = stored_by(4, 200)
        assert owners == stored_by(4, 200)
        assert all(len(parts) == 1 and parts[0] in {0, 1, 2, 3}
                   for parts in owners)

    def test_single_shard_owns_everything(self):
        assert stored_by(1, 100) == [[0]] * 100

    def test_rejects_zero_workers(self):
        for executor in ("serial", "process"):
            with pytest.raises(ValueError):
                create_sharded_join("STR-L2", 0.6, 0.05, workers=0,
                                    executor=executor)

    def test_consecutive_steps_spread(self):
        # Round robin: consecutive arrivals land on different partitions.
        owners = [parts[0] for parts in stored_by(4, 400)]
        assert owners[:8] == [0, 1, 2, 3] * 2
        assert [owners.count(part) for part in range(4)] == [100] * 4
        assert all(len(set(owners[start:start + 4])) == 4
                   for start in range(0, 400, 4))

    def test_partitions_store_every_vector_once(self):
        # Each vector is stored by partition ``step mod W`` and by no
        # other, while every partition queries (and counts) all of them.
        from repro.shard import Partition, PartitionSpec

        vectors = [SparseVector(index, float(index),
                                {index % 5: 1.0, 5 + index % 3: 0.4})
                   for index in range(30)]
        spec = PartitionSpec("L2AP", 0.5, 0.01, 3, "numpy")
        partitions = [Partition(spec, part) for part in range(3)]
        for vector in vectors:
            for partition in partitions:
                partition.step(vector)
        for part, partition in enumerate(partitions):
            stored = {entry.vector_id
                      for entry in partition.index._residual.entries()}
            assert stored == {step for step in range(30) if step % 3 == part}
            assert partition.index.steps == 30


class TestShardCLI:
    def test_run_with_workers(self, capsys):
        from repro.cli import main

        assert main(["run", "--profile", "tweets", "--num-vectors", "80",
                     "--algorithm", "STR-L2", "--theta", "0.6",
                     "--decay", "0.05", "--workers", "2"]) == 0
        output = capsys.readouterr().out
        assert "numpyx2" in output

    def test_run_rejects_workers_for_minibatch(self, capsys):
        from repro.cli import main

        assert main(["run", "--profile", "tweets", "--num-vectors", "10",
                     "--algorithm", "MB-L2", "--workers", "2"]) == 2


class TestBenchmarkSeams:
    """The hooks ``sssjbench/`` uses on a sharded join stay in place."""

    def test_benchmark_hooks(self):
        import multiprocessing

        from repro.core.join import create_join
        from repro.shard.executor import ProcessShardExecutor
        from tests.conftest import random_vectors

        calls = []
        original = ProcessShardExecutor.exchange

        def counted(self, requests, params):
            calls.append(1)
            return original(self, requests, params)

        vectors = random_vectors(80, seed=4, time_step=0.2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ProcessShardExecutor, "exchange", counted)
            join = create_join("STR-L2", 0.5, 0.05, backend="numpy",
                               workers=2)
            try:
                children = multiprocessing.active_children()
                assert len(children) == 1  # partition 1; 0 runs here
                for vector in vectors[:40]:
                    join.process(vector)
                assert len(calls) == 40  # one exchange per process()
                rows = join.shard_counters()
                assert all(hasattr(row, "entries_traversed") for row in rows)
                assert join.recovery_events == [] and not join.degraded
                join.executor._kill_worker(0)
                assert not children[0].is_alive()
                for vector in vectors[40:]:
                    join.process(vector)
                assert [event["kind"] for event in join.recovery_events] == [
                    "respawn"]
                assert join.stats.vectors_processed == 80
            finally:
                join.close()


class TestFeed:
    """``feed`` and ``run`` send chunks of vectors per exchange; output is
    unchanged."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_feed_matches_process(self, executor):
        from repro.shard import create_sharded_join
        from tests.conftest import random_vectors

        vectors = random_vectors(150, seed=12, time_step=0.2)
        expected, expected_stats = run_single_process("STR-L2AP", vectors,
                                                      0.5, 0.05)
        stats = JoinStatistics()
        with create_sharded_join("STR-L2AP", 0.5, 0.05, workers=2,
                                 stats=stats, executor=executor) as join:
            pairs = join.feed(vectors)
        assert [pair.key for pair in pairs] == list(expected)
        for pair in pairs:
            assert pair.similarity == expected[pair.key].similarity
        for counter in PARITY_COUNTERS:
            assert getattr(stats, counter) == getattr(expected_stats, counter)

    def test_kill_inside_a_chunk_replays_the_chunks_before_it(self):
        from repro.shard import create_sharded_join
        from tests.conftest import random_vectors

        vectors = random_vectors(150, seed=12, time_step=0.2)
        expected, _ = run_single_process("STR-L2AP", vectors, 0.5, 0.05)
        with create_sharded_join("STR-L2AP", 0.5, 0.05, workers=2,
                                 fault_plan="kill-worker:shard=1,after=100",
                                 ) as join:
            pairs = join.feed(vectors)
            events = join.recovery_events
        assert [pair.key for pair in pairs] == list(expected)
        # Vector 100 rides in the second 64-vector chunk.
        assert [event["replayed_steps"] for event in events] == [64]

    def test_an_older_vector_stops_the_feed_after_its_predecessors(self):
        from repro.exceptions import StreamOrderError
        from repro.shard import create_sharded_join

        vectors = [SparseVector(index, float(index), {index % 3: 1.0})
                   for index in range(10)]
        vectors.insert(7, SparseVector(99, 2.0, {0: 1.0}))
        with create_sharded_join("STR-L2", 0.5, 0.05, workers=2,
                                 executor="serial") as join:
            with pytest.raises(StreamOrderError):
                join.feed(vectors)
            assert join.stats.vectors_processed == 7

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_run_matches_process(self, executor):
        from tests.conftest import random_vectors

        vectors = random_vectors(150, seed=12, time_step=0.2)
        by_vector = JoinStatistics()
        with create_sharded_join("STR-L2AP", 0.5, 0.05, workers=2,
                                 stats=by_vector, executor=executor) as join:
            expected = [pair for vector in vectors
                        for pair in join.process(vector)]
        chunked = JoinStatistics()
        with create_sharded_join("STR-L2AP", 0.5, 0.05, workers=2,
                                 stats=chunked, executor=executor) as join:
            pairs = list(join.run(vectors))
        assert [(pair.key, pair.similarity) for pair in pairs] == [
            (pair.key, pair.similarity) for pair in expected]
        assert expected
        for counter in PARITY_COUNTERS:
            assert getattr(chunked, counter) == getattr(by_vector, counter)

    def test_an_older_vector_stops_the_run_after_its_predecessors(self):
        from repro.exceptions import StreamOrderError

        vectors = [SparseVector(index, float(index), {index % 3: 1.0})
                   for index in range(10)]
        expected, _ = run_single_process("STR-L2", vectors[:7], 0.5, 0.05)
        vectors.insert(7, SparseVector(99, 2.0, {0: 1.0}))
        pairs = []
        with create_sharded_join("STR-L2", 0.5, 0.05, workers=2,
                                 executor="serial") as join:
            with pytest.raises(StreamOrderError):
                for pair in join.run(vectors):
                    pairs.append(pair)
            assert join.stats.vectors_processed == 7
        assert [pair.key for pair in pairs] == list(expected)
        assert pairs

    def test_a_failed_chunk_is_not_sent_again(self, monkeypatch):
        # Without recovery a dead partition fails the chunk; the error
        # surfaces as is, and no partition sees the chunk a second time.
        from repro.exceptions import ShardWorkerError
        from tests.conftest import random_vectors

        monkeypatch.setattr(ProcessShardExecutor, "RECOVERY", False)
        vectors = random_vectors(100, seed=12, time_step=0.2)
        with create_sharded_join("STR-L2AP", 0.5, 0.05, workers=2,
                                 fault_plan="kill-worker:shard=1,after=10",
                                 ) as join:
            with pytest.raises(ShardWorkerError, match="shard 1"):
                join.feed(vectors)
            # Only the first chunk was sent.
            assert join.executor._local[0].index.steps == join.FEED_CHUNK
            assert join.stats.vectors_processed == 0
