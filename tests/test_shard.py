"""Parity and unit tests for the sharded parallel join engine.

The determinism contract of :mod:`repro.shard` (see
``repro/shard/coordinator.py``) promises that a sharded run is *bitwise
identical* to the single-process NumPy run — the same pair set with the
same similarities, dots and time deltas, and the same operation
counters — at every worker count.  The hypothesis suite here drives that
contract across the regimes that stress different machinery:

* ``θ = 1`` and mid-range thresholds (admission edge cases),
* aggressive decay (expiry: head truncation on time-ordered lists, lazy
  masked expiry + amortised compaction on unordered ones),
* growing maxima under STR-L2AP (re-indexing: out-of-order appends routed
  to shards, pscore refreshes, ℓ₂-locked boundaries).

The suite runs on the serial in-process executor (``workers ∈ {1, 2, 4}``)
so it is deterministic and CI-safe; a smaller non-hypothesis test
exercises the real multiprocess executor end to end.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SparseVector, available_backends
from repro.core.results import JoinStatistics, ShardCounters, merge_shard_counters
from repro.shard.plan import ShardPlan, plan_report
from tests.conftest import (
    REPLAY_PATHS,
    accelerated_backends,
    forced_replay_path,
)
from tests.groundtruth import engine_pair_map

pytestmark = pytest.mark.skipif("numpy" not in available_backends(),
                                reason="NumPy backend unavailable")

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
    from repro.shard import create_sharded_join

    stats = JoinStatistics()
    with create_sharded_join(algorithm, threshold, decay, workers=workers,
                             stats=stats, backend=backend,
                             executor=executor) as join:
        pairs = {pair.key: pair for pair in join.run(vectors)}
    return pairs, stats


def assert_sharded_matches(algorithm, vectors, threshold, decay,
                           worker_counts=WORKER_COUNTS, executor="serial",
                           backend="numpy"):
    """Sharded runs against the default single-process run, with the
    coordinator's replay forced onto each path in turn."""
    expected, expected_stats = run_single_process(algorithm, vectors,
                                                  threshold, decay, backend)
    for path in REPLAY_PATHS:
        for workers in worker_counts:
            with forced_replay_path(path):
                actual, actual_stats = run_sharded(
                    algorithm, vectors, threshold, decay, workers, executor,
                    backend)
            where = (algorithm, path, workers)
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


@pytest.mark.parametrize("backend", accelerated_backends())
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
        # shard identically too.
        vectors = [SparseVector(index, float(index // 4),
                                {index % 6: 0.8, 6 + index % 5: 0.6})
                   for index in range(40)]
        for algorithm in ("STR-L2AP", "STR-L2", "STR-INV"):
            assert_sharded_matches(algorithm, vectors, 0.5, 0.1,
                                   backend=backend)


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
        total = merge_shard_counters(counters)
        assert total.entries_indexed == join.stats.entries_indexed
        assert total.entries_traversed == join.stats.entries_traversed
        assert all(c.scans == 60 for c in counters)

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


class TestShardPlan:
    def test_deterministic_and_in_range(self):
        plan = ShardPlan(4)
        owners = [plan.shard_of(dim) for dim in range(1000)]
        assert owners == [plan.shard_of(dim) for dim in range(1000)]
        assert set(owners) <= {0, 1, 2, 3}

    def test_single_shard_owns_everything(self):
        plan = ShardPlan(1)
        assert {plan.shard_of(dim) for dim in range(100)} == {0}

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ShardPlan(0)

    def test_consecutive_dims_spread(self):
        # The mixing hash must not map consecutive ids to one shard.
        plan = ShardPlan(4)
        counts = [0] * 4
        for dim in range(4000):
            counts[plan.shard_of(dim)] += 1
        assert max(counts) < 2 * min(counts)

    def test_split_positions_partitions_every_coordinate(self):
        plan = ShardPlan(3)
        vector = SparseVector(0, 0.0, {dim: 0.5 for dim in range(17)})
        groups = plan.split_positions(vector)
        flattened = sorted(position for group in groups for position in group)
        assert flattened == list(range(17))
        for shard, group in enumerate(groups):
            assert all(plan.shard_of(vector.dims[p]) == shard for p in group)

    def test_plan_report_measures_mass(self):
        vectors = [SparseVector(index, float(index),
                                {index % 10: 1.0, 10 + index % 3: 0.5})
                   for index in range(30)]
        balance = plan_report(vectors, 2)
        assert balance.total_postings == sum(len(v) for v in vectors)
        assert sum(shard.entries_indexed for shard in balance.shards) \
            == balance.total_postings
        assert balance.skew >= 1.0
        rows = balance.rows()
        assert len(rows) == 2 and {row["shard"] for row in rows} == {0, 1}


class TestShardCounters:
    def test_merge_accumulates(self):
        first = ShardCounters(shard=0, dimensions=3, entries_indexed=10,
                              entries_traversed=7, entries_removed=2, scans=5)
        second = ShardCounters(shard=1, dimensions=2, entries_indexed=4,
                               entries_traversed=1, entries_removed=0, scans=5)
        total = merge_shard_counters([first, second])
        assert total.shard == -1
        assert total.dimensions == 5
        assert total.entries_indexed == 14
        assert total.entries_traversed == 8
        assert total.scans == 10


class TestShardCLI:
    def test_shards_subcommand(self, capsys):
        from repro.cli import main

        assert main(["shards", "--profile", "tweets", "--num-vectors", "150",
                     "--workers", "3"]) == 0
        output = capsys.readouterr().out
        assert "3 shards" in output
        assert "skew" in output

    def test_run_with_workers(self, capsys):
        from repro.cli import main

        assert main(["run", "--profile", "tweets", "--num-vectors", "80",
                     "--algorithm", "STR-L2", "--theta", "0.6",
                     "--decay", "0.05", "--workers", "2",
                     "--shard-executor", "serial"]) == 0
        output = capsys.readouterr().out
        assert "numpyx2" in output

    def test_run_rejects_workers_for_minibatch(self, capsys):
        from repro.cli import main

        assert main(["run", "--profile", "tweets", "--num-vectors", "10",
                     "--algorithm", "MB-L2", "--workers", "2"]) == 2
