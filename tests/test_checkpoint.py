"""Tests for checkpointing and resuming streaming joins."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.baselines.brute_force import brute_force_time_dependent
from repro.core.checkpoint import (
    CheckpointError,
    PeriodicCheckpointer,
    atomic_write_json,
    load_checkpoint,
    restore_join,
    save_checkpoint,
    snapshot_join,
)
from repro.core.frameworks.minibatch import MiniBatchFramework
from repro.core.frameworks.streaming import StreamingFramework
from repro.core.vector import SparseVector
from repro.datasets.generator import generate_profile_corpus
from tests.conftest import random_vectors
from tests.groundtruth import counters_without_time, engine_pairs

BACKENDS = ["python", "numpy"]


def split_run(algorithm_index: str, vectors, threshold: float, decay: float,
              split_at: int, *, via_file=None):
    """Run the first part, checkpoint, restore, run the second part."""
    first = StreamingFramework(threshold, decay, index=algorithm_index)
    keys = set()
    for vector in vectors[:split_at]:
        keys.update(pair.key for pair in first.process(vector))
    if via_file is not None:
        save_checkpoint(first, via_file)
        resumed = load_checkpoint(via_file)
    else:
        resumed = restore_join(snapshot_join(first))
    for vector in vectors[split_at:]:
        keys.update(pair.key for pair in resumed.process(vector))
    return keys, resumed


class TestSnapshotRestore:
    @pytest.mark.parametrize("index", ["INV", "L2", "L2AP", "AP"])
    def test_resumed_run_matches_uninterrupted_run(self, index):
        vectors = random_vectors(80, seed=131)
        threshold, decay = 0.6, 0.05
        expected = {p.key for p in brute_force_time_dependent(vectors, threshold, decay)}
        keys, _ = split_run(index, vectors, threshold, decay, split_at=40)
        assert keys == expected

    @pytest.mark.parametrize("split_at", [1, 10, 59])
    def test_any_split_point_works(self, split_at):
        vectors = random_vectors(60, seed=137)
        threshold, decay = 0.6, 0.05
        expected = {p.key for p in brute_force_time_dependent(vectors, threshold, decay)}
        keys, _ = split_run("L2", vectors, threshold, decay, split_at=split_at)
        assert keys == expected

    def test_statistics_survive_the_checkpoint(self):
        vectors = random_vectors(50, seed=139)
        join = StreamingFramework(0.6, 0.05, index="L2")
        for vector in vectors[:25]:
            join.process(vector)
        resumed = restore_join(snapshot_join(join))
        assert resumed.stats.vectors_processed == join.stats.vectors_processed
        assert resumed.stats.entries_indexed == join.stats.entries_indexed
        for vector in vectors[25:]:
            resumed.process(vector)
        assert resumed.stats.vectors_processed == 50

    def test_snapshot_is_json_serialisable(self):
        join = StreamingFramework(0.6, 0.05, index="L2AP")
        for vector in random_vectors(30, seed=141):
            join.process(vector)
        payload = json.dumps(snapshot_join(join))
        assert isinstance(payload, str)
        restored = restore_join(json.loads(payload))
        assert restored.algorithm == "STR-L2AP"

    def test_file_round_trip(self, tmp_path):
        vectors = generate_profile_corpus("tweets", num_vectors=120, seed=31)
        threshold, decay = 0.6, 0.05
        expected = {p.key for p in brute_force_time_dependent(vectors, threshold, decay)}
        keys, resumed = split_run("L2", vectors, threshold, decay, split_at=60,
                                  via_file=tmp_path / "join.ckpt")
        assert keys == expected
        assert resumed.algorithm == "STR-L2"

    def test_restored_parameters_match(self):
        join = StreamingFramework(0.72, 0.03, index="L2")
        restored = restore_join(snapshot_join(join))
        assert restored.threshold == pytest.approx(0.72)
        assert restored.decay == pytest.approx(0.03)
        assert restored.horizon == pytest.approx(join.horizon)


class TestRestoreThenContinueParity:
    """Checkpoint mid-stream, restore, finish: bitwise-equal to an
    uninterrupted run — pairs (similarities included) and every counter —
    on both compute backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("index", ["L2", "L2AP"])
    def test_pairs_and_counters_bitwise_equal(self, backend, index):
        vectors = random_vectors(80, seed=211)
        threshold, decay = 0.6, 0.05
        uninterrupted = StreamingFramework(threshold, decay, index=index,
                                           backend=backend)
        expected_pairs = [pair for vector in vectors
                          for pair in uninterrupted.process(vector)]

        first = StreamingFramework(threshold, decay, index=index,
                                   backend=backend)
        got_pairs = [pair for vector in vectors[:37]
                     for pair in first.process(vector)]
        resumed = restore_join(snapshot_join(first))
        got_pairs += [pair for vector in vectors[37:]
                      for pair in resumed.process(vector)]

        assert got_pairs == expected_pairs  # full tuples, not just keys
        expected_counters = uninterrupted.stats.as_dict()
        got_counters = resumed.stats.as_dict()
        expected_counters.pop("elapsed_seconds")
        got_counters.pop("elapsed_seconds")
        assert got_counters == expected_counters

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cross_backend_restore_keeps_pair_set(self, backend):
        """A checkpoint written by one backend restores on another."""
        vectors = random_vectors(60, seed=223)
        threshold, decay = 0.6, 0.05
        first = StreamingFramework(threshold, decay, index="L2",
                                   backend=backend)
        keys = set()
        for vector in vectors[:30]:
            keys.update(pair.key for pair in first.process(vector))
        state = snapshot_join(first)
        other = "python" if backend == "numpy" else None
        state["backend"] = other
        resumed = restore_join(state)
        for vector in vectors[30:]:
            keys.update(pair.key for pair in resumed.process(vector))
        expected = {p.key
                    for p in brute_force_time_dependent(vectors, threshold, decay)}
        assert keys == expected


class TestAtomicWrites:
    def test_save_leaves_no_temp_files_and_is_loadable(self, tmp_path):
        join = StreamingFramework(0.6, 0.05, index="L2")
        for vector in random_vectors(30, seed=227):
            join.process(vector)
        path = tmp_path / "join.ckpt"
        save_checkpoint(join, path)
        save_checkpoint(join, path)  # overwrite goes through os.replace too
        assert [p.name for p in tmp_path.iterdir()] == ["join.ckpt"]
        assert load_checkpoint(path).stats.vectors_processed == 30

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path):
        path = tmp_path / "state.json"
        atomic_write_json(path, {"generation": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()})  # not JSON-serialisable
        assert json.loads(path.read_text()) == {"generation": 1}
        assert list(tmp_path.glob("*.tmp.*")) == []


class TestPeriodicCheckpointer:
    def test_writes_every_n_vectors(self, tmp_path):
        join = StreamingFramework(0.6, 0.05, index="L2")
        checkpointer = PeriodicCheckpointer(join, tmp_path / "j.ckpt",
                                            every_vectors=10)
        for vector in random_vectors(35, seed=229):
            join.process(vector)
            checkpointer.tick()
        assert checkpointer.checkpoints_written == 3
        assert load_checkpoint(tmp_path / "j.ckpt").stats.vectors_processed == 30

    def test_no_interval_means_explicit_only(self, tmp_path):
        join = StreamingFramework(0.6, 0.05, index="L2")
        checkpointer = PeriodicCheckpointer(join, tmp_path / "j.ckpt")
        for vector in random_vectors(10, seed=233):
            join.process(vector)
            checkpointer.tick()
        assert checkpointer.checkpoints_written == 0
        assert checkpointer.tick(force=True) is not None
        assert checkpointer.checkpoints_written == 1

    def test_rejects_nonpositive_intervals(self, tmp_path):
        join = StreamingFramework(0.6, 0.05, index="L2")
        with pytest.raises(ValueError):
            PeriodicCheckpointer(join, tmp_path / "j.ckpt", every_vectors=0)
        with pytest.raises(ValueError):
            PeriodicCheckpointer(join, tmp_path / "j.ckpt", every_seconds=0)


class TestCheckpointErrors:
    def test_minibatch_framework_is_rejected(self):
        with pytest.raises(CheckpointError):
            snapshot_join(MiniBatchFramework(0.6, 0.05, index="L2"))

    def test_unknown_version_is_rejected(self):
        join = StreamingFramework(0.6, 0.05, index="L2")
        state = snapshot_join(join)
        state["version"] = 99
        with pytest.raises(CheckpointError):
            restore_join(state)

    def test_non_str_algorithm_is_rejected(self):
        join = StreamingFramework(0.6, 0.05, index="L2")
        state = snapshot_join(join)
        state["algorithm"] = "MB-L2"
        with pytest.raises(CheckpointError):
            restore_join(state)


# -- golden checkpoint envelope ------------------------------------------------------

GOLDEN = Path(__file__).parent / "fixtures" / "checkpoint_str_l2ap_numpy.json"
GOLDEN_THRESHOLD = 0.6
GOLDEN_DECAY = 0.05
GOLDEN_PREFIX = 40


def golden_stream() -> list[SparseVector]:
    """The golden fixture's 60-vector stream (its first 40 are checkpointed).

    Drawn from :class:`random.Random` only, whose ``random()`` sequence is
    stable across Python versions: near-duplicates of recent vectors make
    pairs, a horizon of about 20 arrivals makes postings expire, and
    growing maxima re-index.
    """
    rng = random.Random(14)
    vectors: list[SparseVector] = []
    for index in range(60):
        if vectors and rng.random() < 0.4:
            recent = vectors[-8:]
            entries = dict(recent[int(rng.random() * len(recent))])
            dim = int(rng.random() * 30)
            entries[dim] = entries.get(dim, 0.0) + 0.05 + 0.25 * rng.random()
        else:
            entries = {}
            while len(entries) < 5:
                entries[int(rng.random() * 30)] = 0.1 + 0.9 * rng.random()
        vectors.append(SparseVector(index, index * 0.5, entries))
    return vectors


def golden_prefix_snapshot() -> dict:
    """The STR-L2AP/numpy envelope after the golden prefix, as JSON reads it."""
    join = StreamingFramework(GOLDEN_THRESHOLD, GOLDEN_DECAY, index="L2AP",
                              backend="numpy")
    for vector in golden_stream()[:GOLDEN_PREFIX]:
        join.process(vector)
    return json.loads(json.dumps(snapshot_join(join)))


def pair_rows(pairs) -> list[tuple]:
    """Every field of each pair (``SimilarPair`` equality compares ids only)."""
    return [(pair.id_a, pair.id_b, pair.similarity, pair.dot,
             pair.time_delta, pair.reported_at) for pair in pairs]


class TestGoldenCheckpoint:
    """A committed envelope pins the checkpoint format and the restore path.

    A change to what ``snapshot_join`` writes, or to how ``restore_join``
    reads it, fails here unless ``_FORMAT_VERSION`` is bumped and the
    fixture regenerated with ``PYTHONPATH=src python -m tests.test_checkpoint``.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_restored_golden_continues_like_an_uninterrupted_run(self, backend):
        state = json.loads(GOLDEN.read_text(encoding="utf-8"))
        state["backend"] = backend
        resumed = restore_join(state)
        vectors = golden_stream()
        got = [pair for vector in vectors[GOLDEN_PREFIX:]
               for pair in resumed.process(vector)]
        expected, stats = engine_pairs(vectors, GOLDEN_THRESHOLD, GOLDEN_DECAY,
                                       algorithm="STR-L2AP", backend=backend)
        resumed_at = vectors[GOLDEN_PREFIX].timestamp
        assert got
        assert pair_rows(got) == pair_rows(
            pair for pair in expected if pair.reported_at >= resumed_at)
        assert (counters_without_time(resumed.stats.as_dict())
                == counters_without_time(stats.as_dict()))

    def test_fresh_snapshot_matches_the_golden_envelope(self):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        fresh = golden_prefix_snapshot()
        for state in (golden, fresh):
            state["stats"].pop("elapsed_seconds")
        assert sorted(fresh) == sorted(golden)
        for field in golden:
            assert fresh[field] == golden[field], field


if __name__ == "__main__":
    envelope = golden_prefix_snapshot()
    envelope["stats"]["elapsed_seconds"] = 0.0
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(envelope, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
