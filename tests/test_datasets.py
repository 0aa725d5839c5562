"""Tests for the synthetic dataset substrate (profiles, arrivals, generator, stats)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.arrival import (
    bursty_timestamps,
    make_arrival_process,
    poisson_timestamps,
    sequential_timestamps,
)
from repro.datasets.generator import (
    SyntheticCorpusGenerator,
    generate_corpus,
    generate_profile_corpus,
)
from repro.datasets.profiles import DatasetProfile, available_profiles, get_profile
from repro.datasets.stats import dataset_statistics
from repro.exceptions import InvalidParameterError


class TestProfiles:
    def test_paper_profiles_exist(self):
        # The four paper corpora plus the synthetic backend hot-path profile.
        assert set(available_profiles()) == {
            "webspam", "rcv1", "blogs", "tweets", "hashtags",
        }

    def test_get_profile_is_case_insensitive(self):
        assert get_profile("RCV1").name == "rcv1"

    def test_unknown_profile(self):
        with pytest.raises(InvalidParameterError):
            get_profile("imaginary")

    def test_scaled_overrides_vector_count(self):
        assert get_profile("rcv1", num_vectors=123).num_vectors == 123

    def test_density_ordering_matches_paper(self):
        # WebSpam is the densest profile, Tweets the sparsest (Table 1).
        avg = {name: get_profile(name).avg_nnz for name in available_profiles()}
        assert avg["webspam"] > avg["blogs"] > avg["rcv1"] > avg["tweets"]

    def test_invalid_profile_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            DatasetProfile(
                name="bad", num_vectors=0, vocabulary_size=10, avg_nnz=5,
                nnz_dispersion=0.5, zipf_exponent=1.0, arrival_process="sequential",
                arrival_rate=1.0, burst_size=4.0, duplicate_probability=0.1,
                duplicate_noise=0.1, duplicate_window=10, description="",
            )


class TestArrivalProcesses:
    def test_sequential(self):
        assert list(sequential_timestamps(4)) == [0.0, 1.0, 2.0, 3.0]

    def test_sequential_with_custom_step(self):
        assert list(sequential_timestamps(3, start=5.0, step=0.5)) == [5.0, 5.5, 6.0]

    def test_sequential_rejects_bad_step(self):
        with pytest.raises(InvalidParameterError):
            list(sequential_timestamps(3, step=0.0))

    def test_poisson_is_increasing(self):
        rng = np.random.default_rng(0)
        times = list(poisson_timestamps(100, rng, rate=2.0))
        assert len(times) == 100
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_poisson_rate_controls_density(self):
        rng = np.random.default_rng(0)
        fast = list(poisson_timestamps(200, rng, rate=10.0))
        rng = np.random.default_rng(0)
        slow = list(poisson_timestamps(200, rng, rate=0.1))
        assert fast[-1] < slow[-1]

    def test_poisson_rejects_bad_rate(self):
        with pytest.raises(InvalidParameterError):
            list(poisson_timestamps(3, np.random.default_rng(0), rate=0.0))

    def test_bursty_is_non_decreasing_and_complete(self):
        # A burst anchored inside the previous burst's spread used to emit
        # earlier timestamps than that burst's last items (seeds 0, 2, 11,
        # 14, 17 and 19 of these did).
        for seed in range(20):
            rng = np.random.default_rng(seed)
            times = list(bursty_timestamps(150, rng, rate=2.0, burst_size=6.0))
            assert len(times) == 150, seed
            assert all(a <= b for a, b in zip(times, times[1:])), seed

    @pytest.mark.parametrize("profile", ["tweets", "blogs"])
    def test_bursty_profiles_are_time_ordered(self, profile):
        corpus = generate_profile_corpus(profile, num_vectors=1000, seed=7)
        times = [vector.timestamp for vector in corpus]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_bursty_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            list(bursty_timestamps(3, np.random.default_rng(0), rate=1.0, burst_size=0.5))

    def test_make_arrival_process_dispatch(self):
        rng = np.random.default_rng(0)
        assert len(list(make_arrival_process("sequential", 5, rng))) == 5
        assert len(list(make_arrival_process("poisson", 5, rng))) == 5
        assert len(list(make_arrival_process("bursty", 5, rng))) == 5

    def test_make_arrival_process_unknown(self):
        with pytest.raises(InvalidParameterError):
            make_arrival_process("chaotic", 5, np.random.default_rng(0))


class TestGenerator:
    def test_generates_requested_count(self):
        corpus = generate_profile_corpus("tweets", num_vectors=120, seed=1)
        assert len(corpus) == 120

    def test_vectors_are_normalized_and_time_ordered(self):
        corpus = generate_profile_corpus("blogs", num_vectors=80, seed=2)
        assert all(vector.is_normalized() for vector in corpus)
        times = [vector.timestamp for vector in corpus]
        assert times == sorted(times)

    def test_vector_ids_are_unique_and_sequential(self):
        corpus = generate_profile_corpus("rcv1", num_vectors=50, seed=3)
        assert [vector.vector_id for vector in corpus] == list(range(50))

    def test_reproducible_with_same_seed(self):
        a = generate_profile_corpus("tweets", num_vectors=60, seed=9)
        b = generate_profile_corpus("tweets", num_vectors=60, seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_profile_corpus("tweets", num_vectors=60, seed=9)
        b = generate_profile_corpus("tweets", num_vectors=60, seed=10)
        assert a != b

    def test_average_nnz_tracks_profile(self):
        profile = get_profile("rcv1", num_vectors=300)
        corpus = generate_corpus(profile, seed=4)
        avg_nnz = sum(len(vector) for vector in corpus) / len(corpus)
        assert 0.5 * profile.avg_nnz <= avg_nnz <= 2.0 * profile.avg_nnz

    def test_duplicates_create_similar_pairs(self):
        profile = get_profile("tweets", num_vectors=200)
        corpus = generate_corpus(profile, seed=5)
        # At least one pair of near-duplicates with high cosine similarity
        # must exist, otherwise the workload cannot exercise the join.
        best = max(corpus[i].dot(corpus[j])
                   for i in range(0, 50) for j in range(i + 1, 50))
        assert best >= 0.7

    def test_stream_is_lazy_and_matches_generate(self):
        profile = get_profile("tweets", num_vectors=40)
        eager = SyntheticCorpusGenerator(profile, seed=6).generate()
        lazy = list(SyntheticCorpusGenerator(profile, seed=6).stream())
        assert eager == lazy

    def test_start_id_offsets_vector_ids(self):
        profile = get_profile("tweets", num_vectors=10)
        corpus = SyntheticCorpusGenerator(profile, seed=7, start_id=100).generate()
        assert corpus[0].vector_id == 100

    def test_arrival_process_respected(self):
        sequential = generate_profile_corpus("rcv1", num_vectors=30, seed=8)
        gaps = {round(b.timestamp - a.timestamp, 6)
                for a, b in zip(sequential, sequential[1:])}
        assert gaps == {1.0}


class TestDatasetStatistics:
    def test_matches_manual_computation(self):
        corpus = generate_profile_corpus("tweets", num_vectors=100, seed=11)
        stats = dataset_statistics(corpus, name="tweets", timestamp_type="bursty")
        assert stats.num_vectors == 100
        assert stats.total_nonzeros == sum(len(vector) for vector in corpus)
        assert stats.avg_nonzeros == pytest.approx(stats.total_nonzeros / 100)
        dims = set()
        for vector in corpus:
            dims.update(vector.dims)
        assert stats.num_dimensions == len(dims)
        assert stats.density == pytest.approx(
            stats.total_nonzeros / (stats.num_vectors * stats.num_dimensions)
        )

    def test_empty_collection(self):
        stats = dataset_statistics([], name="empty")
        assert stats.num_vectors == 0
        assert stats.density == 0.0

    def test_as_row_keys(self):
        stats = dataset_statistics(generate_profile_corpus("rcv1", num_vectors=10, seed=1))
        row = stats.as_row()
        assert {"dataset", "n", "m", "nnz", "density_pct", "avg_nnz", "timestamps"} <= set(row)
