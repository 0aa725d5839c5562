"""Shared fixtures for the test suite."""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.vector import SparseVector
from repro.datasets.generator import generate_profile_corpus
from tests.groundtruth import rcv1_truth, tweets_truth  # noqa: F401 - fixtures


def make_vector(vector_id: int, timestamp: float, entries: dict[int, float],
                *, normalize: bool = True) -> SparseVector:
    """Small helper used across the suite to keep test bodies short."""
    return SparseVector(vector_id, timestamp, entries, normalize=normalize)


def accelerated_backends() -> list:
    """The non-reference backends as pytest params, skip-marked when absent.

    Parity suites parametrized over this list pin every backend but the
    reference against it; today that is ``numpy``, skipped where NumPy is
    not installed.
    """
    from repro.backends import available_backends

    return [
        pytest.param(name, marks=pytest.mark.skipif(
            name not in available_backends(),
            reason=f"{name} backend unavailable"))
        for name in ("numpy",)
    ]


#: ``_GROUPED_REPLAY_CUTOFF`` values that force the NumPy backend's
#: prefix-scan replay onto one path for every gather.
REPLAY_PATHS = {"grouped": 0, "scalar": 1 << 62}


@contextmanager
def forced_replay_path(path: str):
    """Run the enclosed joins with every NumPy replay on ``path``."""
    from repro.backends import numpy_backend

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numpy_backend, "_GROUPED_REPLAY_CUTOFF",
                      REPLAY_PATHS[path])
        yield


def random_vectors(count: int, *, dimensions: int = 40, nnz: int = 6,
                   seed: int = 0, time_step: float = 1.0,
                   duplicate_probability: float = 0.3) -> list[SparseVector]:
    """Generate a small random stream with some near-duplicates.

    This is intentionally lighter-weight than the dataset generator: tests
    that only need "a plausible stream" use this to stay fast.
    """
    rng = np.random.default_rng(seed)
    vectors: list[SparseVector] = []
    for index in range(count):
        if vectors and rng.random() < duplicate_probability:
            base = vectors[int(rng.integers(len(vectors)))]
            entries = dict(base)
            victim = int(rng.integers(dimensions))
            entries[victim] = entries.get(victim, 0.0) + float(rng.uniform(0.05, 0.3))
        else:
            dims = rng.choice(dimensions, size=min(nnz, dimensions), replace=False)
            entries = {int(d): float(rng.uniform(0.1, 1.0)) for d in dims}
        vectors.append(SparseVector(index, index * time_step, entries))
    return vectors


def wait_until(predicate, *, timeout: float = 10.0) -> None:
    """Poll ``predicate`` until it holds; fail the test after ``timeout``."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached within the deadline")
        time.sleep(0.01)


@pytest.fixture
def tiny_stream() -> list[SparseVector]:
    """Four hand-built vectors with one obvious similar pair."""
    return [
        make_vector(0, 0.0, {1: 1.0, 2: 1.0}),
        make_vector(1, 1.0, {1: 1.0, 2: 1.0}),
        make_vector(2, 2.0, {5: 1.0}),
        make_vector(3, 10.0, {1: 1.0, 2: 1.0}),
    ]


@pytest.fixture
def small_random_stream() -> list[SparseVector]:
    """A deterministic 60-vector stream with near-duplicates."""
    return random_vectors(60, seed=7)


@pytest.fixture(scope="session")
def tweets_corpus() -> list[SparseVector]:
    """A small tweets-profile corpus shared by the integration tests."""
    return generate_profile_corpus("tweets", num_vectors=250, seed=11)


@pytest.fixture(scope="session")
def rcv1_corpus() -> list[SparseVector]:
    """A small rcv1-profile corpus shared by the integration tests."""
    return generate_profile_corpus("rcv1", num_vectors=150, seed=11)
