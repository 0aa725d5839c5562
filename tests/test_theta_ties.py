"""Ties at θ: the NumPy scan's decayed decisions fall the reference's way.

The NumPy scan decays its per-posting admission bounds and ``l2bound``
tails with ``np.exp``, which can differ from the reference's ``math.exp``
in the last ulp.  A decision that sits exactly on θ must still be taken
as the reference takes it — on the scalar replay (small gathers) and on
the slot-grouped one (forced here) alike.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import SparseVector
from repro.core.join import create_join
from tests.conftest import REPLAY_PATHS, forced_replay_path

DECAY = 0.01
NOW = 100.0
COUNTERS = ("candidates_generated", "full_similarities",
            "entries_traversed", "entries_pruned", "pairs_output")


def run(vectors, threshold, algorithm, backend, path="scalar"):
    join = create_join(algorithm, threshold, DECAY, backend=backend)
    with forced_replay_path(path):
        pairs = [(pair.key, pair.similarity) for pair in join.run(vectors)]
    return pairs, {name: getattr(join.stats, name) for name in COUNTERS}


def assert_numpy_matches_reference(vectors, threshold, algorithm):
    expected = run(vectors, threshold, algorithm, "python")
    for path in REPLAY_PATHS:
        assert run(vectors, threshold, algorithm, "numpy", path) == expected, (
            algorithm, path)
    return expected


@pytest.mark.parametrize("algorithm", ["STR-L2", "STR-L2AP"])
def test_admission_tie(algorithm):
    # The per-entry admission bound of candidate 2 is 0.8·exp(-λΔt) = θ
    # exactly; the reference admits it and reports (2, 10) at θ.
    theta = 0.8 * math.exp(-DECAY * (NOW - 98.997))
    vectors = [SparseVector(index, timestamp, {1: 1.0})
               for index, timestamp in ((1, 98.497), (2, 98.997),
                                        (3, 99.497))]
    vectors.append(SparseVector(10, NOW, {1: 0.8, 2: 0.6}, normalize=False))
    pairs, _ = assert_numpy_matches_reference(vectors, theta, algorithm)
    assert ((2, 10), theta) in pairs


def _prune_tie():
    """A candidate, query and θ whose l2bound ties θ under ``math.exp``
    but falls below it under ``np.exp``."""
    query = SparseVector(2, NOW, {1: 0.8, 2: 0.6}, normalize=False)
    contrib = query.values[1] * 0.8
    for step in range(20000):
        timestamp = NOW - 1.0 - step * 1e-4
        candidate = SparseVector(1, timestamp, {1: 0.6, 2: 0.8},
                                 normalize=False)
        raw = query.prefix_norm_before(1) * candidate.prefix_norm_before(1)
        theta = contrib + raw * math.exp(-DECAY * (NOW - timestamp))
        vectorised = np.array([raw]) * np.exp(-DECAY * (NOW - np.array(
            [timestamp])))
        if contrib + float(vectorised[0]) < theta:
            return [candidate, query], theta
    return None, None


def test_prune_tie():
    # The candidate's l2bound after its first posting is
    # x₂y₂ + ‖x'‖‖y'‖·exp(-λΔt) = θ exactly: the reference keeps it
    # (pruning needs l2bound < θ), so it counts as a candidate.
    vectors, theta = _prune_tie()
    if vectors is None:
        pytest.skip("np.exp never rounds a tail below θ on this host")
    _, counters = assert_numpy_matches_reference(vectors, theta, "STR-L2")
    assert counters["candidates_generated"] == 1

