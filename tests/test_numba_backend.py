"""The compiled (numba) tier: loop-logic parity, fallback and warm-up.

The compiled backend's four JIT kernels are plain Python functions when
numba is absent (the ``@jit`` decorator degrades to the identity), and
``NumbaKernel(use_kernels=True)`` forces the kernel-function code path
regardless — so the *loop logic* numba compiles is pinned against the
reference backend on every machine, including ones without numba.  What
cannot be verified here (the machine-code speedup itself) is measured by
the ``l2ap_compiled_str`` benchmark gate on the CI numba job.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SparseVector, available_backends, create_join, default_backend
from repro.backends import (
    backend_availability,
    get_backend,
    known_backends,
    probe_backends,
    warmup_backend,
)
from repro.core.results import JoinStatistics

pytestmark = pytest.mark.skipif("numpy" not in available_backends(),
                                reason="NumPy backend unavailable")

if "numpy" in available_backends():
    from repro.backends.numba_backend import NumbaKernel

    class InterpretedNumbaKernel(NumbaKernel):
        """Test-only registration: the kernel-function path, always forced.

        Registering this under its own name lets string-based entry points
        (``create_join``, the sharded engine's coordinator) build fresh
        interpreted instances per index, respecting the one-kernel-per-index
        contract that sharing a single instance would break.
        """

        name = "numba-interpreted"

        def __init__(self, *, use_kernels=None):
            super().__init__(use_kernels=True)

    numba_missing = not NumbaKernel.available()
else:  # pragma: no cover - the module-level skip hides everything below
    numba_missing = True


@pytest.fixture()
def interpreted_backend():
    """Temporarily register the forced-interpreted kernel as a backend."""
    from repro.backends import _BACKENDS, register_backend

    register_backend(InterpretedNumbaKernel)
    try:
        yield InterpretedNumbaKernel.name
    finally:
        _BACKENDS.pop(InterpretedNumbaKernel.name, None)


PARITY_COUNTERS = ("candidates_generated", "full_similarities",
                   "entries_traversed", "entries_pruned", "entries_indexed",
                   "residual_entries", "reindexings", "reindexed_entries",
                   "candidates_sketch_pruned", "pairs_output")


def run_pairs(algorithm, vectors, threshold, decay, backend, approx=None):
    stats = JoinStatistics()
    join = create_join(algorithm, threshold, decay, stats=stats,
                       backend=backend, approx=approx)
    pairs = {pair.key: pair for pair in join.run(vectors)}
    return pairs, stats


def assert_interpreted_parity(algorithm, vectors, threshold, decay,
                              approx=None):
    """Kernel-function path (interpreted) against the reference backend."""
    reference, reference_stats = run_pairs(algorithm, vectors, threshold,
                                           decay, "python", approx)
    interpreted, interpreted_stats = run_pairs(
        algorithm, vectors, threshold, decay,
        InterpretedNumbaKernel(), approx)
    assert set(interpreted) == set(reference)
    for key, pair in reference.items():
        other = interpreted[key]
        assert other.similarity == pair.similarity, key
        assert other.dot == pair.dot, key
        assert other.time_delta == pair.time_delta, key
    for counter in PARITY_COUNTERS:
        assert (getattr(interpreted_stats, counter)
                == getattr(reference_stats, counter)), counter


sparse_streams = st.lists(
    st.dictionaries(st.integers(min_value=0, max_value=25),
                    st.floats(min_value=0.05, max_value=1.0),
                    min_size=1, max_size=6),
    min_size=2, max_size=30,
)


class TestInterpretedParity:
    """The compiled tier's loop logic, bitwise against the reference."""

    @pytest.mark.parametrize("algorithm",
                             ["STR-INV", "STR-L2", "STR-L2AP", "STR-AP"])
    def test_streaming_profiles(self, tweets_corpus, algorithm):
        assert_interpreted_parity(algorithm, tweets_corpus, 0.6, 0.05)

    def test_minibatch_via_registered_backend(self, rcv1_corpus,
                                              interpreted_backend):
        # MB builds a throw-away index per window, so parity must hold
        # through the string-registered backend (fresh kernel per index).
        for algorithm in ("MB-L2AP", "MB-INV"):
            reference, reference_stats = run_pairs(
                algorithm, rcv1_corpus, 0.7, 0.02, "python")
            interpreted, interpreted_stats = run_pairs(
                algorithm, rcv1_corpus, 0.7, 0.02, interpreted_backend)
            assert set(interpreted) == set(reference)
            for key, pair in reference.items():
                assert interpreted[key].similarity == pair.similarity, key
            for counter in PARITY_COUNTERS:
                assert (getattr(interpreted_stats, counter)
                        == getattr(reference_stats, counter)), counter

    @settings(max_examples=20, deadline=None)
    @given(entries=sparse_streams,
           threshold=st.floats(min_value=0.3, max_value=0.99),
           decay=st.floats(min_value=0.05, max_value=2.0))
    def test_expiring_streams(self, entries, threshold, decay):
        # Fast decay → constant expiry: the compiled loop replays every
        # segment, including the ones that only extend started candidates.
        vectors = [SparseVector(index, float(index), coords)
                   for index, coords in enumerate(entries)]
        for algorithm in ("STR-L2AP", "STR-L2", "STR-INV"):
            assert_interpreted_parity(algorithm, vectors, threshold, decay)

    @settings(max_examples=10, deadline=None)
    @given(entries=sparse_streams)
    def test_theta_one(self, entries):
        vectors = [SparseVector(index, float(index // 3), coords)
                   for index, coords in enumerate(entries)]
        for algorithm in ("STR-L2AP", "STR-L2", "STR-INV"):
            assert_interpreted_parity(algorithm, vectors, 1.0, 0.5)

    def test_reindexing_with_expiry(self):
        # Growing maxima force STR-L2AP re-indexing while a short horizon
        # expires postings — the regime mixing lazy and physical removal.
        vectors = [
            SparseVector(index, float(index),
                         {dim: 1.0 + 0.06 * index
                          for dim in range(index % 5, index % 5 + 4)})
            for index in range(150)
        ]
        assert_interpreted_parity("STR-L2AP", vectors, 0.6, 0.08)

    def test_approx_regime_sketch_filter(self, tweets_corpus):
        # The compiled sketch application must drop exactly the postings
        # the NumPy mask/cumsum pipeline drops (same pairs, same
        # candidates_sketch_pruned count).
        assert_interpreted_parity("STR-L2AP", tweets_corpus, 0.6, 0.05,
                                  approx="wminhash:8x2")

    def test_sharded_serial_parity(self, interpreted_backend):
        # Every partition replays its own candidates through the compiled
        # loop; serial execution keeps all three in-process.
        from repro.shard import create_sharded_join

        vectors = [SparseVector(index, float(index),
                                {dim: 0.5 + 0.1 * (index % 4)
                                 for dim in range(index % 6, index % 6 + 4)})
                   for index in range(80)]
        reference, reference_stats = run_pairs("STR-L2AP", vectors, 0.5,
                                               0.05, "python")
        stats = JoinStatistics()
        with create_sharded_join("STR-L2AP", 0.5, 0.05, workers=3,
                                 stats=stats, backend=interpreted_backend,
                                 executor="serial") as join:
            sharded = {pair.key: pair for pair in join.run(vectors)}
        assert set(sharded) == set(reference)
        for key, pair in reference.items():
            assert sharded[key].similarity == pair.similarity, key
        for counter in ("candidates_generated", "full_similarities",
                        "entries_traversed", "entries_pruned", "pairs_output"):
            assert (getattr(stats, counter)
                    == getattr(reference_stats, counter)), counter


class TestFallbackSelection:
    """Graceful degradation when the compiled tier is requested but absent."""

    def test_numba_is_always_known(self):
        assert "numba" in known_backends()

    def test_availability_probe_reports_numba(self):
        rows = {row["name"]: row for row in probe_backends()}
        assert "numba" in rows
        row = rows["numba"]
        assert row["available"] == (not numba_missing)
        assert row["description"]
        if numba_missing:
            assert "numba" in row["reason"]

    def test_backend_availability(self):
        available, reason = backend_availability("numba")
        assert available == (not numba_missing)
        if numba_missing:
            assert reason

    @pytest.mark.skipif(not numba_missing, reason="numba is installed")
    def test_get_backend_falls_back_with_warning(self):
        from repro.backends import _FALLBACK_WARNED

        _FALLBACK_WARNED.discard("numba")  # the warning is once-per-process
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cls = get_backend("numba")
        assert cls.name == "numpy"
        fallback = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert fallback and "falling back to 'numpy'" in str(fallback[0].message)
        # Second resolution stays silent.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            get_backend("numba")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.skipif(numba_missing, reason="numba not installed")
    def test_get_backend_returns_numba_when_available(self):
        assert get_backend("numba") is NumbaKernel

    def test_create_join_accepts_numba_spec_everywhere(self):
        # Library code (sessions, checkpoints, workers) may carry "numba"
        # from a machine that has it; construction must succeed here too.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            join = create_join("STR-L2", 0.7, 0.1, backend="numba")
        assert join.backend_name in ("numba", "numpy")

    def test_auto_never_picks_numba(self):
        override = os.environ.get("SSSJ_BACKEND", "").strip().lower()
        if not override or override == "auto":
            assert default_backend() == "numpy"

    def test_env_override_degrades_in_subprocess(self):
        code = (
            "import warnings; warnings.simplefilter('ignore'); "
            "import repro; print(repro.default_backend())"
        )
        env = dict(os.environ, SSSJ_BACKEND="numba",
                   PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True,
                                cwd=os.path.dirname(os.path.dirname(__file__)))
        assert result.returncode == 0, result.stderr
        expected = "numpy" if numba_missing else "numba"
        assert result.stdout.strip() == expected


class TestWarmupContract:
    """One-time JIT cost is explicit, idempotent and outside stage timings."""

    def test_kernel_warmup_is_idempotent(self):
        kernel = NumbaKernel()
        assert kernel.warmup_seconds is None
        first = kernel.warmup()
        assert isinstance(first, float) and first >= 0.0
        assert kernel.warmup() == first
        assert kernel.warmup_seconds == first

    def test_base_backends_warm_for_free(self):
        assert get_backend("python")().warmup() == 0.0
        assert get_backend("numpy")().warmup() == 0.0
        assert warmup_backend("numpy") == 0.0

    def test_profiling_wrapper_warms_inner_kernel(self):
        from repro.backends.profiling import ProfilingKernel

        wrapped = ProfilingKernel(NumbaKernel())
        assert isinstance(wrapped.warmup_seconds, float)
        assert wrapped.warmup_seconds >= 0.0

    def test_run_algorithm_records_warmup(self, tiny_stream):
        from repro.bench.runner import run_algorithm

        metrics = run_algorithm("STR-L2", tiny_stream, 0.6, 0.05,
                                backend="numpy")
        assert metrics.warmup_seconds == 0.0
        assert metrics.elapsed_seconds > 0.0

    def test_interpreted_kernels_exercise_cleanly(self):
        # The warm-up driver itself must run under plain Python too (it is
        # what the CI numba job compiles; a drift here would surface as a
        # TypingError at warm-up, not in production scans).
        from repro.backends.kernels.scan import exercise_kernels

        exercise_kernels()


class TestCompiledCLI:
    def test_backends_probe_lists_numba(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "numba" in out
        if numba_missing:
            assert "numba is not installed" in out

    @pytest.mark.skipif(not numba_missing, reason="numba is installed")
    def test_explicit_numba_fails_fast(self, capsys):
        from repro.cli import main

        code = main(["run", "--profile", "tweets", "--num-vectors", "10",
                     "--backend", "numba"])
        assert code == 2
        err = capsys.readouterr().err
        assert "pip install numba" in err

    @pytest.mark.skipif(numba_missing, reason="numba not installed")
    def test_explicit_numba_runs(self, capsys):
        from repro.cli import main

        assert main(["run", "--profile", "tweets", "--num-vectors", "40",
                     "--backend", "numba", "--theta", "0.6"]) == 0
        assert "STR-L2" in capsys.readouterr().out
