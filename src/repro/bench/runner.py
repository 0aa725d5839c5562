"""Execution engine of the benchmark harness.

The runner knows how to

* generate (and cache) a corpus for a dataset profile,
* run one algorithm configuration over a corpus, collecting a
  :class:`~repro.bench.metrics.RunMetrics`, optionally aborting when an
  operation budget is exceeded (the machine-independent analogue of the
  paper's 3-hour timeout), and
* sweep whole parameter grids.

Every experiment module in :mod:`repro.bench.experiments` is a thin layer
over these primitives.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

from repro.backends import get_backend
from repro.bench.config import ExperimentScale
from repro.bench.metrics import RunMetrics
from repro.core.join import create_join
from repro.core.results import JoinStatistics
from repro.core.vector import SparseVector
from repro.datasets.generator import generate_profile_corpus
from repro.datasets.profiles import get_profile

__all__ = ["corpus_for", "clear_corpus_cache", "run_algorithm", "sweep"]

# Corpora are expensive to generate relative to small runs, so the harness
# memoises them per (profile, count, seed).
_CORPUS_CACHE: dict[tuple[str, int, int], list[SparseVector]] = {}


def corpus_for(dataset: str, num_vectors: int, *, seed: int = 42) -> list[SparseVector]:
    """Return (and cache) the corpus for a dataset profile."""
    key = (dataset.lower(), num_vectors, seed)
    corpus = _CORPUS_CACHE.get(key)
    if corpus is None:
        corpus = generate_profile_corpus(dataset, num_vectors=num_vectors, seed=seed)
        _CORPUS_CACHE[key] = corpus
    return corpus


def clear_corpus_cache() -> None:
    """Drop every cached corpus (used by tests)."""
    _CORPUS_CACHE.clear()


def run_algorithm(
    algorithm: str,
    vectors: Sequence[SparseVector],
    threshold: float,
    decay: float,
    *,
    dataset: str = "dataset",
    operation_budget: int | None = None,
    time_budget: float | None = None,
    backend: str | None = None,
    workers: int | None = None,
    approx: str | None = None,
    fault_plan=None,
) -> RunMetrics:
    """Run one algorithm configuration over ``vectors`` and measure it.

    The run is aborted (``completed=False``) as soon as the aggregate
    operation count exceeds ``operation_budget`` or the elapsed wall-clock
    time exceeds ``time_budget`` seconds.

    ``backend`` selects the compute backend; when given explicitly it is
    recorded in the metrics' algorithm label (``"STR-L2[numpy]"``) so
    side-by-side backend tables stay readable.  ``workers`` switches the
    run to the sharded parallel engine (:mod:`repro.shard`) with that many
    candidate partitions; the label then carries a ``×N`` worker suffix.  ``approx`` enables the
    approximate prefilter tier (:mod:`repro.approx`); the canonical spec
    is appended to the label (``"STR-L2AP[numpy]~minhash:16x2"``) so
    exact and approximate rows are never confused in a table.
    ``fault_plan`` injects worker faults into the sharded engine
    (:mod:`repro.faults`) — chaos runs must still produce bitwise-exact
    results, which is precisely what the chaos gate checks.

    Per-item latency is recorded into ``metrics.latency``, so
    ``metrics.latency_row()`` yields the same p50/p95/p99 summary the
    ``sssj profile`` table and the service ``stats`` endpoint report.  A
    sharded join is fed ``FEED_CHUNK`` vectors per call (one round trip
    per forked partition per chunk); each vector of a chunk records the
    chunk's time, when its pairs become available.
    """
    stats = JoinStatistics()
    join = create_join(algorithm, threshold, decay, stats=stats,
                       backend=backend, workers=workers, approx=approx,
                       fault_plan=fault_plan)
    if workers is not None:
        label = f"{algorithm}[{join.backend_name}x{workers}]"
    elif backend is None:
        label = algorithm
    else:
        # Resolve "auto" so side-by-side tables name the actual backend.
        label = f"{algorithm}[{get_backend(backend).name}]"
    if approx is not None:
        label = f"{label}~{join.approx}"
    metrics = RunMetrics(
        algorithm=label,
        dataset=dataset,
        threshold=threshold,
        decay=decay,
        num_vectors=len(vectors),
        stats=stats,
    )
    pairs = 0
    latency = metrics.latency
    chunk = getattr(join, "FEED_CHUNK", 1)
    start = time.perf_counter()
    try:
        for begin in range(0, len(vectors), chunk):
            items = vectors[begin:begin + chunk]
            processed = begin + len(items)
            item_start = time.perf_counter()
            pairs += len(join.feed(items))
            item_seconds = time.perf_counter() - item_start
            for _ in items:
                latency.record(item_seconds)
            if operation_budget is not None and stats.operations > operation_budget:
                metrics.completed = False
                metrics.abort_reason = f"operation budget exceeded after {processed} vectors"
                break
            if time_budget is not None and time.perf_counter() - start > time_budget:
                metrics.completed = False
                metrics.abort_reason = f"time budget exceeded after {processed} vectors"
                break
        else:
            pairs += len(join.flush())
    finally:
        closer = getattr(join, "close", None)
        if closer is not None:  # sharded joins own worker processes
            closer()
    metrics.elapsed_seconds = time.perf_counter() - start
    metrics.pairs = pairs
    stats.elapsed_seconds = metrics.elapsed_seconds
    return metrics


def sweep(
    algorithms: Iterable[str],
    datasets: Iterable[str],
    scale: ExperimentScale,
    *,
    thetas: Iterable[float] | None = None,
    decays: Iterable[float] | None = None,
    backend: str | None = None,
) -> list[RunMetrics]:
    """Run every (algorithm, dataset, θ, λ) combination of the given grids."""
    thetas = tuple(thetas) if thetas is not None else scale.thetas
    decays = tuple(decays) if decays is not None else scale.decays
    results: list[RunMetrics] = []
    for dataset in datasets:
        get_profile(dataset)  # fail fast on typos before long runs
        vectors = corpus_for(dataset, scale.vectors_for(dataset), seed=scale.seed)
        for algorithm in algorithms:
            for threshold in thetas:
                for decay in decays:
                    best: RunMetrics | None = None
                    for _ in range(max(1, scale.repetitions)):
                        metrics = run_algorithm(
                            algorithm, vectors, threshold, decay,
                            dataset=dataset,
                            operation_budget=scale.operation_budget,
                            backend=backend,
                        )
                        if best is None or metrics.elapsed_seconds < best.elapsed_seconds:
                            best = metrics
                    results.append(best)
    return results
