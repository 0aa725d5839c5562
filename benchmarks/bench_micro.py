"""Micro-benchmarks of the library's hot paths.

These are not paper figures; they use ``pytest-benchmark``'s statistical
timing to track the cost of the operations the experiments are built from:
sparse dot products, index maintenance and single-vector processing
throughput for each streaming index — now reported side by side for every
registered compute backend (see :mod:`repro.backends`).

The tests below are the acceptance gates, and each writes its record
into the machine-readable ``BENCH_micro.json`` artifact (schema 2: one
``benchmarks`` entry per gate, with per-stage timing blocks) so the perf
trajectory is tracked across PRs; ``repro.bench.regression`` compares the
artifact against ``benchmarks/BENCH_baseline.json`` in CI:

``test_l2ap_streaming_hot_path_10k``
    The prefix-filter (STR) gate: a 10 000-vector hot-path workload on the
    ``hashtags`` profile, whose skewed vocabulary produces long posting
    lists.  The NumPy backend's fused arena scan must deliver at least
    ``GATE_SPEEDUP`` × the throughput of the pure-Python reference while
    producing the identical pair set and operation counters.
``test_inv_streaming_hot_path``
    The inverted (INV) gate: STR-INV indexes everything and accumulates
    exact dot products, so its scan is pure posting traffic — the regime
    the fused arena gather accelerates the most.
``test_l2ap_approx_recall``
    The approximate-tier recall gate: the STR gate workload run exactly
    (ground truth) and with the sketch prefilter
    (``--approx wminhash:24x3``), both on the NumPy backend.  The
    prefilter is one-sided by construction — it can only drop pairs —
    so the gate asserts the approx pair set is a subset of the exact
    one, measures recall = |approx ∩ exact| / |exact| and the wall-clock
    speedup over the exact run, and records both in the
    ``l2ap_approx_recall`` record of ``BENCH_micro.json`` (both are
    regression-tracked against the committed baseline).  Honest numbers
    on the reference box: recall 0.9526, at 1.52–1.66x in single
    full-size runs of the current engine; see ``docs/PERFORMANCE.md``
    for the sweep behind the gate geometry and the floor.
``test_l2ap_streaming_scaling_50k``
    The 50 000-vector scaling gate (NumPy only — the reference backend
    would take many minutes).  The stream outlives the decay horizon
    (τ ≈ 25 541 s at θ=0.6, λ=2·10⁻⁵), so postings expire mid-run and
    ``entries_pruned`` must be non-zero: this is where the lazy-expiry /
    arena-compaction machinery becomes observable in the artifact.
``test_l2ap_sharded_scaling``
    The sharded (multiprocess) gate: the STR workload run through
    :mod:`repro.shard`'s candidate partitions at each worker count in
    ``SSSJ_BENCH_SHARD_WORKERS``, with the single-process NumPy leg and
    every worker-count leg interleaved ``SHARD_ROUNDS`` times on the wall
    clock.  Asserts bitwise pair/counter parity of every leg with the
    single-process run, records each leg's minimum and median wall time
    (with the host's CPU count — the curve is only meaningful relative
    to it) and stages from the median leg's own run, and at full size on
    two or more CPUs requires the median 2-worker ratio to reach
    ``GATE_SHARDED_RATIO``.
``test_service_ingest_gate``
    The service gate: the same workload pushed through a
    :class:`repro.service.JoinSession` (bounded queue + pool quanta +
    micro-batching + memory sink).  Asserts pair/counter parity with the
    direct run, sustained ingest throughput ≥ 0.8× the direct engine at
    full size, and records the p50/p95/p99 enqueue-to-processed ingest
    latency in the ``service_ingest`` record of ``BENCH_micro.json``.
``test_service_multitenant_gate``
    The multi-tenant gate: many sessions across several tenants, run
    through the service's bounded worker pool and, as the base, through
    the direct engine one stream after another.  Asserts per-session
    bitwise pair parity with the direct engine, and at full size pooled
    aggregate throughput ≥ 0.5× direct; records aggregate throughput,
    the worst per-session p99 and the cross-session fairness spread in
    the ``service_multitenant`` record of ``BENCH_micro.json``.
``test_obs_overhead_gate``
    The observability gate: the STR workload run with telemetry fully
    wired (sampled batch spans, per-batch histogram/counter updates,
    periodic collector scrapes) and with obs disabled.  Asserts bitwise
    pair/counter parity between the arms always, ≤ 5% overhead at full
    size, and records the ratio in the ``obs_overhead`` record of
    ``BENCH_micro.json``.
``test_chaos_recovery_gate``
    The chaos gate: the STR workload through the 2-worker multiprocess
    engine under a fault plan that SIGKILLs both workers at different
    sites (one mid-scan from inside the child, one from the coordinator).
    Asserts both deaths are healed by respawn + deterministic replay with
    bitwise pair/counter parity against the fault-free run, that recovery
    latency stays bounded, and records both in the ``chaos_recovery``
    record of ``BENCH_micro.json``.

Environment knobs (used by the CI smoke job):

``SSSJ_BENCH_VECTORS``
    Override the STR gate's stream length (default 10 000).
``SSSJ_BENCH_VECTORS_INV``
    Override the INV gate's stream length (default 3 000).
``SSSJ_BENCH_VECTORS_LARGE``
    Override the scaling gate's stream length (default 50 000).
``SSSJ_BENCH_VECTORS_SERVICE``
    Override the service gate's stream length (default 4 000).
``SSSJ_BENCH_VECTORS_APPROX``
    Override the approx recall gate's stream length (default 10 000).
``SSSJ_BENCH_VECTORS_CHAOS``
    Override the chaos gate's stream length (default 2 000).
``SSSJ_BENCH_VECTORS_OBS``
    Override the observability gate's stream length (default 10 000).
``SSSJ_BENCH_SHARD_WORKERS``
    Worker counts of the sharded gate, comma-separated (default "1,2").
``SSSJ_BENCH_OUTPUT``
    Where to write ``BENCH_micro.json`` (default: repository root).
"""

import os
import time
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.backends import available_backends, get_backend
from repro.backends.profiling import ProfilingKernel
from repro.bench.export import write_bench_micro
from repro.bench.runner import corpus_for
from repro.core.join import create_join
from repro.core.results import JoinStatistics
from repro.core.vector import SparseVector
from repro.datasets.generator import generate_profile_corpus

BACKENDS = available_backends()
GATE_VECTORS = int(os.environ.get("SSSJ_BENCH_VECTORS", "10000"))
GATE_SHARD_WORKERS = tuple(
    int(token) for token in
    os.environ.get("SSSJ_BENCH_SHARD_WORKERS", "1,2").split(",") if token)
#: Interleaved rounds of every leg of the sharded gate.
SHARD_ROUNDS = 3
#: Minimum median single-process over 2-worker wall ratio of the sharded
#: gate at full size, on a host with at least two CPUs.
GATE_SHARDED_RATIO = 1.2
GATE_VECTORS_INV = int(os.environ.get("SSSJ_BENCH_VECTORS_INV", "3000"))
GATE_VECTORS_LARGE = int(os.environ.get("SSSJ_BENCH_VECTORS_LARGE", "50000"))
GATE_VECTORS_SERVICE = int(os.environ.get("SSSJ_BENCH_VECTORS_SERVICE", "4000"))
GATE_VECTORS_APPROX = int(os.environ.get("SSSJ_BENCH_VECTORS_APPROX", "10000"))
GATE_VECTORS_CHAOS = int(os.environ.get("SSSJ_BENCH_VECTORS_CHAOS", "2000"))
GATE_VECTORS_OBS = int(os.environ.get("SSSJ_BENCH_VECTORS_OBS", "10000"))
GATE_MT_SESSIONS = int(os.environ.get("SSSJ_BENCH_MT_SESSIONS", "100"))
GATE_MT_VECTORS = int(os.environ.get("SSSJ_BENCH_MT_VECTORS", "120"))
GATE_MT_POOL = int(os.environ.get("SSSJ_BENCH_MT_POOL", "8"))
GATE_OUTPUT = Path(os.environ.get(
    "SSSJ_BENCH_OUTPUT",
    Path(__file__).resolve().parent.parent / "BENCH_micro.json"))
#: Minimum numpy-over-python speedup on the STR gate workload at full size.
GATE_SPEEDUP = 6.0
#: Minimum numpy-over-python speedup on the INV gate workload at full size.
GATE_SPEEDUP_INV = 10.0
#: Minimum service-over-direct throughput ratio at full service-gate size.
GATE_SERVICE_RATIO = 0.8
#: Minimum pooled-over-direct aggregate throughput ratio on the
#: multi-tenant gate at full size (100 sessions on an 8-worker pool vs
#: the direct engine over the same streams).  Seventeen runs of this
#: definition on a 2-vCPU box read 0.64–0.88 (median 0.78); the ratio
#: drifts with host speed between its two legs, hence the margin.
GATE_MULTITENANT_RATIO = 0.5
#: Minimum obs-disabled over obs-enabled throughput ratio at full size —
#: instrumentation (sampled spans, per-batch metric updates, periodic
#: collector scrapes) may cost at most 5%.
GATE_OBS_RATIO = 0.95
#: Sketch geometry of the approx recall gate — the measured sweet spot on
#: the hashtags workload (see docs/PERFORMANCE.md for the full sweep).
GATE_APPROX_SPEC = "wminhash:24x3"
#: Minimum recall of the approx gate at full size.  The sketch is seeded
#: deterministically, so recall on the pinned workload is exact, not
#: statistical: 0.9526 on the gate corpus.
GATE_APPROX_RECALL = 0.95
#: Minimum approx-over-exact speedup at full size.  Single full-size runs
#: of the current engine read 1.52–1.66x on the reference box (an
#: interleaved min-of-3 read 1.25x when the floor was set); 1.1 absorbs
#: timing noise.  The sweep behind this floor is in docs/PERFORMANCE.md.
GATE_APPROX_SPEEDUP = 1.1
#: The scaling gate must outlive the decay horizon so expiry is exercised.
_HORIZON_VECTORS = 25_542  # ln(1/0.6) / 2e-5 seconds at one vector per second


@pytest.fixture(scope="module")
def rcv1_vectors():
    return corpus_for("rcv1", 300, seed=7)


@pytest.fixture(scope="module")
def tweets_vectors():
    return generate_profile_corpus("tweets", num_vectors=600, seed=7)


@pytest.fixture(scope="module")
def hashtags_vectors():
    return generate_profile_corpus("hashtags", num_vectors=GATE_VECTORS, seed=7)


def test_sparse_dot_product(benchmark, rcv1_vectors):
    a, b = rcv1_vectors[0], rcv1_vectors[1]
    benchmark(a.dot, b)


def test_vector_construction(benchmark, rcv1_vectors):
    entries = rcv1_vectors[0].to_dict()
    benchmark(lambda: SparseVector(0, 0.0, entries))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ["STR-INV", "STR-L2AP", "STR-L2"])
def test_streaming_throughput_rcv1(benchmark, rcv1_vectors, algorithm, backend):
    def run():
        join = create_join(algorithm, 0.7, 0.01, backend=backend)
        for vector in rcv1_vectors:
            join.process(vector)
        return join.stats.pairs_output

    benchmark.pedantic(run, rounds=1, iterations=1)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ["STR-L2", "MB-L2"])
def test_framework_throughput_tweets(benchmark, tweets_vectors, algorithm, backend):
    def run():
        join = create_join(algorithm, 0.6, 0.01, backend=backend)
        count = sum(len(join.process(vector)) for vector in tweets_vectors)
        count += len(join.flush())
        return count

    benchmark.pedantic(run, rounds=1, iterations=1)


# -- acceptance gates ---------------------------------------------------------


class _Leg(NamedTuple):
    """One timed leg of a gate: wall time, counters, pairs, stages."""

    elapsed: float
    stats: JoinStatistics
    #: ``(key, similarity)`` of every emitted pair, in report order.
    pairs: list
    #: The leg's own stage timers plus ``unattributed``.
    stages: dict


def _pair_list(pairs):
    return [(pair.key, pair.similarity) for pair in pairs]


def _stage_block(stage_seconds, elapsed):
    """A record's ``stages``: the timed run's own stage timers plus the
    ``unattributed`` remainder, so the block sums to ``elapsed_s``."""
    stages = {stage: round(seconds, 4)
              for stage, seconds in stage_seconds.items()}
    stages["unattributed"] = round(elapsed - sum(stages.values()), 4)
    return stages


def _timed_run(algorithm, vectors, threshold, decay, backend, approx=None):
    """One leg under :class:`ProfilingKernel`, so the record's stages come
    from the same run as its ``elapsed_s``."""
    stats = JoinStatistics()
    kernel = ProfilingKernel(get_backend(backend)())
    join = create_join(algorithm, threshold, decay, stats=stats,
                       backend=kernel, approx=approx)
    pairs = []
    start = time.perf_counter()
    for vector in vectors:
        pairs.extend(join.process(vector))
    pairs.extend(join.flush())
    elapsed = time.perf_counter() - start
    return _Leg(elapsed, stats, _pair_list(pairs),
                _stage_block(kernel.stage_seconds, elapsed))


def _backend_record(elapsed, stats, count, stages=None):
    record = {
        "elapsed_s": elapsed,
        "throughput_vps": count / elapsed if elapsed else 0.0,
        "pairs_output": stats.pairs_output,
        "candidates_generated": stats.candidates_generated,
        "full_similarities": stats.full_similarities,
        "entries_traversed": stats.entries_traversed,
        "entries_pruned": stats.entries_pruned,
    }
    if stages is not None:
        record["stages"] = stages
    return record


def _leg_record(leg, count):
    return _backend_record(leg.elapsed, leg.stats, count, stages=leg.stages)


def _assert_parity(stats, expected_stats, pairs=None, expected_pairs=None):
    """Bitwise parity of two legs: the operation counters and, where both
    legs kept them, the ``(key, similarity)`` pair lists in report order."""
    assert stats.pairs_output == expected_stats.pairs_output
    assert stats.candidates_generated == expected_stats.candidates_generated
    assert stats.full_similarities == expected_stats.full_similarities
    assert stats.entries_traversed == expected_stats.entries_traversed
    assert stats.entries_pruned == expected_stats.entries_pruned
    if pairs is not None and expected_pairs is not None:
        assert pairs == expected_pairs


def _assert_legs_match(leg, expected):
    _assert_parity(leg.stats, expected.stats, leg.pairs, expected.pairs)


@pytest.mark.skipif("numpy" not in BACKENDS, reason="NumPy backend unavailable")
def test_l2ap_streaming_hot_path_10k(benchmark, hashtags_vectors):
    """STR gate: fused-arena STR-L2AP throughput vs the reference backend.

    Emits the ``l2ap_streaming_hot_path`` record of ``BENCH_micro.json``
    (throughput, operation counters, per-stage breakdown, git sha).
    """
    threshold, decay = 0.6, 2e-5  # horizon ≫ stream length: nothing expires

    def run_both():
        return (_timed_run("STR-L2AP", hashtags_vectors, threshold, decay,
                           "numpy"),
                _timed_run("STR-L2AP", hashtags_vectors, threshold, decay,
                           "python"))

    numpy_leg, python_leg = benchmark.pedantic(run_both, rounds=1,
                                               iterations=1)
    speedup = python_leg.elapsed / numpy_leg.elapsed
    count = len(hashtags_vectors)
    print(f"\nSTR-L2AP hot path (hashtags, {count} vectors): "
          f"python {python_leg.elapsed:.1f}s, numpy {numpy_leg.elapsed:.1f}s, "
          f"speedup {speedup:.2f}x")

    artifact = write_bench_micro(
        GATE_OUTPUT,
        benchmark="l2ap_streaming_hot_path",
        config={"profile": "hashtags", "num_vectors": count, "seed": 7,
                "algorithm": "STR-L2AP", "threshold": threshold,
                "decay": decay},
        backends={"python": _leg_record(python_leg, count),
                  "numpy": _leg_record(numpy_leg, count)},
        derived={"speedup": speedup},
    )
    print(f"benchmark artifact written to {artifact}")

    # Pair-for-pair and operation-counter identity across the data paths.
    _assert_legs_match(numpy_leg, python_leg)
    if count >= 10_000:  # reduced CI sizes track the artifact, not the gate
        assert speedup >= GATE_SPEEDUP


@pytest.mark.skipif("numpy" not in BACKENDS, reason="NumPy backend unavailable")
def test_inv_streaming_hot_path(benchmark):
    """INV gate: fused-arena STR-INV throughput vs the reference backend.

    Emits the ``inv_streaming_hot_path`` record of ``BENCH_micro.json``.
    """
    threshold, decay = 0.6, 2e-5
    vectors = generate_profile_corpus("hashtags",
                                      num_vectors=GATE_VECTORS_INV, seed=7)

    def run_both():
        return (_timed_run("STR-INV", vectors, threshold, decay, "numpy"),
                _timed_run("STR-INV", vectors, threshold, decay, "python"))

    numpy_leg, python_leg = benchmark.pedantic(run_both, rounds=1,
                                               iterations=1)
    speedup = python_leg.elapsed / numpy_leg.elapsed
    count = len(vectors)
    print(f"\nSTR-INV hot path (hashtags, {count} vectors): "
          f"python {python_leg.elapsed:.1f}s, numpy {numpy_leg.elapsed:.1f}s, "
          f"speedup {speedup:.2f}x")

    artifact = write_bench_micro(
        GATE_OUTPUT,
        benchmark="inv_streaming_hot_path",
        config={"profile": "hashtags", "num_vectors": count, "seed": 7,
                "algorithm": "STR-INV", "threshold": threshold,
                "decay": decay},
        backends={"python": _leg_record(python_leg, count),
                  "numpy": _leg_record(numpy_leg, count)},
        derived={"speedup": speedup},
    )
    print(f"benchmark artifact written to {artifact}")

    _assert_legs_match(numpy_leg, python_leg)
    if count >= 3_000:  # reduced CI sizes track the artifact, not the gate
        assert speedup >= GATE_SPEEDUP_INV


def _timed_sharded(algorithm, vectors, threshold, decay, workers):
    """One multiprocess sharded leg through ``join.run`` — the path of
    library callers, which sends ``FEED_CHUNK`` vectors per round trip to
    each forked partition, as ``sssj run`` and service sessions do.
    Partition 0 runs in this process under :class:`ProfilingKernel`, so
    its stages come from the timed run; waiting for the other partitions
    falls into ``unattributed``."""
    from repro.shard import create_sharded_join

    stats = JoinStatistics()
    kernel = ProfilingKernel(get_backend("numpy")())
    with create_sharded_join(algorithm, threshold, decay, workers=workers,
                             stats=stats, backend=kernel,
                             executor="process") as join:
        start = time.perf_counter()
        pairs = join.run_to_list(vectors)
        elapsed = time.perf_counter() - start
    return _Leg(elapsed, stats, _pair_list(pairs),
                _stage_block(kernel.stage_seconds, elapsed))


def _median_leg(legs):
    """The leg of median wall time (the lower middle one of an even count)."""
    return sorted(legs, key=lambda leg: leg.elapsed)[(len(legs) - 1) // 2]


@pytest.mark.skipif("numpy" not in BACKENDS, reason="NumPy backend unavailable")
def test_l2ap_sharded_scaling(benchmark, hashtags_vectors):
    """Sharded STR gate: STR-L2AP over multiprocess candidate partitions.

    Runs the STR gate workload single-process and through the sharded
    engine at each worker count, the legs interleaved ``SHARD_ROUNDS``
    times; asserts bitwise pair and operation-counter parity of every
    sharded leg with the single-process run, and records per leg the
    minimum and median wall time and the stages of its median run in the
    ``l2ap_sharded_str`` record of ``BENCH_micro.json``.  The wall clock
    is the right clock here: the CPU clock cannot see parallelism.  At
    full size on two or more CPUs the median 2-worker ratio (single over
    sharded, per round) must reach ``GATE_SHARDED_RATIO``.
    """
    threshold, decay = 0.6, 2e-5

    def run_all():
        legs = {"numpy": []}
        legs.update({workers: [] for workers in GATE_SHARD_WORKERS})
        for _ in range(SHARD_ROUNDS):
            legs["numpy"].append(_timed_run("STR-L2AP", hashtags_vectors,
                                            threshold, decay, "numpy"))
            for workers in GATE_SHARD_WORKERS:
                leg = _timed_sharded("STR-L2AP", hashtags_vectors,
                                     threshold, decay, workers)
                _assert_legs_match(leg, legs["numpy"][0])
                legs[workers].append(leg)
        return legs

    legs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    count = len(hashtags_vectors)
    cpus = os.cpu_count()
    singles = [leg.elapsed for leg in legs["numpy"]]
    ratios = {workers: sorted(single / leg.elapsed for single, leg
                              in zip(singles, legs[workers]))
              for workers in GATE_SHARD_WORKERS}
    curve = {str(workers): round(ratios[workers][(SHARD_ROUNDS - 1) // 2], 3)
             for workers in GATE_SHARD_WORKERS}
    print(f"\nSTR-L2AP sharded (hashtags, {count} vectors, {cpus} cpus, "
          f"{SHARD_ROUNDS} interleaved rounds): single numpy median "
          f"{_median_leg(legs['numpy']).elapsed:.1f}s; " +
          ", ".join(f"{workers}w median "
                    f"{_median_leg(legs[workers]).elapsed:.1f}s "
                    f"({curve[str(workers)]}x median, "
                    f"{ratios[workers][0]:.3f}-{ratios[workers][-1]:.3f}x)"
                    for workers in GATE_SHARD_WORKERS))

    backends = {}
    for name, runs in legs.items():
        record = _leg_record(_median_leg(runs), count)
        record["min_elapsed_s"] = min(leg.elapsed for leg in runs)
        backends[name if name == "numpy" else f"sharded_w{name}"] = record
    artifact = write_bench_micro(
        GATE_OUTPUT,
        benchmark="l2ap_sharded_str",
        config={"profile": "hashtags", "num_vectors": count, "seed": 7,
                "algorithm": "STR-L2AP", "threshold": threshold,
                "decay": decay, "workers": list(GATE_SHARD_WORKERS),
                "rounds": SHARD_ROUNDS, "cpu_count": cpus},
        backends=backends,
        derived={"speedup": max(float(value) for value in curve.values()),
                 "scaling_curve": curve,
                 "min_ratio": {str(workers): round(values[0], 3)
                               for workers, values in ratios.items()}},
    )
    print(f"benchmark artifact written to {artifact}")
    if count >= 10_000 and cpus >= 2 and 2 in GATE_SHARD_WORKERS:
        assert curve["2"] >= GATE_SHARDED_RATIO


@pytest.mark.skipif("numpy" not in BACKENDS, reason="NumPy backend unavailable")
def test_service_ingest_gate(benchmark):
    """Service gate: the STR workload through a JoinSession vs direct.

    The session path adds a bounded queue, pool scheduling, micro-batch
    assembly and sink emission on top of the same join; the gate pins
    that overhead to ≤ 20% of throughput (ratio ≥ 0.8) and records the
    enqueue-to-processed ingest latency percentiles — the same numbers
    the ``stats`` endpoint serves — in ``BENCH_micro.json``.
    """
    from repro.service import JoinSession, SessionConfig

    threshold, decay = 0.6, 2e-5
    vectors = generate_profile_corpus("hashtags",
                                      num_vectors=GATE_VECTORS_SERVICE, seed=7)

    def run_both():
        direct = _timed_run("STR-L2AP", vectors, threshold, decay, "numpy")
        config = SessionConfig(
            name="bench", threshold=threshold, decay=decay,
            algorithm="STR-L2AP", backend="numpy",
            queue_max=256, batch_max_items=256)
        session = JoinSession(config)
        start = time.perf_counter()
        session.ingest(vectors)
        session.drain(timeout=None)
        service_elapsed = time.perf_counter() - start
        return direct, service_elapsed, session

    direct, service_elapsed, session = benchmark.pedantic(
        run_both, rounds=1, iterations=1)
    direct_elapsed = direct.elapsed
    count = len(vectors)
    ratio = direct_elapsed / service_elapsed if service_elapsed else 0.0
    latency = session.latency.summary()
    print(f"\nservice ingest (hashtags, {count} vectors): direct "
          f"{direct_elapsed:.1f}s, service {service_elapsed:.1f}s "
          f"(ratio {ratio:.2f}x), ingest p50/p95/p99 "
          f"{latency['p50_ms']:.2f}/{latency['p95_ms']:.2f}/"
          f"{latency['p99_ms']:.2f} ms")

    service_record = _backend_record(service_elapsed, session.join.stats, count)
    service_record["latency"] = latency
    artifact = write_bench_micro(
        GATE_OUTPUT,
        benchmark="service_ingest",
        config={"profile": "hashtags", "num_vectors": count, "seed": 7,
                "algorithm": "STR-L2AP", "threshold": threshold,
                "decay": decay, "queue_max": 256, "batch_max_items": 256},
        backends={
            "numpy_direct": _leg_record(direct, count),
            "numpy_service": service_record,
        },
        derived={"throughput_ratio": ratio,
                 "ingest_p99_ms": latency["p99_ms"]},
    )
    print(f"benchmark artifact written to {artifact}")

    # The session must do the same work, bit for bit.
    _assert_parity(session.join.stats, direct.stats,
                   _pair_list(session.results.read(0, None)[0]), direct.pairs)
    session.close()
    if count >= 4_000:  # reduced CI sizes track the artifact, not the gate
        assert ratio >= GATE_SERVICE_RATIO


@pytest.mark.skipif("numpy" not in BACKENDS, reason="NumPy backend unavailable")
def test_service_multitenant_gate(benchmark):
    """Multi-tenant gate: N sessions over a worker pool vs the direct engine.

    The same per-session streams (contiguous slices of one hashtags
    corpus, spread over four tenants) are joined twice: by the direct
    engine, one stream after another, and through a
    :class:`~repro.service.JoinService` running all of them over a small
    bounded pool with DRR fairness.  The pooled path calls
    ``session.ingest`` directly (no wire codec), so the ratio isolates
    queueing and scheduling.  Asserts bitwise per-session pair parity
    (and counter parity on sampled sessions) with the direct engine, and
    at full size pooled aggregate throughput ≥ 0.5× direct; emits the
    ``service_multitenant`` record with aggregate throughput, the worst
    per-session p99 and the cross-session fairness spread.
    """
    import statistics

    from repro.service import JoinService

    threshold, decay = 0.6, 2e-5
    sessions, per_session = GATE_MT_SESSIONS, GATE_MT_VECTORS
    corpus = generate_profile_corpus(
        "hashtags", num_vectors=sessions * per_session, seed=11)
    streams = [corpus[index * per_session:(index + 1) * per_session]
               for index in range(sessions)]
    count = sessions * per_session

    def run_direct():
        start = time.perf_counter()
        references = []
        for stream in streams:
            stats = JoinStatistics()
            join = create_join("STR-L2AP", threshold, decay, stats=stats,
                               backend="numpy")
            pairs = []
            for vector in stream:
                pairs.extend(join.process(vector))
            pairs.extend(join.flush())
            references.append((pairs, stats))
        return time.perf_counter() - start, references

    def run_pooled(references):
        service = JoinService(pool_workers=GATE_MT_POOL)
        live = []
        for index in range(sessions):
            response = service.handle({
                "op": "open", "session": f"mt{index}", "theta": threshold,
                "decay": decay, "tenant": f"tenant{index % 4}",
                "checkpoint": False, "algorithm": "STR-L2AP",
                "backend": "numpy", "queue_max": per_session,
                "batch_max_items": 64, "normalize": False})
            assert response.get("ok"), response
            live.append(service.sessions[f"mt{index}"])
        start = time.perf_counter()
        for session, stream in zip(live, streams):
            session.ingest(stream)
        for session in live:
            session.drain(timeout=None)
        elapsed = time.perf_counter() - start
        p99s = [session.latency.summary()["p99_ms"] for session in live]
        # Bitwise parity: every pooled session must emit exactly the
        # direct engine's pairs for its stream.
        for session, (reference, _) in zip(live, references):
            assert session.results.read(0, None)[0] == reference
        for index in (0, sessions // 2, sessions - 1):
            _assert_parity(live[index].join.stats, references[index][1])
        service.shutdown()
        return elapsed, p99s

    def run_both():
        direct_elapsed, references = run_direct()
        pooled_elapsed, p99s = run_pooled(references)
        return direct_elapsed, pooled_elapsed, p99s

    direct_elapsed, pooled_elapsed, p99s = benchmark.pedantic(
        run_both, rounds=1, iterations=1)
    ratio = direct_elapsed / pooled_elapsed if pooled_elapsed else 0.0
    worst_p99 = max(p99s)
    median_p99 = statistics.median(p99s)
    fairness_spread = worst_p99 / median_p99 if median_p99 else 0.0
    throughput = count / pooled_elapsed if pooled_elapsed else 0.0
    print(f"\nmulti-tenant ({sessions} sessions × {per_session} vectors, "
          f"pool {GATE_MT_POOL}): direct {direct_elapsed:.1f}s, pooled "
          f"{pooled_elapsed:.1f}s (ratio {ratio:.2f}x), aggregate "
          f"{throughput:.0f} vec/s, worst p99 {worst_p99:.2f} ms, fairness "
          f"spread {fairness_spread:.2f}x")

    artifact = write_bench_micro(
        GATE_OUTPUT,
        benchmark="service_multitenant",
        config={"profile": "hashtags", "sessions": sessions,
                "vectors_per_session": per_session,
                "pool_workers": GATE_MT_POOL, "seed": 11,
                "algorithm": "STR-L2AP", "threshold": threshold,
                "decay": decay, "batch_max_items": 64},
        backends={
            "numpy_direct": {
                "elapsed_s": direct_elapsed,
                "throughput_vps": (count / direct_elapsed
                                   if direct_elapsed else 0.0),
            },
            "numpy_pooled": {
                "elapsed_s": pooled_elapsed,
                "throughput_vps": throughput,
                "worst_p99_ms": worst_p99,
                "fairness_spread": fairness_spread,
            },
        },
        derived={"throughput_ratio": ratio,
                 "worst_p99_ms": worst_p99,
                 "fairness_spread": fairness_spread},
    )
    print(f"benchmark artifact written to {artifact}")
    if sessions >= 100:  # reduced CI sizes track the artifact, not the gate
        assert ratio >= GATE_MULTITENANT_RATIO


@pytest.mark.skipif("numpy" not in BACKENDS, reason="NumPy backend unavailable")
def test_l2ap_approx_recall(benchmark):
    """Approx recall gate: sketch-prefiltered run vs exact ground truth.

    Runs the STR gate workload twice on the NumPy backend — exact, then
    with the ``wminhash:24x3`` prefilter — in the same process so the
    speedup ratio divides out the machine.  Asserts the one-sided filter
    property (approx pairs ⊆ exact pairs) at every size, and at full
    size the recall and speedup floors; emits the ``l2ap_approx_recall``
    record of ``BENCH_micro.json`` with both tracked metrics.
    """
    threshold, decay = 0.6, 2e-5
    vectors = generate_profile_corpus("hashtags",
                                      num_vectors=GATE_VECTORS_APPROX, seed=7)

    def run_both():
        return tuple(_timed_run("STR-L2AP", vectors, threshold, decay,
                                "numpy", approx)
                     for approx in (None, GATE_APPROX_SPEC))

    exact, approx = benchmark.pedantic(run_both, rounds=1, iterations=1)
    speedup = exact.elapsed / approx.elapsed
    count = len(vectors)
    exact_pairs = {key for key, _ in exact.pairs}
    approx_pairs = {key for key, _ in approx.pairs}
    false_positives = approx_pairs - exact_pairs
    recall = (len(approx_pairs & exact_pairs) / len(exact_pairs)
              if exact_pairs else 1.0)
    print(f"\nSTR-L2AP approx recall (hashtags, {count} vectors, "
          f"{GATE_APPROX_SPEC}): exact {exact.elapsed:.1f}s "
          f"({len(exact_pairs)} pairs), approx {approx.elapsed:.1f}s "
          f"({len(approx_pairs)} pairs), speedup {speedup:.2f}x, "
          f"recall {recall:.4f}, "
          f"pruned {approx.stats.candidates_sketch_pruned} "
          f"posting occurrences")

    approx_record = _leg_record(approx, count)
    approx_record["candidates_sketch_pruned"] = (
        approx.stats.candidates_sketch_pruned)
    approx_record["pairs_emitted"] = len(approx_pairs)
    exact_record = _leg_record(exact, count)
    exact_record["pairs_emitted"] = len(exact_pairs)
    artifact = write_bench_micro(
        GATE_OUTPUT,
        benchmark="l2ap_approx_recall",
        config={"profile": "hashtags", "num_vectors": count, "seed": 7,
                "algorithm": "STR-L2AP", "threshold": threshold,
                "decay": decay, "approx": GATE_APPROX_SPEC},
        backends={
            "numpy_exact": exact_record,
            "numpy_approx": approx_record,
        },
        derived={"recall": recall,
                 "speedup": speedup,
                 "false_positives": len(false_positives)},
    )
    print(f"benchmark artifact written to {artifact}")

    # The sketch tier is a one-sided filter: it may only drop pairs.
    assert not false_positives, (
        f"approx run emitted {len(false_positives)} pairs the exact run "
        f"did not: {sorted(false_positives)[:5]}")
    if count >= 10_000:  # reduced CI sizes track the artifact, not the gate
        assert recall >= GATE_APPROX_RECALL
        assert speedup >= GATE_APPROX_SPEEDUP


@pytest.mark.skipif("numpy" not in BACKENDS, reason="NumPy backend unavailable")
def test_l2ap_streaming_scaling_50k(benchmark):
    """Scaling gate: 50k-vector STR-L2AP run on the NumPy backend only.

    The stream outlives the decay horizon, so posting expiry — and with
    it the lazy masking and amortised arena compaction — is exercised and
    ``entries_pruned`` becomes observable in the artifact.  The reference
    backend is not run (it would take the better part of ten minutes);
    the machine-comparable regression metric for this gate is pruning
    effectiveness, not a speedup.
    """
    threshold, decay = 0.6, 2e-5
    vectors = generate_profile_corpus("hashtags",
                                      num_vectors=GATE_VECTORS_LARGE, seed=7)

    def run():
        return _timed_run("STR-L2AP", vectors, threshold, decay, "numpy")

    leg = benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed, stats = leg.elapsed, leg.stats
    count = len(vectors)
    pruned_share = (stats.entries_pruned / stats.entries_traversed
                    if stats.entries_traversed else 0.0)
    print(f"\nSTR-L2AP scaling (hashtags, {count} vectors): "
          f"numpy {elapsed:.1f}s ({count / elapsed:,.0f} vps), "
          f"pruned {stats.entries_pruned} of {stats.entries_traversed} "
          f"traversed ({pruned_share:.2%})")

    artifact = write_bench_micro(
        GATE_OUTPUT,
        benchmark="l2ap_streaming_scaling_50k",
        config={"profile": "hashtags", "num_vectors": count, "seed": 7,
                "algorithm": "STR-L2AP", "threshold": threshold,
                "decay": decay},
        backends={"numpy": _leg_record(leg, count)},
        derived={"pruned_share": pruned_share,
                 "throughput_vps": count / elapsed if elapsed else 0.0},
    )
    print(f"benchmark artifact written to {artifact}")

    if count >= _HORIZON_VECTORS:
        # The stream outlived the horizon: expiry must be visible.
        assert stats.entries_pruned > 0


def _chaos_run(vectors, threshold, decay, fault_plan, workers):
    """One sharded run under a fault plan, collecting the emitted pairs."""
    from repro.shard import create_sharded_join

    stats = JoinStatistics()
    pairs = []
    with create_sharded_join("STR-L2AP", threshold, decay, workers=workers,
                             stats=stats, backend="numpy",
                             executor="process",
                             fault_plan=fault_plan) as join:
        start = time.perf_counter()
        for vector in vectors:
            pairs.extend(join.process(vector))
        pairs.extend(join.flush())
        elapsed = time.perf_counter() - start
        events = list(join.recovery_events)
        degraded = join.degraded
    return elapsed, stats, _pair_list(pairs), events, degraded


@pytest.mark.skipif("numpy" not in BACKENDS, reason="NumPy backend unavailable")
def test_chaos_recovery_gate(benchmark):
    """Chaos gate: kill real shard workers mid-run, demand bitwise parity.

    The STR workload runs through the 2-worker multiprocess engine under
    a fault plan that SIGKILLs one worker mid-scan (all step work done,
    reply lost) and the other from the coordinator side later on.  Both
    deaths must be healed by respawn + deterministic replay, the final
    pairs and operation counters must equal the fault-free single-process
    run bit for bit, and each recovery must complete within the bounded
    deadline.  Recovery latency and respawn counts land in the
    ``chaos_recovery`` record of ``BENCH_micro.json``.
    """
    threshold, decay = 0.6, 2e-5
    vectors = generate_profile_corpus("hashtags",
                                      num_vectors=GATE_VECTORS_CHAOS, seed=7)
    count = len(vectors)
    fault_plan = (f"exit-in-scan:shard=0,after={max(1, count // 4)};"
                  f"kill-worker:shard=1,after={max(2, count // 2)}")

    def run_both():
        exact = _timed_run("STR-L2AP", vectors, threshold, decay, "numpy")
        chaos = _chaos_run(vectors, threshold, decay, fault_plan, workers=2)
        return exact, chaos

    (exact, (chaos_elapsed, chaos_stats, chaos_pairs, events,
             degraded)) = benchmark.pedantic(run_both, rounds=1, iterations=1)

    recovery_latency = max((event["latency_s"] for event in events),
                           default=0.0)
    print(f"\nchaos recovery (hashtags, {count} vectors, 2 workers, "
          f"plan {fault_plan!r}): exact {exact.elapsed:.1f}s, chaos "
          f"{chaos_elapsed:.1f}s, {len(events)} recoveries, worst "
          f"recovery {recovery_latency * 1000:.0f} ms, degraded={degraded}")

    chaos_record = _backend_record(chaos_elapsed, chaos_stats, count)
    chaos_record["recoveries"] = [
        {key: event[key] for key in ("kind", "shard", "attempt",
                                     "replayed_steps", "latency_s")
         if key in event}
        for event in events]
    artifact = write_bench_micro(
        GATE_OUTPUT,
        benchmark="chaos_recovery",
        config={"profile": "hashtags", "num_vectors": count, "seed": 7,
                "algorithm": "STR-L2AP", "threshold": threshold,
                "decay": decay, "workers": 2, "fault_plan": fault_plan},
        backends={
            "numpy_exact": _leg_record(exact, count),
            "numpy_chaos": chaos_record,
        },
        derived={"recovery_latency_s": recovery_latency,
                 "respawns": len(events),
                 "degraded": degraded,
                 "bitwise_parity": chaos_pairs == exact.pairs},
    )
    print(f"benchmark artifact written to {artifact}")

    # Both injected deaths healed by respawn, not degradation.
    assert not degraded
    assert [event["kind"] for event in events] == ["respawn", "respawn"]
    # Chaos changes nothing observable: same pairs, same counters.
    _assert_parity(chaos_stats, exact.stats, chaos_pairs, exact.pairs)
    # Recovery is bounded: replay of up to the full history must come in
    # far under the 10s per-call deadline ceiling.
    assert recovery_latency < 10.0


@pytest.mark.skipif("numpy" not in BACKENDS, reason="NumPy backend unavailable")
def test_obs_overhead_gate(benchmark):
    """Observability overhead gate: STR-L2AP with telemetry on vs off.

    The "on" arm mirrors exactly what an instrumented session adds
    around the engine hot path: the index-stats collector registered at
    join construction, a batch span per 256-vector micro-batch (sampled
    at 1%, the serve-time default), one latency-histogram observation
    and counter increment per batch, and a full collector scrape every
    16 batches (a Prometheus scrape interval at gate throughput).  The
    "off" arm runs the identical loop with obs disabled, which is what
    every instrumentation site reduces to when ``SSSJ_OBS=0``.  Both
    arms run twice, interleaved, and the gate compares the per-arm
    minima so cache warm-up and machine noise hit both sides evenly.

    Asserts telemetry costs <= 5% at full size and — unconditionally —
    that pair/counter output is bitwise identical across the arms, so
    instrumentation can never change results.
    """
    from repro import obs
    from repro.obs import MetricsRegistry, Tracer

    threshold, decay = 0.6, 2e-5
    batch_size = 256
    scrape_every = 16
    trace_sample = 0.01
    vectors = generate_profile_corpus("hashtags",
                                      num_vectors=GATE_VECTORS_OBS, seed=7)

    def timed(instrumented):
        spans = []
        previous_registry = obs.set_registry(MetricsRegistry())
        previous_tracer = obs.set_tracer(
            Tracer(sample=trace_sample, seed=7, sink=spans.append))
        was_enabled = obs.enabled()
        obs.set_enabled(instrumented)
        try:
            stats = JoinStatistics()
            join = create_join("STR-L2AP", threshold, decay, stats=stats,
                               backend="numpy")
            registry = obs.get_registry()
            if instrumented:
                histogram = registry.histogram(
                    "sssj_batch_seconds", "Batch wall-clock seconds.",
                    ("session",)).labels(session="bench")
                processed = registry.counter(
                    "sssj_engine_vectors_processed_total",
                    "Vectors processed.", ("session",)).labels(
                        session="bench")
            start = time.perf_counter()
            for offset in range(0, len(vectors), batch_size):
                chunk = vectors[offset:offset + batch_size]
                with obs.span("batch", session="bench", size=len(chunk)):
                    batch_start = time.perf_counter()
                    for vector in chunk:
                        join.process(vector)
                    if instrumented:
                        histogram.observe(time.perf_counter() - batch_start)
                        processed.inc(len(chunk))
                        if (offset // batch_size) % scrape_every == 0:
                            registry.run_collectors()
            elapsed = time.perf_counter() - start
        finally:
            obs.set_enabled(was_enabled)
            obs.set_registry(previous_registry)
            obs.set_tracer(previous_tracer)
        return elapsed, stats, len(spans)

    def run_both():
        on_first = timed(True)
        off_first = timed(False)
        on_second = timed(True)
        off_second = timed(False)
        return on_first, off_first, on_second, off_second

    on_first, off_first, on_second, off_second = benchmark.pedantic(
        run_both, rounds=1, iterations=1)
    count = len(vectors)
    enabled_elapsed = min(on_first[0], on_second[0])
    disabled_elapsed = min(off_first[0], off_second[0])
    ratio = disabled_elapsed / enabled_elapsed if enabled_elapsed else 0.0
    sampled_spans = on_first[2]
    print(f"\nobs overhead (hashtags, {count} vectors): disabled "
          f"{disabled_elapsed:.2f}s, enabled {enabled_elapsed:.2f}s "
          f"(ratio {ratio:.3f}x), {sampled_spans} sampled span(s)")

    enabled_record = _backend_record(enabled_elapsed, on_first[1], count)
    enabled_record["sampled_spans"] = sampled_spans
    artifact = write_bench_micro(
        GATE_OUTPUT,
        benchmark="obs_overhead",
        config={"profile": "hashtags", "num_vectors": count, "seed": 7,
                "algorithm": "STR-L2AP", "threshold": threshold,
                "decay": decay, "batch_size": batch_size,
                "trace_sample": trace_sample, "scrape_every": scrape_every},
        backends={
            "numpy_obs_off": _backend_record(disabled_elapsed, off_first[1],
                                             count),
            "numpy_obs_on": enabled_record,
        },
        derived={"throughput_ratio": ratio},
    )
    print(f"benchmark artifact written to {artifact}")

    # Instrumentation must never change what the join computes.
    _assert_parity(on_first[1], off_first[1])
    _assert_parity(on_first[1], on_second[1])
    if count >= 10_000:  # reduced CI sizes track the artifact, not the gate
        assert ratio >= GATE_OBS_RATIO
