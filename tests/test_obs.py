"""Tests for the unified observability layer (repro.obs).

Four contracts are pinned here:

* **Registry correctness** — counters never lose concurrent increments
  (per-thread cells summed under the lock), label explosions collapse
  into the ``overflow`` series instead of growing memory, and the
  Prometheus rendering is byte-stable (golden test).
* **Deterministic sampling** — a fixed tracer seed reproduces the exact
  same sampled span subset run over run, and span nesting records
  parent ids correctly.
* **Zero interference** — pair output and operation counters of an
  engine run are bitwise identical with observability (and full-rate
  tracing) on or off; hypothesis drives the corpus.
* **Surface plumbing** — the ``metrics`` protocol op, the evicted-at
  timestamp on placeholder stats, the ``LatencyStats`` tiny-window
  interpolation, and the ``sssj top`` renderer.
"""

from __future__ import annotations

import io
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bench.metrics import LatencyStats
from repro.obs import (
    Counter,
    DeltaTracker,
    MetricsRegistry,
    Tracer,
    render_prometheus,
)
from repro.obs.top import TopView
from repro.service.protocol import encode_vector
from tests.conftest import random_vectors, wait_until
from tests.groundtruth import counters_without_time, engine_pairs

THETA, DECAY = 0.6, 0.05


@pytest.fixture
def registry():
    """A fresh process registry, restored afterwards."""
    fresh = MetricsRegistry()
    previous = obs.set_registry(fresh)
    yield fresh
    obs.set_registry(previous)


# ---------------------------------------------------------------------------
# registry


class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("sssj_t_total", "T.", ("k",))
        counter.labels(k="a").inc()
        counter.labels(k="a").inc(2.5)
        assert counter.labels(k="a").value() == 3.5
        assert registry.get_value("sssj_t_total", k="a") == 3.5
        assert registry.get_value("sssj_t_total", k="missing") == 0.0
        gauge = registry.gauge("sssj_g").labels()
        gauge.set(7)
        gauge.dec(2)
        assert gauge.value() == 5
        histogram = registry.histogram(
            "sssj_h_seconds", buckets=(0.1, 1.0), window=8).labels()
        for value in (0.05, 0.5, 2.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 3
        assert snap["buckets"] == [(0.1, 1), (1.0, 2)]
        assert snap["window_dropped"] == 0

    def test_counter_rejects_negative_and_set_total_is_monotone(self):
        counter = Counter()
        with pytest.raises(ValueError):
            counter.inc(-1)
        counter.set_total(10)
        counter.set_total(4)  # lower total never winds the counter back
        assert counter.value() == 10

    def test_kind_and_labelname_conflicts_fail_loudly(self):
        registry = MetricsRegistry()
        registry.counter("sssj_x_total", "X.", ("a",))
        with pytest.raises(ValueError, match="already registered as"):
            registry.gauge("sssj_x_total")
        with pytest.raises(ValueError, match="labels"):
            registry.counter("sssj_x_total", "X.", ("b",))
        with pytest.raises(ValueError, match="expects labels"):
            registry.counter("sssj_x_total", "X.", ("a",)).labels(wrong="v")

    def test_label_explosion_collapses_into_overflow_series(self):
        registry = MetricsRegistry(max_series_per_metric=4)
        family = registry.counter("sssj_churn_total", "Churn.", ("session",))
        for index in range(10):
            family.labels(session=f"s{index}").inc()
        # 4 real children + 1 overflow child, never 10.
        assert len(family) == 5
        assert family.dropped == 6
        # The six overflowed increments all landed on the overflow child.
        assert registry.get_value("sssj_churn_total",
                                  session=obs.OVERFLOW_LABEL) == 6
        text = render_prometheus(registry)
        assert 'session="overflow"' in text
        assert ('sssj_obs_series_dropped_total{metric="sssj_churn_total"} 6'
                in text)

    def test_collector_runs_at_scrape_and_dies_with_owner(self):
        registry = MetricsRegistry()

        class Subsystem:
            calls = 0

        subsystem = Subsystem()

        def collect(owner):
            owner.calls += 1
            registry.gauge("sssj_sub").labels().set(owner.calls)

        registry.add_collector(collect, owner=subsystem)
        assert subsystem.calls == 0  # nothing until someone scrapes
        registry.families()
        registry.families()
        assert subsystem.calls == 2
        del subsystem
        registry.families()  # dead weakref is pruned, not an error
        assert registry.collector_errors == 0

    def test_broken_collector_never_breaks_the_scrape(self):
        registry = MetricsRegistry()
        registry.add_collector(lambda: 1 / 0)
        registry.gauge("sssj_ok").labels().set(1)
        text = render_prometheus(registry)
        assert "sssj_ok 1" in text
        assert registry.collector_errors == 1

    def test_delta_tracker_increments_and_handles_resets(self):
        child = Counter()
        tracker = DeltaTracker()
        tracker.export(child, "k", 10)
        tracker.export(child, "k", 25)
        assert child.value() == 25
        # Reset (fresh instance reusing the key): new epoch counts whole.
        tracker.export(child, "k", 5)
        assert child.value() == 30

    @settings(deadline=None, max_examples=15,
              suppress_health_check=[HealthCheck.too_slow])
    @given(per_thread=st.integers(min_value=1, max_value=400),
           threads=st.integers(min_value=2, max_value=6))
    def test_concurrent_increments_survive_flush_under_read(self, per_thread,
                                                            threads):
        """Readers summing the cells mid-flight never lose an increment."""
        counter = Counter()
        stop = threading.Event()
        observed = []

        def reader():
            while not stop.is_set():
                observed.append(counter.value())

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()

        def writer():
            for _ in range(per_thread):
                counter.inc()

        workers = [threading.Thread(target=writer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        stop.set()
        reader_thread.join()
        assert counter.value() == per_thread * threads
        # Interleaved reads are monotone prefixes, never over the total.
        assert all(0 <= value <= per_thread * threads for value in observed)


# ---------------------------------------------------------------------------
# prometheus rendering


def test_prometheus_golden_format():
    registry = MetricsRegistry()
    registry.counter("sssj_pairs_total", "Pairs.",
                     ("tenant",)).labels(tenant="acme").inc(3)
    registry.gauge("sssj_queue_depth", "Depth.").labels().set(2)
    histogram = registry.histogram("sssj_wait_seconds", "Wait.",
                                   buckets=(0.1, 1.0))
    histogram.labels().observe(0.25)
    histogram.labels().observe(0.5)
    assert render_prometheus(registry) == (
        "# HELP sssj_pairs_total Pairs.\n"
        "# TYPE sssj_pairs_total counter\n"
        'sssj_pairs_total{tenant="acme"} 3\n'
        "# HELP sssj_queue_depth Depth.\n"
        "# TYPE sssj_queue_depth gauge\n"
        "sssj_queue_depth 2\n"
        "# HELP sssj_wait_seconds Wait.\n"
        "# TYPE sssj_wait_seconds histogram\n"
        'sssj_wait_seconds_bucket{le="0.1"} 0\n'
        'sssj_wait_seconds_bucket{le="1"} 2\n'
        'sssj_wait_seconds_bucket{le="+Inf"} 2\n'
        "sssj_wait_seconds_sum 0.75\n"
        "sssj_wait_seconds_count 2\n"
    )


def test_prometheus_escapes_label_values():
    registry = MetricsRegistry()
    registry.counter("sssj_esc_total", "E.",
                     ("name",)).labels(name='we"ird\\x\n').inc()
    text = render_prometheus(registry)
    assert r'name="we\"ird\\x\n"' in text


# ---------------------------------------------------------------------------
# tracing


def _sampled_markers(seed: int, sample: float = 0.4, spans: int = 300):
    records = []
    tracer = Tracer(sample=sample, seed=seed, sink=records.append)
    for index in range(spans):
        with tracer.span("work", marker=index):
            pass
    return [record["marker"] for record in records]


class TestTracing:
    def test_sampling_is_deterministic_per_seed(self):
        first = _sampled_markers(seed=42)
        second = _sampled_markers(seed=42)
        assert first == second
        assert 0 < len(first) < 300  # it actually samples
        assert _sampled_markers(seed=7) != first

    def test_span_nesting_records_parents(self):
        records = []
        tracer = Tracer(sample=1.0, sink=records.append)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = records  # inner closes (and emits) first
        assert inner["span"] == "inner" and outer["span"] == "outer"
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None

    def test_slow_spans_emit_even_when_unsampled(self):
        records = []
        tracer = Tracer(sample=0.0, slow_ms=0.0, sink=records.append)
        with tracer.span("batch", session="s"):
            pass
        assert len(records) == 1
        assert records[0]["slow"] is True and records[0]["session"] == "s"
        assert tracer.slow_spans == 1

    def test_inactive_tracer_returns_the_shared_null_span(self):
        tracer = Tracer(sample=1.0)  # no sink, no slow_ms → inert
        assert tracer.span("x") is obs.NULL_SPAN
        assert obs.NULL_SPAN.note(anything=1) is obs.NULL_SPAN

    def test_span_records_exception_and_sink_errors_are_swallowed(self):
        records = []
        tracer = Tracer(sample=1.0, sink=records.append)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert records[0]["error"] == "RuntimeError"

        def broken_sink(record):
            raise OSError("disk full")

        tracer = Tracer(sample=1.0, sink=broken_sink)
        with tracer.span("fine"):
            pass  # the traced operation must survive the sink failure


# ---------------------------------------------------------------------------
# zero interference with the engine


@settings(deadline=None, max_examples=8,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**16),
       count=st.integers(min_value=10, max_value=60))
def test_pairs_and_counters_bitwise_identical_obs_on_off(seed, count):
    vectors = random_vectors(count, seed=seed)

    def run_with_obs(flag: bool):
        previous_registry = obs.set_registry(MetricsRegistry())
        previous_tracer = obs.set_tracer(
            Tracer(sample=1.0, sink=lambda record: None))
        was_enabled = obs.enabled()
        obs.set_enabled(flag)
        try:
            return engine_pairs(vectors, THETA, DECAY)
        finally:
            obs.set_enabled(was_enabled)
            obs.set_registry(previous_registry)
            obs.set_tracer(previous_tracer)

    pairs_on, stats_on = run_with_obs(True)
    pairs_off, stats_off = run_with_obs(False)
    assert pairs_on == pairs_off
    assert counters_without_time(stats_on.as_dict()) == \
        counters_without_time(stats_off.as_dict())


# ---------------------------------------------------------------------------
# service surface


class TestServiceSurface:
    def test_metrics_op_returns_prometheus_text(self, registry):
        from repro.service.server import JoinService

        service = JoinService()
        try:
            response = service.handle({"op": "metrics"})
            assert response["ok"]
            assert response["content_type"].startswith("text/plain")
            assert "sssj_server_sessions" in response["metrics"]
            assert 'sssj_server_requests_total{op="metrics"} 1' \
                in response["metrics"]  # the op counts itself
        finally:
            service.shutdown()

    def test_scheduler_scrape_has_queue_depth_and_tenant_series(
            self, registry):
        from repro.service import JoinService

        service = JoinService(pool_workers=2)
        try:
            vectors = random_vectors(30, seed=3)
            assert service.handle(
                {"op": "open", "session": "s1", "theta": THETA,
                 "decay": DECAY, "tenant": "acme",
                 "checkpoint": False})["ok"]
            assert service.handle(
                {"op": "ingest", "session": "s1", "seq": 0,
                 "vectors": [encode_vector(v) for v in vectors]})["ok"]
            wait_until(lambda: service.sessions["s1"].processed == 30)
            text = service.handle({"op": "metrics"})["metrics"]
            assert 'sssj_engine_vectors_processed_total{session="s1",' \
                   'tenant="acme",backend=' in text
            assert 'sssj_tenant_ingested_vectors_total{tenant="acme"} 30' \
                in text
            assert "sssj_pool_workers 2" in text
            assert "sssj_scheduler_dispatch_wait_seconds_bucket" in text
            assert 'sssj_session_queue_depth{session="s1",tenant="acme"} 0' \
                in text
        finally:
            service.shutdown()

    def test_evicted_stats_carry_last_counters_and_evicted_at(
            self, registry, tmp_path):
        from repro.service import JoinService

        service = JoinService(pool_workers=1, checkpoint_dir=tmp_path)
        try:
            vectors = random_vectors(20, seed=5)
            assert service.handle(
                {"op": "open", "session": "e", "theta": THETA,
                 "decay": DECAY})["ok"]
            assert service.handle(
                {"op": "ingest", "session": "e", "seq": 0,
                 "vectors": [encode_vector(v) for v in vectors]})["ok"]
            wait_until(lambda: service.sessions["e"].processed == 20
                        and service.sessions["e"].run_state == "idle")
            before = time.time()
            assert service.handle({"op": "evict", "session": "e"})["ok"]
            payload = service.handle(
                {"op": "stats", "session": "e"})["sessions"]["e"]
            assert payload["status"] == "evicted"
            assert payload["counters"]["vectors_processed"] == 20
            assert before - 1.0 <= payload["evicted_at"] <= time.time() + 1.0
            # Live sessions report no eviction timestamp.
            assert service.handle(
                {"op": "open", "session": "live", "theta": THETA,
                 "decay": DECAY, "checkpoint": False})["ok"]
            live = service.handle(
                {"op": "stats", "session": "live"})["sessions"]["live"]
            assert live["evicted_at"] is None
            # The scrape still shows the evicted session's last counters.
            text = service.handle({"op": "metrics"})["metrics"]
            assert 'sssj_engine_vectors_processed_total{session="e"' in text
        finally:
            service.shutdown()


# ---------------------------------------------------------------------------
# LatencyStats satellite


class TestLatencyStats:
    def test_tiny_windows_interpolate_instead_of_nearest_rank(self):
        stats = LatencyStats()
        stats.record(0.010)
        assert stats.percentile(50) == pytest.approx(0.010)
        stats.record(0.030)
        # Nearest-rank would answer 0.010 for every percentile; the
        # interpolated p50 of two samples is their midpoint.
        assert stats.percentile(50) == pytest.approx(0.020)
        assert stats.percentile(100) == pytest.approx(0.030)
        stats.record(0.020)  # n = 3 → nearest-rank again
        assert stats.percentile(50) == pytest.approx(0.020)

    def test_histogram_and_latency_stats_share_one_percentile_rule(self):
        import random

        rng = random.Random(5)
        for n in (1, 2, 3, 100):
            samples = [rng.uniform(0.001, 0.5) for _ in range(n)]
            stats = LatencyStats()
            histogram = obs.Histogram(window=n)
            for sample in samples:
                stats.record(sample)
                histogram.observe(sample)
            for p in (1, 25, 50, 90, 95, 99, 100):
                assert histogram.percentile(p) == stats.percentile(p), (n, p)
                assert (obs.percentile(sorted(samples), p)
                        == stats.percentile(p)), (n, p)

    @pytest.mark.parametrize("p", [0, -5, 100.5, 150])
    def test_out_of_range_percentiles_are_rejected(self, p):
        histogram = obs.Histogram()
        stats = LatencyStats()
        for sample in (0.1, 0.2, 0.3):
            histogram.observe(sample)
            stats.record(sample)
        with pytest.raises(ValueError):
            histogram.percentile(p)
        with pytest.raises(ValueError):
            stats.percentile(p)

    def test_window_is_configurable_and_drops_are_counted(self):
        stats = LatencyStats(window=4)
        for value in (1, 2, 3, 4, 5, 6):
            stats.record(float(value))
        assert len(stats) == 4
        assert stats.count == 6
        assert stats.window_dropped == 2
        summary = stats.summary()
        assert summary["window_dropped"] == 2
        assert summary["max_ms"] == 6000.0
        with pytest.raises(ValueError):
            LatencyStats(window=0)

    def test_session_config_latency_window_is_plumbed(self):
        from repro.service.session import JoinSession, SessionConfig

        config = SessionConfig(name="w", threshold=THETA, decay=DECAY,
                               latency_window=128)
        session = JoinSession(config)
        try:
            assert session.latency.window == 128
        finally:
            session.close()
        from repro.service.session import SessionError

        with pytest.raises(SessionError):
            SessionConfig(name="w", threshold=THETA, decay=DECAY,
                          latency_window=0)


# ---------------------------------------------------------------------------
# sssj top


def test_top_view_renders_rates_and_tenant_rows():
    view = TopView()
    payload = {
        "server": {"uptime_s": 12.0, "sessions": 2, "requests_handled": 9},
        "scheduler": {
            "pool": {"workers": 2, "quanta_run": 4, "vectors_processed": 100},
            "ready": {"ready_sessions": 1, "tenants_in_rotation": 1,
                      "deficit": {"acme": -12.5}},
            "evictions": 1, "restores": 0,
        },
        "tenants": {"acme": {"sessions": 2, "admitted": 100,
                             "rejected": {"rate": 3}}},
        "sessions": {
            "s1": {"tenant": "acme", "status": "active", "queued": 5,
                   "processed": 50, "pairs_emitted": 7,
                   "latency": {"p99_ms": 1.25}, "evicted_at": None},
        },
    }
    first = view.render(payload, now=100.0)
    assert "sssj top" in first and "requests 9" in first
    assert "acme" in first and "-12.5" in first
    assert "s1" in first
    # First frame has no rate yet.
    assert any("-" in line for line in first.splitlines() if "s1" in line)
    payload["sessions"]["s1"]["processed"] = 150
    second = view.render(payload, now=110.0)
    row = [line for line in second.splitlines() if line.startswith("s1")][0]
    assert "10.0" in row  # (150-50)/10s

    evicted = {
        "server": {}, "sessions": {
            "old": {"tenant": "t", "status": "evicted", "queued": 0,
                    "processed": 10, "pairs_emitted": 0,
                    "latency": {}, "evicted_at": 123.0}}}
    frame = TopView().render(evicted)
    assert "evicted" in frame


def test_run_top_iterations_with_injected_fetch():
    from repro.obs.top import run_top

    frames = io.StringIO()
    calls = []

    def fetch():
        calls.append(1)
        return {"server": {"uptime_s": 1, "sessions": 0,
                           "requests_handled": len(calls)},
                "sessions": {}}

    assert run_top("h", 0, interval=0.0, iterations=3, out=frames,
                   clear=False, fetch=fetch) == 0
    assert len(calls) == 3
    assert frames.getvalue().count("sssj top") == 3
