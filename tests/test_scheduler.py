"""Tests for the multi-tenant session scheduler (repro.service.scheduler).

The load-bearing property: for the vectors a session accepts, the pairs
it emits are bitwise identical to
:func:`repro.core.join.streaming_self_join` — under any pool size,
quota configuration and eviction timing (pinned by the hypothesis tests
at the bottom).  On top of that, the scheduler's own contracts: quota
rejections are machine-readable and consume nothing, DRR keeps tenant
shares proportional to weights, and checkpoint-evict / lazy-restore is
invisible to clients (sequence numbers and JSONL sink offsets included).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.vector import SparseVector
from repro.service import (
    JoinService,
    QuotaError,
    ServiceClient,
    ServiceClientError,
    TenantQuota,
    read_jsonl_pairs,
    serve,
)
from repro.service.protocol import encode_vector, pair_from_wire
from repro.service.scheduler.ready import DRRReadyQueue
from repro.service.scheduler.tenants import TenantState
from tests.conftest import random_vectors, wait_until
from tests.groundtruth import counters_without_time, engine_pairs

THETA, DECAY = 0.6, 0.05


def expected_pairs(vectors):
    return engine_pairs(vectors, THETA, DECAY)


def open_request(name, *, tenant="default", **options):
    return {"op": "open", "session": name, "theta": THETA, "decay": DECAY,
            "tenant": tenant, "normalize": False, **options}


def ingest_request(name, vectors, *, seq=None):
    request = {"op": "ingest", "session": name,
               "vectors": [encode_vector(v) for v in vectors]}
    if seq is not None:
        request["seq"] = seq
    return request


def ok(response):
    assert response.get("ok"), response
    return response


def session_pairs(service, name):
    response = ok(service.handle(
        {"op": "results", "session": name, "limit": 10 ** 9}))
    return [pair_from_wire(payload) for payload in response["pairs"]]


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Tenant quotas (unit)
# ---------------------------------------------------------------------------


class TestTenantQuota:
    def test_rejects_nonpositive_limits(self):
        for field, value in [("max_sessions", 0), ("max_queued", -1),
                             ("rate", 0.0), ("burst", -2.0), ("weight", 0.0)]:
            with pytest.raises(ValueError):
                TenantQuota(**{field: value})

    def test_default_quota_is_unlimited(self):
        state = TenantState("t", TenantQuota())
        for index in range(100):
            state.admit_session(f"s{index}")
        state.admit_vectors(10 ** 9, queued_now=10 ** 9)

    def test_session_cap_rejects_with_code(self):
        state = TenantState("t", TenantQuota(max_sessions=2))
        state.admit_session("a")
        state.admit_session("b")
        with pytest.raises(QuotaError) as err:
            state.admit_session("c")
        assert err.value.code == "quota_sessions"
        # Re-admitting an owned name is idempotent (client retries).
        state.admit_session("a")
        state.release_session("b")
        state.admit_session("c")

    def test_queued_cap_rejects_with_code_and_consumes_nothing(self):
        state = TenantState("t", TenantQuota(max_queued=100))
        with pytest.raises(QuotaError) as err:
            state.admit_vectors(50, queued_now=80)
        assert err.value.code == "quota_queued"
        assert state.admitted == 0
        state.admit_vectors(20, queued_now=80)
        assert state.admitted == 20

    def test_rate_limit_is_a_token_bucket_with_backoff_hint(self):
        clock = FakeClock()
        state = TenantState("t", TenantQuota(rate=100.0, burst=100.0),
                            clock=clock)
        state.admit_vectors(100, queued_now=0)  # burst drains the bucket
        with pytest.raises(QuotaError) as err:
            state.admit_vectors(50, queued_now=0)
        assert err.value.code == "quota_rate"
        assert err.value.retry_after_s == pytest.approx(0.5)
        clock.advance(0.5)  # refills 50 tokens
        state.admit_vectors(50, queued_now=0)
        assert state.admitted == 150

    def test_rate_admission_is_all_or_nothing(self):
        clock = FakeClock()
        state = TenantState("t", TenantQuota(rate=10.0, burst=30.0),
                            clock=clock)
        state.admit_vectors(25, queued_now=0)
        with pytest.raises(QuotaError):
            state.admit_vectors(10, queued_now=0)  # only 5 tokens left
        state.admit_vectors(5, queued_now=0)  # the partial fit still works


# ---------------------------------------------------------------------------
# DRR ready queue (unit)
# ---------------------------------------------------------------------------


def fake_session(tenant="t", name="f", pending=0):
    session = SimpleNamespace(
        config=SimpleNamespace(tenant=tenant, name=name),
        run_state="idle", status="active", pending=pending)
    session.has_pending = lambda: session.pending > 0
    return session


class TestDRRReadyQueue:
    def test_push_pop_finish_cycle(self):
        ready = DRRReadyQueue(quantum=10)
        session = fake_session(pending=1)
        assert ready.push(session)
        assert session.run_state == "ready"
        assert not ready.push(session)  # already queued
        popped = ready.pop(timeout=1.0)
        assert popped is session and session.run_state == "running"
        assert not ready.push(session)  # running sessions never re-queue
        session.pending = 0
        ready.finish(session)
        assert session.run_state == "idle"

    def test_finish_requeues_when_work_is_pending(self):
        ready = DRRReadyQueue(quantum=10)
        session = fake_session(pending=5)
        ready.push(session)
        assert ready.pop(timeout=1.0) is session
        ready.finish(session)  # still has pending work
        assert session.run_state == "ready"
        assert ready.pop(timeout=1.0) is session

    def test_pop_times_out_empty(self):
        ready = DRRReadyQueue()
        start = time.monotonic()
        assert ready.pop(timeout=0.05) is None
        assert time.monotonic() - start < 1.0

    def test_weighted_fairness_between_backlogged_tenants(self):
        ready = DRRReadyQueue(quantum=100)
        ready.set_weight("heavy", 2.0)
        ready.set_weight("light", 1.0)
        sessions = {"heavy": fake_session("heavy", "h", pending=1),
                    "light": fake_session("light", "l", pending=1)}
        served = {"heavy": 0, "light": 0}
        for session in sessions.values():
            ready.push(session)
        for _ in range(300):
            session = ready.pop(timeout=1.0)
            tenant = session.config.tenant
            served[tenant] += 100  # every quantum processes 100 vectors
            ready.charge(tenant, 100)
            ready.finish(session)  # pending stays >0: re-queues
        ratio = served["heavy"] / served["light"]
        assert 1.5 <= ratio <= 2.5

    def test_charge_debt_is_clamped(self):
        ready = DRRReadyQueue(quantum=10)
        ready.charge("t", 10 ** 9)  # one enormous quantum
        assert ready.stats()["deficit"]["t"] == -4.0 * 10

    def test_evict_claim_only_from_idle(self):
        ready = DRRReadyQueue()
        session = fake_session(pending=1)
        ready.push(session)
        assert not ready.claim_for_evict(session)  # ready, not idle
        assert ready.pop(timeout=1.0) is session
        assert not ready.claim_for_evict(session)  # running
        session.pending = 0
        ready.finish(session)
        assert ready.claim_for_evict(session)
        assert session.run_state == "evicted"
        assert not ready.push(session)  # fenced out while claimed

    def test_release_claim_reschedules_pending_work(self):
        ready = DRRReadyQueue()
        session = fake_session()
        ready.claim_for_evict(session)
        session.pending = 3  # work snuck in while the evict was underway
        ready.release_evict_claim(session)
        assert session.run_state == "ready"
        assert ready.pop(timeout=1.0) is session


# ---------------------------------------------------------------------------
# JoinService scheduling end-to-end (no sockets)
# ---------------------------------------------------------------------------


@pytest.fixture
def scheduler_service(request):
    services = []

    def factory(**options):
        service = JoinService(**options)
        services.append(service)
        return service

    yield factory
    for service in services:
        service.shutdown()


class TestSchedulerServiceParity:
    @pytest.mark.parametrize("pool_workers", [1, 4])
    def test_many_sessions_share_the_pool_bitwise(self, scheduler_service,
                                                  pool_workers):
        service = scheduler_service(pool_workers=pool_workers)
        streams = {f"s{i}": random_vectors(40, seed=i) for i in range(6)}
        for index, name in enumerate(streams):
            ok(service.handle(open_request(
                name, tenant=f"tenant{index % 3}", checkpoint=False,
                batch_max_items=7)))
        # Interleave the streams chunk by chunk across sessions.
        cursor, chunk = {name: 0 for name in streams}, 9
        while any(cursor[name] < len(vs) for name, vs in streams.items()):
            for name, vectors in streams.items():
                at = cursor[name]
                if at < len(vectors):
                    ok(service.handle(ingest_request(
                        name, vectors[at:at + chunk], seq=at)))
                    cursor[name] = min(len(vectors), at + chunk)
        for name, vectors in streams.items():
            summary = ok(service.handle({"op": "drain", "session": name}))
            reference, stats = expected_pairs(vectors)
            assert summary["processed"] == len(vectors)
            assert session_pairs(service, name) == reference
            counters = ok(service.handle(
                {"op": "stats", "session": name}))["sessions"][name]["counters"]
            assert counters_without_time(counters) == \
                counters_without_time(stats.as_dict())

    def test_scheduler_stats_and_session_rows(self, scheduler_service):
        service = scheduler_service(pool_workers=2)
        vectors = random_vectors(30, seed=3)
        ok(service.handle(open_request("a", tenant="acme", checkpoint=False)))
        ok(service.handle(open_request("b", tenant="zeta", checkpoint=False)))
        ok(service.handle(ingest_request("a", vectors, seq=0)))
        ok(service.handle({"op": "drain", "session": "a"}))
        listing = ok(service.handle({"op": "sessions"}))
        assert [row["session"] for row in listing["sessions"]] == ["a", "b"]
        row = listing["sessions"][0]
        assert row["tenant"] == "acme"
        assert row["processed"] == len(vectors)
        assert row["batches_flushed"] >= 1
        assert {"p50_ms", "p95_ms", "p99_ms"} <= set(row)
        filtered = ok(service.handle({"op": "sessions", "tenant": "zeta"}))
        assert [row["session"] for row in filtered["sessions"]] == ["b"]
        stats = ok(service.handle({"op": "stats"}))
        assert stats["scheduler"]["pool"]["workers"] == 2
        assert stats["scheduler"]["pool"]["vectors_processed"] >= len(vectors)
        assert set(stats["tenants"]) == {"acme", "zeta"}
        assert stats["tenants"]["acme"]["admitted"] == len(vectors)

    def test_block_backpressure_drains_through_the_pool(self,
                                                        scheduler_service):
        # A queue far smaller than one ingest request: the producer blocks
        # mid-request and only the pool can unblock it — the regression
        # test for the scheduled-mode backpressure deadlock.
        service = scheduler_service(pool_workers=2)
        vectors = random_vectors(60, seed=4)
        ok(service.handle(open_request("tight", checkpoint=False,
                                       queue_max=5, batch_max_items=3,
                                       backpressure="block")))
        ok(service.handle(ingest_request("tight", vectors, seq=0)))
        ok(service.handle({"op": "drain", "session": "tight"}))
        assert session_pairs(service, "tight") == expected_pairs(vectors)[0]


class TestQuotaEnforcement:
    def test_session_quota_rejected_open_leaves_no_trace(self,
                                                         scheduler_service):
        service = scheduler_service(
            pool_workers=1,
            tenant_quotas={"small": TenantQuota(max_sessions=1)})
        ok(service.handle(open_request("one", tenant="small",
                                       checkpoint=False)))
        rejected = service.handle(open_request("two", tenant="small",
                                               checkpoint=False))
        assert not rejected["ok"]
        assert rejected["code"] == "quota_sessions" and rejected["quota"]
        assert "two" not in service.sessions
        # The cap is on live sessions: closing frees the slot.
        ok(service.handle({"op": "close", "session": "one"}))
        ok(service.handle(open_request("two", tenant="small",
                                       checkpoint=False)))

    def test_rate_quota_rejects_without_advancing_seq(self,
                                                      scheduler_service):
        clock = FakeClock()
        service = scheduler_service(
            pool_workers=1, clock=clock,
            default_quota=TenantQuota(rate=50.0, burst=50.0))
        vectors = random_vectors(80, seed=5)
        ok(service.handle(open_request("r", checkpoint=False)))
        first = ok(service.handle(ingest_request("r", vectors[:50], seq=0)))
        assert first["ingest_seq"] == 50
        rejected = service.handle(ingest_request("r", vectors[50:], seq=50))
        assert not rejected["ok"] and rejected["code"] == "quota_rate"
        assert rejected["retry_after_s"] > 0
        assert service.sessions["r"].ingest_seq == 50  # nothing consumed
        clock.advance(1.0)
        second = ok(service.handle(ingest_request("r", vectors[50:], seq=50)))
        assert second["ingest_seq"] == 80
        ok(service.handle({"op": "drain", "session": "r"}))
        assert session_pairs(service, "r") == expected_pairs(vectors)[0]

    def test_duplicate_resend_is_not_double_charged(self, scheduler_service):
        clock = FakeClock()
        service = scheduler_service(
            pool_workers=1, clock=clock,
            default_quota=TenantQuota(rate=50.0, burst=50.0))
        vectors = random_vectors(50, seed=6)
        ok(service.handle(open_request("d", checkpoint=False)))
        ok(service.handle(ingest_request("d", vectors, seq=0)))
        # The ack was "lost"; the client resends the same batch.  Every
        # vector is a known duplicate — a full bucket must not matter.
        resent = ok(service.handle(ingest_request("d", vectors, seq=0)))
        assert resent["deduped"] == 50 and resent["accepted"] == 0
        assert service.tenants["default"].admitted == 50

    def test_queued_quota_counts_the_standing_backlog(self,
                                                      scheduler_service):
        service = scheduler_service(
            pool_workers=1,
            default_quota=TenantQuota(max_queued=10))
        vectors = random_vectors(30, seed=7)
        ok(service.handle(open_request("q", checkpoint=False)))
        rejected = service.handle(ingest_request("q", vectors, seq=0))
        assert not rejected["ok"] and rejected["code"] == "quota_queued"
        for at in range(0, len(vectors), 10):
            ok(service.handle(ingest_request("q", vectors[at:at + 10],
                                             seq=at)))
            wait_until(lambda: service.sessions["q"].queued == 0)
        ok(service.handle({"op": "drain", "session": "q"}))
        assert session_pairs(service, "q") == expected_pairs(vectors)[0]


class TestEvictRestore:
    def _drained(self, service, name, count):
        session = service.sessions[name]
        wait_until(lambda: session.processed == count
                   and session.run_state == "idle")

    def test_evict_frees_the_engine_and_restore_is_bitwise(self,
                                                           scheduler_service,
                                                           tmp_path):
        service = scheduler_service(pool_workers=2, checkpoint_dir=tmp_path)
        vectors = random_vectors(60, seed=8)
        sink_path = tmp_path / "pairs.jsonl"
        ok(service.handle(open_request(
            "e", sinks=[{"kind": "jsonl", "path": str(sink_path)}])))
        ok(service.handle(ingest_request("e", vectors[:35], seq=0)))
        self._drained(service, "e", 35)
        evicted = ok(service.handle({"op": "evict", "session": "e"}))
        assert evicted["evicted"]
        placeholder = service.sessions["e"]
        assert placeholder.status == "evicted"
        assert placeholder.join is None  # the engine's memory is gone
        assert placeholder.run_state == "evicted"
        assert ok(service.handle(
            {"op": "evict", "session": "e"}))["already_evicted"]
        # Lazy restore: the next ingest transparently revives the session
        # and the stream continues exactly where it left off.
        ok(service.handle(ingest_request("e", vectors[35:], seq=35)))
        restored = service.sessions["e"]
        assert restored is not placeholder and restored.resumed
        assert restored.ingest_seq == 60
        ok(service.handle({"op": "drain", "session": "e"}))
        reference, stats = expected_pairs(vectors)
        # The JSONL sink saw the full pair stream with no duplicates or
        # gaps across the evict/restore boundary.
        assert read_jsonl_pairs(sink_path) == reference
        counters = ok(service.handle(
            {"op": "stats", "session": "e"}))["sessions"]["e"]["counters"]
        assert counters_without_time(counters) == \
            counters_without_time(stats.as_dict())
        assert service.evictions == 1 and service.restores == 1

    def test_evicted_placeholder_stats_do_not_need_the_engine(
            self, scheduler_service, tmp_path):
        service = scheduler_service(pool_workers=1, checkpoint_dir=tmp_path)
        vectors = random_vectors(20, seed=9)
        ok(service.handle(open_request("p")))
        ok(service.handle(ingest_request("p", vectors, seq=0)))
        self._drained(service, "p", 20)
        ok(service.handle({"op": "evict", "session": "p"}))
        stats = ok(service.handle({"op": "stats", "session": "p"}))
        payload = stats["sessions"]["p"]
        assert payload["status"] == "evicted"
        assert payload["processed"] == 20
        assert payload["counters"]  # cached from the eviction barrier
        listing = ok(service.handle({"op": "sessions"}))
        assert listing["sessions"][0]["status"] == "evicted"

    def test_sweeper_evicts_idle_sessions_and_memory_stays_flat(
            self, scheduler_service, tmp_path):
        service = scheduler_service(pool_workers=2, checkpoint_dir=tmp_path,
                                    evict_after=0.2)
        streams = {f"idle{index}": random_vectors(30, seed=20 + index)
                   for index in range(6)}
        for name, vectors in streams.items():
            ok(service.handle(open_request(name)))
            ok(service.handle(ingest_request(name, vectors[:15], seq=0)))
        wait_until(lambda: all(s.status == "evicted"
                               for s in service.sessions.values()),
                   timeout=15.0)
        # Evicted placeholders hold no engine and no retained pairs:
        # memory does not grow with the number of evicted sessions.
        assert all(s.join is None for s in service.sessions.values())
        assert service.evictions == 6
        # And they all come back on demand, streams intact.
        ok(service.handle(ingest_request(
            "idle0", streams["idle0"][15:], seq=15)))
        assert service.sessions["idle0"].status == "active"

    def test_restart_after_evict_recovers_the_session(self, tmp_path):
        vectors = random_vectors(40, seed=10)
        service = JoinService(pool_workers=1, checkpoint_dir=tmp_path)
        try:
            ok(service.handle(open_request("z")))
            ok(service.handle(ingest_request("z", vectors[:25], seq=0)))
            session = service.sessions["z"]
            wait_until(lambda: session.processed == 25
                       and session.run_state == "idle")
            ok(service.handle({"op": "evict", "session": "z"}))
        finally:
            service.shutdown()
        # A brand-new service (a process restart) recovers the evicted
        # session from its envelope and the stream continues bitwise.
        service = JoinService(pool_workers=2, checkpoint_dir=tmp_path)
        try:
            assert service.recover_sessions() == ["z"]
            opened = ok(service.handle(open_request("z")))
            assert opened["existing"] and opened["ingest_seq"] == 25
            ok(service.handle(ingest_request("z", vectors[25:], seq=25)))
            ok(service.handle({"op": "drain", "session": "z"}))
            reference, _ = expected_pairs(vectors)
            # Pairs found before the evict were flushed with the envelope;
            # the in-memory window holds the continuation — compare it
            # against the same suffix of the reference stream.
            emitted = session_pairs(service, "z")
            assert emitted == reference[len(reference) - len(emitted):]
            assert service.sessions["z"].processed == 40
        finally:
            service.shutdown()


# ---------------------------------------------------------------------------
# Hypothesis: determinism under any scheduling configuration
# ---------------------------------------------------------------------------


class TestSchedulingDeterminism:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pool_workers=st.integers(1, 4),
           batch_max_items=st.integers(1, 32),
           chunk=st.integers(1, 17),
           seed=st.integers(0, 5))
    def test_pairs_are_bitwise_under_any_pool_and_batching(
            self, pool_workers, batch_max_items, chunk, seed):
        vectors = random_vectors(30, seed=seed)
        service = JoinService(pool_workers=pool_workers)
        try:
            ok(service.handle(open_request(
                "h", checkpoint=False, batch_max_items=batch_max_items)))
            for at in range(0, len(vectors), chunk):
                ok(service.handle(ingest_request(
                    "h", vectors[at:at + chunk], seq=at)))
            ok(service.handle({"op": "drain", "session": "h"}))
            reference, stats = expected_pairs(vectors)
            assert session_pairs(service, "h") == reference
            counters = ok(service.handle(
                {"op": "stats", "session": "h"}))["sessions"]["h"]["counters"]
            assert counters_without_time(counters) == \
                counters_without_time(stats.as_dict())
        finally:
            service.shutdown()

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pool_workers=st.integers(1, 3),
           evict_at=st.integers(1, 29),
           seed=st.integers(0, 3))
    def test_pairs_are_bitwise_across_evict_restore(self, tmp_path_factory,
                                                    pool_workers, evict_at,
                                                    seed):
        vectors = random_vectors(30, seed=seed)
        tmp_path = tmp_path_factory.mktemp("evict")
        sink_path = tmp_path / "pairs.jsonl"
        service = JoinService(pool_workers=pool_workers,
                              checkpoint_dir=tmp_path)
        try:
            ok(service.handle(open_request(
                "h", batch_max_items=5,
                sinks=[{"kind": "jsonl", "path": str(sink_path)}])))
            ok(service.handle(ingest_request("h", vectors[:evict_at], seq=0)))
            session = service.sessions["h"]
            wait_until(lambda: session.processed == evict_at
                       and session.run_state == "idle")
            assert ok(service.handle(
                {"op": "evict", "session": "h"}))["evicted"]
            ok(service.handle(ingest_request(
                "h", vectors[evict_at:], seq=evict_at)))
            ok(service.handle({"op": "drain", "session": "h"}))
            reference, stats = expected_pairs(vectors)
            assert read_jsonl_pairs(sink_path) == reference
            counters = ok(service.handle(
                {"op": "stats", "session": "h"}))["sessions"]["h"]["counters"]
            assert counters_without_time(counters) == \
                counters_without_time(stats.as_dict())
        finally:
            service.shutdown()


# ---------------------------------------------------------------------------
# Selector server (sockets)
# ---------------------------------------------------------------------------


@pytest.fixture
def selector_server(tmp_path):
    server, _ = serve(port=0, pool_workers=2, checkpoint_dir=tmp_path)
    thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
    thread.start()
    yield server
    server.service.shutdown()
    server.request_stop()
    thread.join(timeout=10)


class TestSelectorServer:
    def test_end_to_end_over_sockets_is_bitwise(self, selector_server):
        host, port = selector_server.address
        vectors = random_vectors(50, seed=11)
        with ServiceClient(host, port) as client:
            client.open_session("s", theta=THETA, decay=DECAY,
                                normalize=False, checkpoint=False)
            client.ingest("s", vectors, chunk_size=13)
            summary = client.drain("s")
            assert summary["processed"] == len(vectors)
            pairs = list(client.iter_results("s"))
        assert pairs == expected_pairs(vectors)[0]

    def test_pipelined_requests_answered_in_order(self, selector_server):
        host, port = selector_server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b'{"op": "ping"}\n{"op": "stats"}\n{"op": "ping"}\n')
            stream = sock.makefile("rb")
            first = json.loads(stream.readline())
            second = json.loads(stream.readline())
            third = json.loads(stream.readline())
        assert first["pong"] and third["pong"]
        assert second["ok"] and "scheduler" in second

    def test_concurrent_clients_multiplex_one_loop(self, selector_server):
        host, port = selector_server.address
        streams = {f"c{i}": random_vectors(25, seed=30 + i)
                   for i in range(8)}
        failures = []

        def run_client(name, vectors):
            try:
                with ServiceClient(host, port) as client:
                    client.open_session(name, theta=THETA, decay=DECAY,
                                        tenant=name, normalize=False,
                                        checkpoint=False)
                    client.ingest(name, vectors, chunk_size=7)
                    client.drain(name)
                    pairs = list(client.iter_results(name))
                assert pairs == expected_pairs(vectors)[0]
            except BaseException as error:  # noqa: BLE001 - report in main
                failures.append((name, error))

        threads = [threading.Thread(target=run_client, args=item)
                   for item in streams.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures
        # All eight connections shared one selector loop.
        assert selector_server.stats()["connections_accepted"] >= 8

    def test_quota_error_surfaces_over_the_wire(self, tmp_path):
        server, _ = serve(
            port=0, pool_workers=1,
            scheduler_options={
                "tenant_quotas": {"tiny": TenantQuota(max_sessions=1)}})
        thread = threading.Thread(target=server.serve_until_shutdown,
                                  daemon=True)
        thread.start()
        try:
            host, port = server.address
            with ServiceClient(host, port) as client:
                client.open_session("a", theta=THETA, decay=DECAY,
                                    tenant="tiny", checkpoint=False)
                with pytest.raises(ServiceClientError) as err:
                    client.open_session("b", theta=THETA, decay=DECAY,
                                        tenant="tiny", checkpoint=False)
                assert err.value.response["code"] == "quota_sessions"
                client.shutdown()
        finally:
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_shutdown_op_stops_the_loop(self, tmp_path):
        server, _ = serve(port=0, pool_workers=1)
        thread = threading.Thread(target=server.serve_until_shutdown,
                                  daemon=True)
        thread.start()
        host, port = server.address
        with ServiceClient(host, port) as client:
            assert client.shutdown()["ok"]
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_idle_connection_is_dropped_after_read_timeout(self, tmp_path):
        server, _ = serve(port=0, pool_workers=1, read_timeout=0.3)
        thread = threading.Thread(target=server.serve_until_shutdown,
                                  daemon=True)
        thread.start()
        try:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b'{"op": "ping"}\n')
                stream = sock.makefile("rb")
                assert json.loads(stream.readline())["pong"]
                # Go quiet: the server must close the connection, not pin
                # its loop slot forever.
                sock.settimeout(5.0)
                assert stream.readline() == b""
        finally:
            server.service.shutdown()
            server.request_stop()
            thread.join(timeout=10)

    def test_wrong_typed_field_gets_an_error_and_the_connection_lives(
            self, selector_server):
        host, port = selector_server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b'{"op": "open", "session": "s", "theta": 0.6, '
                         b'"decay": 0.05, "checkpoint": false}\n'
                         b'{"op": "results", "session": "s", "cursor": {}}\n'
                         b'{"op": "ping"}\n')
            stream = sock.makefile("rb")
            assert json.loads(stream.readline())["ok"]
            bad = json.loads(stream.readline())
            assert bad["ok"] is False and bad["error"]
            assert json.loads(stream.readline())["pong"]
