"""Tests for the long-running join service (repro.service).

The load-bearing property is end-to-end determinism: for a fixed stream,
the pairs a session emits — under any batching/backpressure settings,
with or without a mid-stream kill + checkpoint recovery — are identical
to :func:`repro.core.join.streaming_self_join`, bitwise, counters
included.  That property is pinned by hypothesis tests at the bottom.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import SimilarPair
from repro.core.vector import SparseVector
from repro.service import (
    BackpressureError,
    CallbackSink,
    JoinService,
    JoinSession,
    JsonlSink,
    MemorySink,
    ServiceClient,
    SessionConfig,
    SessionError,
    SinkError,
    create_sink,
    read_jsonl_pairs,
    serve,
)
from repro.service.protocol import (
    ServiceProtocolError,
    decode_vector,
    encode_vector,
    pair_from_wire,
    pair_to_wire,
)
from repro.service.scheduler import DRRReadyQueue, WorkerPool, default_pool
from tests.conftest import random_vectors, wait_until
from tests.groundtruth import counters_without_time, engine_pairs

THETA, DECAY = 0.6, 0.05


def expected_pairs(vectors, *, algorithm="STR-L2", backend=None):
    return engine_pairs(vectors, THETA, DECAY, algorithm=algorithm,
                        backend=backend)


def make_session(name="s", *, scheduler=None, **overrides) -> JoinSession:
    config = SessionConfig(name=name, threshold=THETA, decay=DECAY,
                           **overrides)
    return JoinSession(config, scheduler=scheduler)


class HeldScheduler:
    """Stub scheduler: holds a session's wakeups back until :meth:`release`,
    then hands it to the default pool — so a bounded queue can fill."""

    def __init__(self) -> None:
        self.released = False
        self.session = None

    def notify(self, session) -> None:
        self.session = session
        if self.released:
            default_pool().notify(session)

    def release(self) -> None:
        self.released = True
        if self.session is not None:
            default_pool().notify(self.session)


@pytest.fixture
def one_worker():
    """A private one-worker pool, as a scheduler for ``scheduler=``."""
    ready = DRRReadyQueue()
    pool = WorkerPool(ready, workers=1)
    pool.start()
    yield SimpleNamespace(notify=ready.push)
    pool.stop()


class TestSessionConfig:
    def test_rejects_unknown_backpressure_policy(self):
        with pytest.raises(SessionError):
            SessionConfig(name="x", threshold=0.6, decay=0.05,
                          backpressure="panic")

    @pytest.mark.parametrize("field,value", [
        ("queue_max", 0), ("batch_max_items", 0),
    ])
    def test_rejects_nonpositive_limits(self, field, value):
        with pytest.raises(SessionError):
            SessionConfig(name="x", threshold=0.6, decay=0.05,
                          **{field: value})

    def test_round_trips_through_dict_and_ignores_unknown_keys(self):
        config = SessionConfig(name="x", threshold=0.7, decay=0.01,
                               batch_max_items=3)
        payload = dict(config.as_dict(), some_future_field=1)
        assert SessionConfig.from_dict(payload) == config


class TestProtocol:
    def test_vector_round_trip_is_bitwise_without_renormalisation(self):
        vector = SparseVector(7, 3.5, {2: 0.4, 9: 0.8})  # normalised here
        again = decode_vector(json.loads(json.dumps(encode_vector(vector))),
                              normalize=False)
        assert again.vector_id == 7
        assert again.timestamp == 3.5
        assert dict(again) == dict(vector)

    def test_decode_normalises_raw_weights_by_default(self):
        raw = decode_vector([1, 0.0, [2, 3.0, 9, 4.0]])
        assert dict(raw) == dict(SparseVector(1, 0.0, {2: 3.0, 9: 4.0}))

    def test_pair_round_trip_is_bitwise(self):
        pair = SimilarPair.make(3, 1, 0.87654321, time_delta=1.25,
                                dot=0.9, reported_at=42.0)
        assert pair_from_wire(json.loads(json.dumps(pair_to_wire(pair)))) == pair

    def test_bad_vector_payload_raises(self):
        with pytest.raises(ServiceProtocolError):
            decode_vector([1, 2.0, [3]])  # odd coordinate list


class TestSinks:
    def test_memory_sink_cursor_pages_through_pairs(self):
        sink = MemorySink()
        pairs = [SimilarPair.make(i, i + 1, 0.9) for i in range(5)]
        sink.emit(pairs[:3])
        sink.emit(pairs[3:])
        page, cursor, _ = sink.read(0, limit=2)
        assert page == pairs[:2] and cursor == 2
        page, cursor, _ = sink.read(cursor)
        assert page == pairs[2:] and cursor == 5
        assert sink.read(cursor)[0] == []

    def test_memory_sink_eviction_reports_gap(self):
        sink = MemorySink(capacity=3)
        sink.emit([SimilarPair.make(i, i + 1, 0.9) for i in range(10)])
        page, cursor, first_retained = sink.read(0)
        assert first_retained == 7
        assert cursor == 10
        assert [p.id_a for p in page] == [7, 8, 9]

    def test_memory_sink_overflow_mid_cursor_reports_the_gap(self):
        # A reader paginates partway, then the retention window slides
        # past its cursor: the next read must surface the gap through
        # first_retained (and start at the oldest retained pair) rather
        # than silently renumbering or replaying the wrong pairs.
        sink = MemorySink(capacity=4)
        first_batch = [SimilarPair.make(i, i + 1, 0.9) for i in range(6)]
        sink.emit(first_batch)
        page, cursor, first_retained = sink.read(2, limit=2)
        assert [p.id_a for p in page] == [2, 3] and cursor == 4
        assert first_retained == 2  # no gap yet for this reader
        # 8 more pairs: everything below sequence 10 is evicted, so the
        # reader's cursor=4 now points into the evicted range.
        sink.emit([SimilarPair.make(i, i + 1, 0.9) for i in range(6, 14)])
        page, next_cursor, first_retained = sink.read(cursor)
        assert first_retained == 10 > cursor  # the gap is explicit
        assert [p.id_a for p in page] == [10, 11, 12, 13]
        assert next_cursor == 14
        # A cursor inside the retained window still reads gap-free.
        page, _, first_retained = sink.read(11)
        assert first_retained == 10 <= 11
        assert [p.id_a for p in page] == [11, 12, 13]

    def test_jsonl_sink_rolls_back_a_partial_line_after_the_token(self, tmp_path):
        # Crash scenario: the checkpoint token was taken, more pairs were
        # written, and the crash tore the final line in half.  The token's
        # offset lands mid-file (before the torn tail); restore must
        # truncate everything after it — whole lines and the torn
        # fragment alike — leaving a file that parses cleanly.
        path = tmp_path / "pairs.jsonl"
        sink = JsonlSink(path)
        durable = [SimilarPair.make(0, 1, 0.9), SimilarPair.make(1, 2, 0.8)]
        sink.emit(durable)
        token = sink.position()
        sink.emit([SimilarPair.make(2, 3, 0.7)])
        sink.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"sim": 0.6, "torn')  # no newline: a torn write
        assert path.stat().st_size > token["offset"]
        reopened = JsonlSink(path)
        reopened.restore(token)
        assert read_jsonl_pairs(path) == durable  # torn tail is gone
        assert reopened.position() == token
        reopened.emit([SimilarPair.make(9, 10, 0.95)])
        pairs = read_jsonl_pairs(path)  # every line parses again
        assert pairs[:2] == durable and pairs[2].id_a == 9
        reopened.close()

    def test_jsonl_sink_appends_and_restores_to_offset(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        sink = JsonlSink(path)
        before = [SimilarPair.make(0, 1, 0.9), SimilarPair.make(1, 2, 0.8)]
        sink.emit(before)
        token = sink.position()
        sink.emit([SimilarPair.make(2, 3, 0.7)])
        assert len(read_jsonl_pairs(path)) == 3
        sink.restore(token)  # roll back the post-checkpoint pair
        assert read_jsonl_pairs(path) == before
        sink.emit([SimilarPair.make(9, 10, 0.95)])
        assert read_jsonl_pairs(path)[-1].id_a == 9
        sink.close()

    def test_jsonl_sink_refuses_a_shrunken_file(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        sink = JsonlSink(path)
        sink.emit([SimilarPair.make(0, 1, 0.9)])
        token = sink.position()
        sink.close()
        path.write_text("")
        reopened = JsonlSink(path)
        with pytest.raises(SinkError):
            reopened.restore(token)
        reopened.close()

    def test_callback_sink_forwards_every_pair(self):
        seen = []
        sink = CallbackSink(seen.append)
        sink.emit([SimilarPair.make(0, 1, 0.9)])
        assert len(seen) == 1 and seen[0].key == (0, 1)

    def test_create_sink_rejects_unknown_kinds(self):
        with pytest.raises(SinkError):
            create_sink({"kind": "carrier-pigeon"})
        with pytest.raises(SinkError):
            create_sink({"kind": "jsonl"})  # no path


class TestJoinSession:
    @pytest.mark.parametrize("batch_max_items", [1, 7, 128])
    def test_session_output_matches_streaming_self_join(self,
                                                        batch_max_items):
        vectors = random_vectors(80, seed=23)
        expected, expected_stats = expected_pairs(vectors)
        session = make_session(batch_max_items=batch_max_items)
        session.ingest(vectors)
        summary = session.drain()
        pairs, _, _ = session.results.read(0)
        assert pairs == expected
        assert summary["processed"] == len(vectors)
        assert (counters_without_time(session.join.stats.as_dict())
                == counters_without_time(expected_stats.as_dict()))
        session.close()

    def test_minibatch_session_drains_buffered_windows(self):
        vectors = random_vectors(60, seed=29)
        expected, _ = expected_pairs(vectors, algorithm="MB-L2")
        session = make_session(algorithm="MB-L2")
        session.ingest(vectors)
        session.drain()
        pairs, _, _ = session.results.read(0)
        assert pairs == expected
        session.close()

    def test_sharded_session_matches_single_process(self):
        vectors = random_vectors(60, seed=31)
        expected, _ = expected_pairs(vectors, backend="numpy")
        session = make_session(workers=2, backend="numpy")
        session.ingest(vectors)
        session.drain()
        pairs, _, _ = session.results.read(0)
        assert pairs == expected
        session.close()

    def test_extra_sinks_receive_the_same_pairs(self, tmp_path):
        vectors = random_vectors(50, seed=37)
        expected, _ = expected_pairs(vectors)
        seen: list[SimilarPair] = []
        config = SessionConfig(name="s", threshold=THETA, decay=DECAY)
        session = JoinSession(config, sinks=[
            JsonlSink(tmp_path / "pairs.jsonl"), CallbackSink(seen.append)])
        session.ingest(vectors)
        session.drain()
        assert read_jsonl_pairs(tmp_path / "pairs.jsonl") == expected
        assert seen == expected
        session.close()

    def test_drop_policy_drops_newest_and_stays_deterministic(self):
        vectors = random_vectors(30, seed=41)
        # Hold the session back so the bounded queue actually fills.
        scheduler = HeldScheduler()
        session = make_session(queue_max=10, backpressure="drop",
                               scheduler=scheduler)
        accepted_vectors = []
        for vector in vectors:
            accepted, dropped = session.ingest([vector])
            if accepted:
                accepted_vectors.append(vector)
        assert session.dropped == len(vectors) - 10
        scheduler.release()
        session.drain()
        pairs, _, _ = session.results.read(0)
        expected, _ = expected_pairs(accepted_vectors)
        assert pairs == expected
        session.close()

    def test_error_policy_raises_backpressure_error(self):
        vectors = random_vectors(12, seed=43)
        scheduler = HeldScheduler()
        session = make_session(queue_max=4, backpressure="error",
                               scheduler=scheduler)
        with pytest.raises(BackpressureError):
            session.ingest(vectors)
        assert session.accepted == 4
        scheduler.release()
        session.close()

    def test_vectors_accepted_before_a_refusal_are_still_scheduled(
            self, one_worker):
        """An ingest that raises mid-batch still wakes the scheduler for
        the vectors it accepted before the refusal — under the "error"
        policy a lost wakeup would wedge the session for good."""
        from repro.exceptions import StreamOrderError

        vectors = random_vectors(8, seed=43)
        session = make_session(queue_max=4, backpressure="error",
                               scheduler=one_worker)
        with pytest.raises(BackpressureError):
            session.ingest(vectors)
        assert session.accepted == 4
        wait_until(lambda: session.processed == 4)
        late = SparseVector(99, vectors[4].timestamp - 1.0, {1: 1.0})
        with pytest.raises(StreamOrderError):
            session.ingest([vectors[4], late])
        wait_until(lambda: session.processed == 5)
        session.ingest(vectors[5:])
        session.drain()
        pairs, _, _ = session.results.read(0)
        assert pairs == expected_pairs(vectors)[0]
        session.close()

    def test_block_policy_blocks_until_the_worker_catches_up(self):
        vectors = random_vectors(60, seed=47)
        expected, _ = expected_pairs(vectors)
        session = make_session(queue_max=2, backpressure="block",
                               batch_max_items=1)
        session.ingest(vectors)  # must not deadlock
        session.drain()
        pairs, _, _ = session.results.read(0)
        assert pairs == expected
        session.close()

    def test_out_of_order_timestamps_are_rejected_at_ingest(self):
        from repro.exceptions import StreamOrderError

        session = make_session()
        session.ingest([SparseVector(0, 10.0, {1: 1.0})])
        with pytest.raises(StreamOrderError):
            session.ingest([SparseVector(1, 0.0, {1: 1.0})])
        # The session itself is still healthy: order resumes from t=10.
        session.ingest([SparseVector(2, 11.0, {1: 1.0})])
        session.drain()
        assert session.processed == 2
        session.close()

    def test_worker_failure_surfaces_through_status_and_ingest(self):
        def explode(_pair):
            raise RuntimeError("sink disk full")

        config = SessionConfig(name="s", threshold=THETA, decay=DECAY,
                               batch_max_items=1)
        session = JoinSession(config, sinks=[CallbackSink(explode)])
        # Two identical simultaneous vectors force a pair, which makes the
        # sink blow up inside the quantum.
        session.ingest([SparseVector(0, 0.0, {1: 1.0}),
                        SparseVector(1, 0.0, {1: 1.0})])
        with pytest.raises(SessionError):
            session.drain(timeout=10.0)
        assert session.status == "failed"
        assert "sink disk full" in (session.error or "")
        with pytest.raises(SessionError):
            session.ingest([SparseVector(2, 1.0, {1: 1.0})])
        session.close()

    def test_vectors_accepted_behind_a_drain_token_are_still_processed(self):
        """A producer can race drain(): its status check passes before the
        quantum flips the state, leaving accepted vectors queued *behind*
        the drain token.  They were acknowledged, so drain must process
        them rather than silently drop them."""
        vectors = random_vectors(30, seed=107)
        expected, _ = expected_pairs(vectors)
        scheduler = HeldScheduler()
        session = make_session(scheduler=scheduler)
        session.ingest(vectors[:20])
        reply, done = session._enqueue_control("drain")
        session.ingest(vectors[20:])  # accepted behind the drain barrier
        scheduler.release()
        session._await_control(done, reply, 30.0)
        assert reply["processed"] == 30
        pairs, _, _ = session.results.read(0)
        assert pairs == expected
        session.close()

    def test_ingest_after_drain_is_refused(self):
        session = make_session()
        session.ingest(random_vectors(10, seed=53))
        session.drain()
        with pytest.raises(SessionError):
            session.ingest(random_vectors(5, seed=53))
        session.close()

    def test_checkpoint_now_requires_a_checkpoint_path(self):
        session = make_session()
        with pytest.raises(SessionError):
            session.checkpoint_now()
        session.close()

    def test_checkpointing_rejects_non_str_and_sharded_sessions(self, tmp_path):
        with pytest.raises(SessionError):
            JoinSession(SessionConfig(name="mb", threshold=THETA, decay=DECAY,
                                      algorithm="MB-L2"),
                        checkpoint_path=tmp_path / "mb.ckpt")
        with pytest.raises(SessionError):
            JoinSession(SessionConfig(name="sh", threshold=THETA, decay=DECAY,
                                      workers=2),
                        checkpoint_path=tmp_path / "sh.ckpt")

    def test_stats_exposes_counters_and_latency_percentiles(self):
        vectors = random_vectors(40, seed=59)
        session = make_session()
        session.ingest(vectors)
        session.drain()
        stats = session.stats()
        assert stats["processed"] == 40
        assert stats["status"] == "drained"
        assert stats["counters"]["vectors_processed"] == 40
        for key in ("count", "p50_ms", "p95_ms", "p99_ms"):
            assert key in stats["latency"]
        assert stats["latency"]["count"] == 40
        assert stats["sinks"][0]["kind"] == "memory"
        session.close()


class TestRecovery:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_kill_and_resume_matches_uninterrupted_run(self, tmp_path, backend):
        vectors = random_vectors(90, seed=61)
        expected, expected_stats = expected_pairs(vectors, backend=backend)
        ckpt = tmp_path / "s.ckpt"
        config = SessionConfig(name="s", threshold=THETA, decay=DECAY,
                               backend=backend, batch_max_items=8)
        session = JoinSession(config, sinks=[JsonlSink(tmp_path / "p.jsonl")],
                              checkpoint_path=ckpt)
        session.ingest(vectors[:50])
        session.checkpoint_now()
        # Vectors past the checkpoint are lost with the crash; their pairs
        # must be rolled back from the durable sink on resume.
        session.ingest(vectors[50:70])
        session.drain = None  # make accidental use obvious
        session.kill()
        assert session.status == "killed"

        resumed = JoinSession.resume(ckpt)
        assert resumed.processed == 50
        assert resumed.resumed
        resumed.ingest(vectors[resumed.processed:])
        resumed.drain()
        assert read_jsonl_pairs(tmp_path / "p.jsonl") == expected
        assert (counters_without_time(resumed.join.stats.as_dict())
                == counters_without_time(expected_stats.as_dict()))
        resumed.close()

    def test_envelope_with_a_shard_executor_field_still_resumes(self,
                                                                 tmp_path):
        """A config field sessions no longer know (``shard_executor``, in
        older envelopes) is dropped on resume."""
        vectors = random_vectors(60, seed=243)
        expected, _ = expected_pairs(vectors)
        ckpt = tmp_path / "s.ckpt"
        config = SessionConfig(name="s", threshold=THETA, decay=DECAY)
        session = JoinSession(config, sinks=[JsonlSink(tmp_path / "p.jsonl")],
                              checkpoint_path=ckpt)
        session.ingest(vectors[:30])
        session.checkpoint_now()
        session.kill()
        payload = json.loads(ckpt.read_text())
        payload["config"]["shard_executor"] = "serial"
        ckpt.write_text(json.dumps(payload))

        resumed = JoinSession.resume(ckpt)
        assert resumed.config == config
        assert resumed.processed == 30
        resumed.ingest(vectors[30:])
        resumed.drain()
        assert read_jsonl_pairs(tmp_path / "p.jsonl") == expected
        resumed.close()

    def test_checkpoint_write_is_atomic_and_leaves_no_temp_files(self, tmp_path):
        ckpt = tmp_path / "s.ckpt"
        config = SessionConfig(name="s", threshold=THETA, decay=DECAY)
        session = JoinSession(config, checkpoint_path=ckpt)
        session.ingest(random_vectors(30, seed=67))
        session.checkpoint_now()
        session.checkpoint_now()  # overwrite path exercised
        assert ckpt.exists()
        assert list(tmp_path.glob("*.tmp.*")) == []
        payload = json.loads(ckpt.read_text())
        assert payload["service_version"] == 1
        session.close()

    def test_periodic_checkpoints_fire_between_batches(self, tmp_path):
        ckpt = tmp_path / "s.ckpt"
        config = SessionConfig(name="s", threshold=THETA, decay=DECAY,
                               batch_max_items=5, checkpoint_every_items=10)
        session = JoinSession(config, checkpoint_path=ckpt)
        session.ingest(random_vectors(40, seed=71))
        session.drain()
        assert session._checkpointer.checkpoints_written >= 2
        assert json.loads(ckpt.read_text())["processed"] == 40
        session.close()

    def test_drained_session_resumes_as_drained(self, tmp_path):
        ckpt = tmp_path / "s.ckpt"
        config = SessionConfig(name="s", threshold=THETA, decay=DECAY)
        session = JoinSession(config, checkpoint_path=ckpt)
        session.ingest(random_vectors(20, seed=73))
        session.drain()
        session.close()
        resumed = JoinSession.resume(ckpt)
        assert resumed.status == "drained"
        with pytest.raises(SessionError):
            resumed.ingest(random_vectors(5, seed=73))
        resumed.close()

    def test_memory_sink_cursor_base_survives_recovery(self, tmp_path):
        ckpt = tmp_path / "s.ckpt"
        vectors = random_vectors(60, seed=79)
        config = SessionConfig(name="s", threshold=THETA, decay=DECAY)
        session = JoinSession(config, checkpoint_path=ckpt)
        session.ingest(vectors[:40])
        session.checkpoint_now()
        emitted_before = session.results.count
        session.kill()
        resumed = JoinSession.resume(ckpt)
        # Cursors handed to clients before the crash stay valid: the
        # resumed sink continues the sequence instead of restarting at 0.
        assert resumed.results.count == emitted_before
        assert resumed.results.first_retained == emitted_before
        resumed.close()

    def test_kill_waits_out_the_running_quantum(self, tmp_path, one_worker):
        """kill() returns only once the quantum in flight has finished:
        nothing — a periodic checkpoint included — happens after it."""
        entered, release = threading.Event(), threading.Event()

        def slow(_pair):
            entered.set()
            release.wait(10.0)

        config = SessionConfig(name="s", threshold=THETA, decay=DECAY,
                               batch_max_items=1, checkpoint_every_items=1)
        session = JoinSession(config, sinks=[CallbackSink(slow)],
                              checkpoint_path=tmp_path / "s.ckpt",
                              scheduler=one_worker)
        session.ingest([SparseVector(0, 0.0, {1: 1.0}),
                        SparseVector(1, 0.0, {1: 1.0})])
        assert entered.wait(10.0)  # the quantum is blocked in the sink
        written_at_kill = []

        def crash():
            session.kill()
            written_at_kill.append(session._checkpointer.checkpoints_written)

        killer = threading.Thread(target=crash)
        killer.start()
        time.sleep(0.1)
        release.set()
        killer.join(10.0)
        assert written_at_kill and session.status == "killed"
        time.sleep(0.2)
        assert session._checkpointer.checkpoints_written == written_at_kill[0]


class TestJoinServiceDispatch:
    """Drive the dispatcher with plain dictionaries (no sockets)."""

    def test_full_session_lifecycle(self, tmp_path):
        service = JoinService(checkpoint_dir=tmp_path)
        vectors = random_vectors(50, seed=83)
        expected, _ = expected_pairs(vectors)
        response = service.handle({"op": "open", "session": "s1",
                                   "theta": THETA, "decay": DECAY,
                                   "normalize": False})
        assert response["ok"] and not response["resumed"]
        response = service.handle({
            "op": "ingest", "session": "s1",
            "vectors": [encode_vector(vector) for vector in vectors]})
        assert response["ok"] and response["accepted"] == 50
        response = service.handle({"op": "drain", "session": "s1"})
        assert response["ok"] and response["processed"] == 50
        response = service.handle({"op": "results", "session": "s1"})
        assert [pair_from_wire(p) for p in response["pairs"]] == expected
        stats = service.handle({"op": "stats"})
        assert stats["server"]["sessions"] == 1
        assert stats["sessions"]["s1"]["latency"]["count"] == 50
        assert service.handle({"op": "close", "session": "s1"})["ok"]
        assert service.sessions == {}
        service.shutdown()

    def test_open_is_idempotent(self):
        service = JoinService()
        first = service.handle({"op": "open", "session": "s",
                                "theta": THETA, "decay": DECAY})
        second = service.handle({"op": "open", "session": "s",
                                 "theta": 0.9, "decay": 0.5})
        assert not first["existing"] and second["existing"]
        service.shutdown()

    def test_open_with_workers_forks_the_other_partition(self):
        vectors = random_vectors(60, seed=241)
        expected, _ = expected_pairs(vectors)
        service = JoinService()
        try:
            assert service.handle({"op": "open", "session": "s",
                                   "theta": THETA, "decay": DECAY,
                                   "normalize": False, "workers": 2})["ok"]
            join = service.sessions["s"].join
            assert join.executor._procs[1].is_alive()  # partition 1 forked
            service.handle({"op": "ingest", "session": "s",
                            "vectors": [encode_vector(v) for v in vectors]})
            assert service.handle({"op": "drain", "session": "s"})["ok"]
            response = service.handle({"op": "results", "session": "s"})
            assert [pair_from_wire(p) for p in response["pairs"]] == expected
        finally:
            service.shutdown()

    def test_open_fills_unset_fields_from_the_session_config(self):
        service = JoinService()
        try:
            service.handle({"op": "open", "session": "s", "theta": THETA,
                            "decay": DECAY, "backend": None,
                            "queue_max": 64})
            config = service.sessions["s"].config
            assert config == SessionConfig(name="s", threshold=THETA,
                                           decay=DECAY, queue_max=64)
        finally:
            service.shutdown()

    @pytest.mark.parametrize("request_dict,needle", [
        ({"op": "frobnicate"}, "unknown op"),
        ({"op": "ingest", "session": "nope", "vectors": []}, "no session"),
        ({"op": "open", "session": "bad name!", "theta": 0.6, "decay": 0.1},
         "session name"),
        ({"op": "open", "session": "s"}, "decay"),
        ({"op": "drain"}, "session"),
    ])
    def test_bad_requests_return_errors_not_exceptions(self, request_dict,
                                                       needle):
        service = JoinService()
        response = service.handle(request_dict)
        assert response["ok"] is False
        assert needle in response["error"]
        service.shutdown()

    def test_recovery_scan_resumes_checkpointed_sessions(self, tmp_path):
        vectors = random_vectors(40, seed=89)
        service = JoinService(checkpoint_dir=tmp_path)
        service.handle({"op": "open", "session": "s1", "theta": THETA,
                        "decay": DECAY, "checkpoint_every_items": 5,
                        "normalize": False})
        service.handle({"op": "ingest", "session": "s1",
                        "vectors": [encode_vector(v) for v in vectors[:25]]})
        service.handle({"op": "checkpoint", "session": "s1"})
        # Simulate kill -9: drop the service object without closing it.
        for session in service.sessions.values():
            session.kill()

        service.shutdown()

        reborn = JoinService(checkpoint_dir=tmp_path)
        assert reborn.recover_sessions() == ["s1"]
        resumed = reborn.sessions["s1"]
        assert resumed.processed == 25
        reborn.handle({"op": "ingest", "session": "s1",
                       "vectors": [encode_vector(v) for v in vectors[25:]]})
        response = reborn.handle({"op": "drain", "session": "s1"})
        assert response["processed"] == 40
        expected, _ = expected_pairs(vectors)
        # The memory sink only retains post-recovery pairs; check the tail.
        results = reborn.handle({"op": "results", "session": "s1",
                                 "cursor": resumed.results.first_retained})
        tail = [pair_from_wire(p) for p in results["pairs"]]
        assert tail == expected[len(expected) - len(tail):]
        reborn.shutdown()


class TestServiceOverSockets:
    def test_socket_round_trip_and_shutdown(self, tmp_path):
        vectors = random_vectors(60, seed=97)
        expected, _ = expected_pairs(vectors)
        server, recovered = serve(port=0, checkpoint_dir=tmp_path)
        assert recovered == []
        thread = threading.Thread(target=server.serve_until_shutdown,
                                  daemon=True)
        thread.start()
        host, port = server.address
        with ServiceClient(host, port) as client:
            assert client.ping()["pong"]
            client.open_session("s1", theta=THETA, decay=DECAY,
                                normalize=False,
                                sinks=[{"kind": "jsonl",
                                        "path": str(tmp_path / "p.jsonl")}])
            totals = client.ingest("s1", vectors, chunk_size=17)
            assert totals == {"accepted": 60, "dropped": 0, "deduped": 0}
            summary = client.drain("s1")
            assert summary["processed"] == 60
            assert client.results("s1")["pairs"] == expected
            stats = client.stats("s1")
            assert stats["sessions"]["s1"]["pairs_emitted"] == len(expected)
            assert client.shutdown()["ok"]
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert read_jsonl_pairs(tmp_path / "p.jsonl") == expected

    def test_iter_results_follows_until_drained(self):
        vectors = random_vectors(40, seed=101)
        expected, _ = expected_pairs(vectors)
        server, _ = serve(port=0)
        thread = threading.Thread(target=server.serve_until_shutdown,
                                  daemon=True)
        thread.start()
        host, port = server.address
        collected: list[SimilarPair] = []
        with ServiceClient(host, port) as client:
            client.open_session("s", theta=THETA, decay=DECAY,
                                normalize=False)
            client.ingest("s", vectors)
            with ServiceClient(host, port) as drainer:
                drainer.drain("s")
            collected = list(client.iter_results("s"))
            client.shutdown()
        thread.join(timeout=10)
        assert collected == expected


class TestFaultTolerantService:
    """Idempotent ingest, reconnects, injected faults, bounded deadlines."""

    def test_duplicate_batch_is_acked_and_deduped(self):
        vectors = random_vectors(20, seed=211)
        session = make_session()
        assert session.ingest(vectors[:10], seq=0) == (10, 0)
        # Resend of the same batch (its ack was "lost"): acknowledged,
        # nothing re-processed.
        assert session.ingest(vectors[:10], seq=0) == (0, 0)
        assert session.deduped == 10
        # Partial overlap: the already-consumed prefix is trimmed.
        assert session.ingest(vectors[5:15], seq=5) == (5, 0)
        assert session.deduped == 15
        assert session.ingest_seq == 15
        summary = session.drain()
        assert summary["processed"] == 15
        expected, _ = expected_pairs(vectors[:15])
        pairs, _, _ = session.results.read(0)
        assert pairs == expected
        stats = session.stats()
        assert stats["deduped"] == 15 and stats["ingest_seq"] == 15
        session.close()

    def test_sequence_gap_raises_immediately(self):
        session = make_session()
        vectors = random_vectors(10, seed=223)
        session.ingest(vectors[:3], seq=0)
        with pytest.raises(SessionError, match="sequence gap"):
            session.ingest(vectors[5:], seq=5)
        session.close()

    def test_worker_death_carries_the_original_traceback(self):
        def explode(_pair):
            raise RuntimeError("sink disk full")

        config = SessionConfig(name="s", threshold=THETA, decay=DECAY,
                               batch_max_items=1, sink_retries=0)
        session = JoinSession(config, sinks=[CallbackSink(explode)])
        session.ingest([SparseVector(0, 0.0, {1: 1.0}),
                        SparseVector(1, 0.0, {1: 1.0})])
        with pytest.raises(SessionError) as excinfo:
            session.drain(timeout=10.0)
        assert "sink disk full" in (session.error_traceback or "")
        assert "RuntimeError" in (session.error_traceback or "")
        # The service error response forwards it to remote operators.
        service = JoinService()
        service.sessions["s"] = session
        response = service.handle({"op": "results", "session": "s"})
        assert not response["ok"]
        assert "sink disk full" in response.get("traceback", "")
        service.shutdown()

    def test_injected_sink_failure_is_retried_without_loss(self):
        from repro.faults import FaultInjector

        vectors = random_vectors(30, seed=227)
        expected, _ = expected_pairs(vectors)
        config = SessionConfig(name="s", threshold=THETA, decay=DECAY)
        session = JoinSession(
            config, fault_injector=FaultInjector("fail-sink:after=1"))
        session.ingest(vectors)
        session.drain()
        assert session.sink_retried >= 1
        pairs, _, _ = session.results.read(0)
        assert pairs == expected
        session.close()

    def test_periodic_checkpoint_failures_are_tolerated_then_fatal(self):
        from repro.core.checkpoint import PeriodicCheckpointer

        class FakeStats:
            vectors_processed = 0

        class FakeJoin:
            stats = FakeStats()

        join = FakeJoin()
        calls = []

        def broken_save(_join, _path):
            calls.append(1)
            raise OSError("disk full")

        ticker = PeriodicCheckpointer(join, "/nonexistent/cp.json",
                                      every_vectors=1, save=broken_save,
                                      max_consecutive_failures=3)
        join.stats.vectors_processed = 2  # a checkpoint is now due
        assert ticker.tick() is None  # swallowed
        assert ticker.tick() is None  # swallowed, cadence clock not advanced
        with pytest.raises(OSError):
            ticker.tick()             # third consecutive failure propagates
        assert ticker.checkpoint_failures == 3
        assert len(calls) == 3
        assert isinstance(ticker.last_error, OSError)
        with pytest.raises(OSError):
            ticker.tick(force=True)   # explicit requests always tell the truth
        # One successful write heals the consecutive-failure streak.
        ticker._save = lambda _join, path: path
        assert ticker.tick(force=True) is not None
        assert ticker._consecutive_failures == 0

    def test_reconnect_mid_ingest_loses_and_duplicates_nothing(self):
        """The acceptance scenario: the server severs the connection after
        applying an ingest but before acking it.  The client reconnects,
        resends, and sequence numbers turn the resend into a no-op."""
        vectors = random_vectors(60, seed=233)
        expected, _ = expected_pairs(vectors)
        server, _ = serve(port=0, fault_plan="sever-client:after=2")
        thread = threading.Thread(target=server.serve_until_shutdown,
                                  daemon=True)
        thread.start()
        host, port = server.address
        with ServiceClient(host, port, backoff_base=0.01) as client:
            client.open_session("s", theta=THETA, decay=DECAY,
                                normalize=False)
            totals = client.ingest("s", vectors, chunk_size=17)
            assert client.reconnects >= 1
            # Chunk 2 (17 vectors) was applied server-side, its ack lost,
            # and the resend deduplicated — nothing lost, nothing doubled.
            assert totals["deduped"] == 17
            assert totals["accepted"] == 60 - 17
            summary = client.drain("s")
            assert summary["processed"] == 60
            assert client.results("s")["pairs"] == expected
            client.shutdown()
        thread.join(timeout=10)
        injector = server.service.fault_injector
        assert [e["kind"] for e in injector.fired] == ["sever-client"]

    def test_sever_reaches_the_client_while_shard_workers_live(self):
        """Forked shard workers inherit the client socket, so closing it
        alone sends no FIN: the client must still see the sever at once,
        not after its own read timeout."""
        vectors = random_vectors(40, seed=235)
        expected, _ = expected_pairs(vectors, backend="numpy")
        server, _ = serve(port=0, pool_workers=2,
                          fault_plan="sever-client:after=1")
        thread = threading.Thread(target=server.serve_until_shutdown,
                                  daemon=True)
        thread.start()
        host, port = server.address
        with ServiceClient(host, port, timeout=20.0,
                           backoff_base=0.01) as client:
            client.open_session("s", theta=THETA, decay=DECAY,
                                normalize=False, backend="numpy", workers=2)
            start = time.monotonic()
            totals = client.ingest("s", vectors, chunk_size=10)
            assert time.monotonic() - start < 5.0
            assert client.reconnects >= 1 and totals["deduped"] == 10
            client.drain("s")
            assert client.results("s")["pairs"] == expected
            client.shutdown()
        thread.join(timeout=10)

    def test_drain_and_close_are_idempotent_over_the_protocol(self):
        vectors = random_vectors(20, seed=239)
        service = JoinService()
        service.handle({"op": "open", "session": "s", "theta": THETA,
                        "decay": DECAY, "normalize": False})
        service.handle({"op": "ingest", "session": "s",
                        "vectors": [encode_vector(v) for v in vectors]})
        first = service.handle({"op": "drain", "session": "s"})
        again = service.handle({"op": "drain", "session": "s"})
        assert first["ok"] and again["ok"]
        assert again["already_drained"]
        assert again["processed"] == first["processed"] == 20
        closed = service.handle({"op": "close", "session": "s"})
        missing = service.handle({"op": "close", "session": "s"})
        assert closed["ok"] and missing["ok"]
        assert missing.get("missing") is True
        service.shutdown()

    def test_server_read_deadline_disconnects_wedged_clients(self):
        server, _ = serve(port=0, read_timeout=0.3)
        thread = threading.Thread(target=server.serve_until_shutdown,
                                  daemon=True)
        thread.start()
        host, port = server.address
        try:
            with socket.create_connection((host, port), timeout=5.0) as wedged:
                # Send nothing: the read deadline must close the
                # connection instead of holding its slot forever.
                wedged.settimeout(5.0)
                start = time.monotonic()
                assert wedged.recv(1) == b""
                assert time.monotonic() - start < 4.0
            with socket.create_connection((host, port), timeout=5.0) as quiet:
                # Same for a client that was served once, then went quiet.
                quiet.sendall(b'{"op": "ping"}\n')
                stream = quiet.makefile("rb")
                assert json.loads(stream.readline())["pong"]
                assert stream.readline() == b""
            # A well-behaved client still works afterwards.
            with ServiceClient(host, port) as client:
                assert client.ping()["pong"]
                client.shutdown()
        finally:
            thread.join(timeout=10)

    def test_client_retries_then_reports_the_transport_error(self):
        from repro.service import ServiceClientError

        server, _ = serve(port=0)
        thread = threading.Thread(target=server.serve_until_shutdown,
                                  daemon=True)
        thread.start()
        host, port = server.address
        client = ServiceClient(host, port, max_retries=2, backoff_base=0.01)
        assert client.ping()["pong"]
        client.shutdown()
        thread.join(timeout=10)
        with pytest.raises(ServiceClientError, match="after 3 attempt"):
            client.ping()
        client.close()

    def test_open_resyncs_the_client_sequence_counter(self):
        """A restarted client asks the server where the stream stands and
        continues from there instead of double-feeding."""
        vectors = random_vectors(30, seed=241)
        expected, _ = expected_pairs(vectors)
        server, _ = serve(port=0)
        thread = threading.Thread(target=server.serve_until_shutdown,
                                  daemon=True)
        thread.start()
        host, port = server.address
        with ServiceClient(host, port) as first:
            first.open_session("s", theta=THETA, decay=DECAY,
                               normalize=False)
            first.ingest("s", vectors[:20])
        # A brand-new client asks the server where the stream stands
        # (synced into its seq counter by open) and continues from there.
        with ServiceClient(host, port) as second:
            opened = second.open_session("s", theta=THETA, decay=DECAY,
                                         normalize=False)
            assert opened["ingest_seq"] == 20
            # A stale resend of an already-consumed slice (its ack was
            # lost before the restart) is acknowledged, not re-processed:
            response = second.request(
                "ingest", session="s", seq=10,
                vectors=[encode_vector(v) for v in vectors[10:20]])
            assert response["deduped"] == 10 and response["accepted"] == 0
            totals = second.ingest("s", vectors[20:])
            assert totals == {"accepted": 10, "dropped": 0, "deduped": 0}
            summary = second.drain("s")
            assert summary["processed"] == 30
            assert second.results("s")["pairs"] == expected
            second.shutdown()
        thread.join(timeout=10)


# -- the determinism acceptance property --------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    count=st.integers(10, 60),
    batch_max_items=st.integers(1, 16),
    queue_max=st.integers(8, 64),
    backpressure=st.sampled_from(["block", "drop", "error"]),
)
def test_service_is_deterministic_for_any_policy(seed, count, batch_max_items,
                                                 queue_max, backpressure):
    """Any batching/backpressure configuration emits exactly the
    ``streaming_self_join`` pairs (the queue never overflows here, so the
    drop/error policies accept the whole stream)."""
    vectors = random_vectors(count, seed=seed)
    expected, expected_stats = expected_pairs(vectors)
    config = SessionConfig(
        name="h", threshold=THETA, decay=DECAY,
        batch_max_items=batch_max_items,
        queue_max=max(queue_max, count if backpressure != "block" else queue_max),
        backpressure=backpressure)
    session = JoinSession(config)
    session.ingest(vectors)
    session.drain()
    pairs, _, _ = session.results.read(0)
    assert pairs == expected
    assert (counters_without_time(session.join.stats.as_dict())
            == counters_without_time(expected_stats.as_dict()))
    session.close()


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    count=st.integers(20, 70),
    split=st.floats(0.1, 0.9),
    overrun=st.integers(0, 10),
    batch_max_items=st.integers(1, 16),
)
def test_service_recovery_is_deterministic(tmp_path_factory, seed, count,
                                           split, overrun, batch_max_items):
    """Checkpoint mid-stream, process a bit more, crash, resume, re-feed:
    the durable sink ends up with exactly the uninterrupted run's pairs."""
    tmp_path = tmp_path_factory.mktemp("svc")
    vectors = random_vectors(count, seed=seed)
    expected, expected_stats = expected_pairs(vectors)
    split_at = max(1, int(count * split))
    ckpt = tmp_path / "h.ckpt"
    config = SessionConfig(name="h", threshold=THETA, decay=DECAY,
                           batch_max_items=batch_max_items)
    session = JoinSession(config, sinks=[JsonlSink(tmp_path / "p.jsonl")],
                          checkpoint_path=ckpt)
    session.ingest(vectors[:split_at])
    session.checkpoint_now()
    session.ingest(vectors[split_at:split_at + overrun])  # lost in the crash
    session.kill()

    resumed = JoinSession.resume(ckpt)
    assert resumed.processed == split_at
    resumed.ingest(vectors[split_at:])
    resumed.drain()
    assert read_jsonl_pairs(tmp_path / "p.jsonl") == expected
    assert (counters_without_time(resumed.join.stats.as_dict())
            == counters_without_time(expected_stats.as_dict()))
    resumed.close()
