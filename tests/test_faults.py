"""Fault injection, crash recovery and the chaos determinism contract.

The promise under test: a chaos run — real SIGKILLed shard workers,
dropped pipe replies, degrade-to-serial mid-run — still produces
*bitwise identical* results to the fault-free single-process run (same
pairs, similarities, operation counters).  Recovery must also be
bounded: no coordinator call may block past its configured ``recv``
deadline.

Layout mirrors the machinery:

* plan parsing / validation (pure, fast),
* the injector's occurrence counting and exactly-once firing,
* CLI flag validation (exit 2 before any work starts),
* real multiprocess recovery: respawn + deterministic replay, and the
  degrade-to-serial fallback, each pinned to bitwise parity,
* a hypothesis sweep over random kill sites (during append AND during
  scan) on the real process executor.
"""

from __future__ import annotations

import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SparseVector
from repro.core.results import JoinStatistics
from repro.exceptions import InvalidParameterError, ShardWorkerError
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    parse_fault_plan,
)
from repro.shard import ProcessShardExecutor
from tests.groundtruth import engine_pair_map

PARITY_COUNTERS = ("candidates_generated", "candidates_sketch_pruned",
                   "full_similarities",
                   "entries_traversed", "entries_pruned", "entries_indexed",
                   "residual_entries", "reindexings", "reindexed_entries",
                   "pairs_output", "max_index_size", "max_residual_size")


def make_corpus(count=150, seed=17, dims=20):
    import random

    rng = random.Random(seed)
    vectors = []
    timestamp = 0.0
    for index in range(count):
        timestamp += rng.random() * 0.2
        coords = {rng.randrange(dims): rng.uniform(0.05, 1.0)
                  for _ in range(rng.randrange(1, 6))}
        vectors.append(SparseVector(index, timestamp, coords))
    return vectors


def run_chaos(algorithm, vectors, threshold, decay, fault_plan, *,
              workers=2):
    from repro.shard import create_sharded_join

    stats = JoinStatistics()
    with create_sharded_join(algorithm, threshold, decay, workers=workers,
                             stats=stats, backend="numpy",
                             executor="process",
                             fault_plan=fault_plan) as join:
        pairs = {pair.key: pair for pair in join.run(vectors)}
        recovery_events = list(join.recovery_events)
        degraded = join.degraded
    return pairs, stats, recovery_events, degraded


def assert_chaos_parity(algorithm, vectors, threshold, decay, fault_plan):
    expected, expected_stats = engine_pair_map(vectors, threshold, decay,
                                               algorithm=algorithm,
                                               backend="numpy")
    actual, stats, events, degraded = run_chaos(algorithm, vectors, threshold,
                                                decay, fault_plan)
    assert set(actual) == set(expected), fault_plan
    for key, pair in expected.items():
        other = actual[key]
        assert other.similarity == pair.similarity, (fault_plan, key)
        assert other.dot == pair.dot, (fault_plan, key)
        assert other.time_delta == pair.time_delta, (fault_plan, key)
    for counter in PARITY_COUNTERS:
        assert (getattr(stats, counter)
                == getattr(expected_stats, counter)), (fault_plan, counter)
    return events, degraded


class TestFaultPlanParsing:
    def test_round_trip_canonical_spec(self):
        spec = ("kill-worker:shard=1,after=40;exit-in-scan:shard=0,after=3;"
                "delay-reply:shard=1,after=2,ms=250;fail-sink:after=1;"
                "sever-client:after=2;seed=7")
        plan = parse_fault_plan(spec)
        assert parse_fault_plan(plan.spec()) == plan
        assert plan.seed == 7
        assert len(plan.events) == 5
        assert len(plan.worker_events) == 3
        assert len(plan.service_events) == 2

    def test_defaults_and_whitespace(self):
        plan = parse_fault_plan("  kill-worker ;  sever-client : after = 3 ")
        assert plan.events[0] == FaultEvent("kill-worker")
        assert plan.events[0].after == 1
        assert plan.events[1].after == 3

    def test_none_and_empty_disable(self):
        assert parse_fault_plan(None) is None
        assert parse_fault_plan("") is None
        assert parse_fault_plan("   ") is None

    def test_existing_plan_passes_through(self):
        plan = FaultPlan(events=(FaultEvent("kill-worker", after=5),))
        assert parse_fault_plan(plan) is plan

    @pytest.mark.parametrize("spec", [
        "explode",                          # unknown kind
        "kill-worker:after=0",              # after must be >= 1
        "kill-worker:after=soon",           # non-integer
        "kill-worker:ms=5",                 # ms only on delay-reply
        "fail-sink:shard=1",                # service faults take no shard
        "delay-reply:ms=0",                 # ms must be > 0
        "kill-worker:shard",                # key without value
        "seed=7",                           # a seed is not a plan
        "banana=3",                         # stray assignment
        "kill-worker:pid=9",                # unknown key
    ])
    def test_malformed_specs_fail_fast(self, spec):
        with pytest.raises(InvalidParameterError):
            parse_fault_plan(spec)


class TestFaultInjector:
    def test_seeded_shard_pick_is_deterministic(self):
        plans = [parse_fault_plan("kill-worker:after=4;seed=9")
                 for _ in range(2)]
        shards = []
        for plan in plans:
            injector = FaultInjector(plan)
            injector.bind_workers(4)
            shards.append([armed.shard for armed in injector._armed])
        assert shards[0] == shards[1]
        assert all(0 <= shard < 4 for shard in shards[0])

    def test_bind_rejects_out_of_range_shard(self):
        injector = FaultInjector(parse_fault_plan("kill-worker:shard=5"))
        with pytest.raises(InvalidParameterError):
            injector.bind_workers(2)

    def test_kill_fires_exactly_once_at_its_site(self):
        injector = FaultInjector(parse_fault_plan("kill-worker:shard=1,after=3"))
        injector.bind_workers(2)
        assert not injector.worker_kill_due(1, 2)
        assert not injector.worker_kill_due(0, 3)
        assert injector.worker_kill_due(1, 3)
        assert not injector.worker_kill_due(1, 3)
        assert injector.pending == 0

    def test_sink_and_sever_count_occurrences(self):
        injector = FaultInjector(
            parse_fault_plan("fail-sink:after=2;sever-client:after=3"))
        assert [injector.sink_fail_due() for _ in range(3)] == [
            False, True, False]
        assert [injector.client_sever_due() for _ in range(4)] == [
            False, False, True, False]

    def test_worker_events_hand_off_once(self):
        injector = FaultInjector(
            parse_fault_plan("exit-in-scan:shard=0,after=2;"
                             "delay-reply:shard=0,after=5,ms=10"))
        injector.bind_workers(1)
        events = injector.worker_events_for(0)
        assert ("exit-in-scan", 2, 0.0) in events
        assert ("delay-reply", 5, 10.0) in events
        # A respawned worker must come up fault-free.
        assert injector.worker_events_for(0) == []

    def test_write_log_is_json_lines(self, tmp_path):
        import json

        injector = FaultInjector(parse_fault_plan("fail-sink:after=1"))
        injector.sink_fail_due()
        injector.record("recovered", shard=1, attempt=1)
        path = tmp_path / "faults.jsonl"
        injector.write_log(path)
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert [entry["kind"] for entry in entries] == ["fail-sink",
                                                        "recovered"]


class TestCliFaultPlan:
    def run_cli(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_malformed_plan_exits_2(self, capsys):
        code, _, err = self.run_cli(
            capsys, "run", "--profile", "tweets", "--num-vectors", "5",
            "--fault-plan", "explode")
        assert code == 2
        assert "unknown fault kind" in err

    def test_worker_fault_without_workers_exits_2(self, capsys):
        code, _, err = self.run_cli(
            capsys, "run", "--profile", "tweets", "--num-vectors", "5",
            "--fault-plan", "kill-worker")
        assert code == 2
        assert "--workers" in err

    def test_service_fault_on_run_exits_2(self, capsys):
        code, _, err = self.run_cli(
            capsys, "run", "--profile", "tweets", "--num-vectors", "5",
            "--workers", "2", "--fault-plan", "sever-client")
        assert code == 2
        assert "sssj serve" in err

    def test_env_var_is_validated_too(self, capsys, monkeypatch):
        monkeypatch.setenv("SSSJ_FAULT_PLAN", "explode")
        code, _, err = self.run_cli(
            capsys, "run", "--profile", "tweets", "--num-vectors", "5")
        assert code == 2
        assert "SSSJ_FAULT_PLAN" in err

    def test_fault_log_requires_plan(self, capsys):
        code, _, err = self.run_cli(
            capsys, "run", "--profile", "tweets", "--num-vectors", "5",
            "--fault-log", "/tmp/unused.jsonl")
        assert code == 2
        assert "--fault-log requires --fault-plan" in err


class TestCrashRecovery:
    """Real processes, real SIGKILLs, bitwise parity afterwards."""

    def test_recovers_from_coordinator_side_kill(self):
        vectors = make_corpus()
        events, degraded = assert_chaos_parity(
            "STR-L2AP", vectors, 0.5, 0.05, "kill-worker:shard=1,after=40")
        assert not degraded
        assert [event["kind"] for event in events] == ["respawn"]
        assert events[0]["shard"] == 1
        assert events[0]["latency_s"] > 0

    def test_recovers_from_death_during_append(self):
        vectors = make_corpus()
        events, degraded = assert_chaos_parity(
            "STR-L2AP", vectors, 0.5, 0.05,
            "exit-in-append:shard=1,after=60")
        assert not degraded and len(events) == 1

    def test_recovers_from_death_during_scan(self):
        vectors = make_corpus()
        events, degraded = assert_chaos_parity(
            "STR-L2", vectors, 0.5, 0.05, "exit-in-scan:shard=0,after=25")
        assert not degraded and len(events) == 1

    def test_recovers_from_dropped_reply_via_deadline(self, monkeypatch):
        monkeypatch.setattr(ProcessShardExecutor, "RECV_TIMEOUT", 2.0)
        vectors = make_corpus(count=80)
        start = time.monotonic()
        events, degraded = assert_chaos_parity(
            "STR-L2", vectors, 0.5, 0.05, "drop-reply:shard=0,after=10")
        elapsed = time.monotonic() - start
        assert not degraded and len(events) == 1
        assert events[0]["cause"].startswith("shard 0")
        # The deadline fired once (~2s); nothing blocked anywhere near the
        # acceptance ceiling of 10s.
        assert elapsed < 10.0

    def test_degrades_to_serial_when_respawns_exhausted(self, monkeypatch):
        monkeypatch.setattr(ProcessShardExecutor, "MAX_RESPAWNS", 0)
        vectors = make_corpus(count=120)
        events, degraded = assert_chaos_parity(
            "STR-L2AP", vectors, 0.5, 0.05, "kill-worker:shard=1,after=30")
        assert degraded
        assert [event["kind"] for event in events] == ["degrade"]

    def test_two_faults_one_run(self):
        vectors = make_corpus(count=160)
        events, degraded = assert_chaos_parity(
            "STR-L2AP", vectors, 0.5, 0.05,
            "exit-in-scan:shard=0,after=20;kill-worker:shard=1,after=90")
        assert not degraded
        assert [event["kind"] for event in events] == ["respawn", "respawn"]

    def test_recovery_disabled_surfaces_worker_error(self, monkeypatch):
        from repro.shard import create_sharded_join

        monkeypatch.setattr(ProcessShardExecutor, "RECOVERY", False)
        vectors = make_corpus(count=60)
        with pytest.raises(ShardWorkerError) as excinfo:
            with create_sharded_join(
                    "STR-L2", 0.5, 0.05, workers=2, backend="numpy",
                    executor="process",
                    fault_plan="kill-worker:shard=1,after=10") as join:
                for vector in vectors:
                    join.process(vector)
        assert excinfo.value.shard == 1

    def test_close_does_not_hang_on_dead_worker(self, monkeypatch):
        from repro.shard import create_sharded_join

        monkeypatch.setattr(ProcessShardExecutor, "RECV_TIMEOUT", 5.0)
        join = create_sharded_join("STR-L2", 0.6, 0.1, workers=2,
                                   executor="process")
        join.process(SparseVector(0, 0.0, {1: 1.0}))
        executor = join.executor
        os.kill(executor._procs[1].pid, signal.SIGKILL)
        executor._procs[1].join(5)
        start = time.monotonic()
        join.close()
        assert time.monotonic() - start < 10.0
        join.close()  # still idempotent

    def test_serial_executor_rejects_worker_faults(self):
        from repro.shard import create_sharded_join

        with pytest.raises(InvalidParameterError):
            create_sharded_join("STR-L2", 0.5, 0.05, workers=2,
                                executor="serial",
                                fault_plan="kill-worker:after=5")

    def test_faults_require_workers_via_create_join(self):
        from repro.core.join import create_join

        with pytest.raises(InvalidParameterError):
            create_join("STR-L2", 0.5, 0.05,
                        fault_plan="kill-worker:after=5")


class TestRandomKillSites:
    """Hypothesis sweep: any kill site must leave results bitwise intact."""

    CORPUS = None

    @classmethod
    def corpus(cls):
        if cls.CORPUS is None:
            cls.CORPUS = make_corpus(count=70, seed=23, dims=12)
        return cls.CORPUS

    @given(kind=st.sampled_from(["kill-worker", "exit-in-append",
                                 "exit-in-scan"]),
           shard=st.integers(min_value=0, max_value=1),
           after=st.integers(min_value=1, max_value=50))
    @settings(max_examples=6, deadline=None)
    def test_random_kill_site_keeps_bitwise_parity(self, kind, shard, after):
        vectors = self.corpus()
        events, degraded = assert_chaos_parity(
            "STR-L2AP", vectors, 0.5, 0.05,
            f"{kind}:shard={shard},after={after}")
        assert not degraded
        assert [event["kind"] for event in events] == ["respawn"]
