#!/usr/bin/env python
"""End-to-end smoke test of the join service against real server processes.

Run by the CI ``service-smoke`` job (and runnable locally):

    PYTHONPATH=src python scripts/service_smoke.py \
        [--scenario NAME ...] [--fault-log PATH] [--span-log PATH]

Every scenario starts ``sssj serve`` as a subprocess, drives it through
the client CLI and :class:`~repro.service.ServiceClient`, and asserts the
streamed pairs are bitwise identical to the direct engine:

``recovery``
    ingest + drain through the CLI; then half a stream, a forced
    checkpoint, a few more vectors and ``kill -9``; restart, check the
    session resumed at the checkpoint barrier, re-feed with
    ``sssj ingest --resume`` and compare the JSONL sink.  An exact
    session and an ``--approx wminhash:24x3`` STR-L2AP session go
    through the crash together; the approx one is compared with the
    direct engine under the same sketch.
``multitenant``
    20 sessions over 3 tenants on a 4-worker pool with a session
    quota: one tenant bounces off its quota
    (machine-readable, consumes nothing), one session is
    checkpoint-evicted via ``sssj sessions --evict`` and resumed lazily
    by ``sssj ingest --resume``; every JSONL sink is then compared.
``chaos``
    a 2-worker multiprocess session under a fault plan that SIGKILLs one
    shard worker two thirds into the stream and severs the client once
    after an applied ingest: the client reconnects, the resend is
    deduplicated, the worker is respawned and replays the steps before
    the kill; the fault-event log must record all three.
``obs``
    a live Prometheus endpoint, full-rate tracing and a span log: two
    scrapes around a second ingest round must expose the engine,
    scheduler and tenant series and move monotonically; one ``sssj top``
    frame must render; the span log must hold batch and dispatch spans.

``--fault-log`` / ``--span-log`` copy the chaos fault log and the obs
span log to where CI uploads them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.core.join import streaming_self_join  # noqa: E402
from repro.core.results import JoinStatistics  # noqa: E402
from repro.datasets.generator import generate_profile_corpus  # noqa: E402
from repro.datasets.io import read_vectors, write_vectors  # noqa: E402
from repro.service import ServiceClient, read_jsonl_pairs  # noqa: E402

THETA, DECAY = 0.6, 0.0001
APPROX = "wminhash:24x3"
VECTORS = int(os.environ.get("SSSJ_SMOKE_VECTORS", "400"))
CHAOS_VECTORS = 300
MT_VECTORS = int(os.environ.get("SSSJ_SMOKE_MT_VECTORS", "120"))
OBS_VECTORS = int(os.environ.get("SSSJ_SMOKE_OBS_VECTORS", "150"))


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class Server:
    """One ``sssj serve`` subprocess, started with extra flags."""

    def __init__(self, *flags: str) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
            stdout=subprocess.PIPE, text=True, env=_env())
        self.port = self.metrics_url = None
        wants_metrics = "--metrics-port" in flags
        deadline = time.monotonic() + 30
        while self.port is None or (wants_metrics and not self.metrics_url):
            line = self.process.stdout.readline()
            if line:
                print(f"  [serve] {line.rstrip()}")
            if "metrics endpoint on" in line:
                self.metrics_url = line.strip().rsplit(" ", 1)[1]
            elif "listening on" in line:
                self.port = int(line.strip().rsplit(":", 1)[1])
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("server failed to start")

    def client(self, **options) -> ServiceClient:
        return ServiceClient(port=self.port, **options)

    def cli(self, *args: str, expect_failure: bool = False) -> str:
        return run_cli(args[0], "--port", str(self.port), *args[1:],
                       expect_failure=expect_failure)

    def shutdown(self) -> None:
        with self.client() as client:
            client.shutdown()
        self.process.wait(timeout=30)


def run_cli(*args: str, expect_failure: bool = False) -> str:
    result = subprocess.run([sys.executable, "-m", "repro", *args],
                            capture_output=True, text=True, env=_env(),
                            timeout=300)
    if expect_failure:
        if result.returncode == 0:
            raise RuntimeError(f"sssj {' '.join(args)} unexpectedly "
                               f"succeeded:\n{result.stdout}")
        return result.stdout + result.stderr
    if result.returncode != 0:
        raise RuntimeError(
            f"sssj {' '.join(args)} failed ({result.returncode}):\n"
            f"{result.stdout}\n{result.stderr}")
    return result.stdout


def write_stream(path: Path, vectors) -> list:
    """Write vectors as the CLI reads them; return what the reader yields
    (readers normalise, exactly like ``sssj run``)."""
    write_vectors(path, vectors)
    return list(read_vectors(path))


def ingest_args(name: str, source: Path, *extra: str) -> tuple[str, ...]:
    return ("ingest", "--session", name, "--input", str(source),
            "--theta", str(THETA), "--decay", str(DECAY), *extra)


def scenario_recovery(workdir: Path, args) -> None:
    checkpoint_dir = workdir / "checkpoints"
    dataset = workdir / "stream.txt"
    vectors = write_stream(dataset, generate_profile_corpus(
        "hashtags", num_vectors=VECTORS, seed=7))
    expected = list(streaming_self_join(vectors, THETA, DECAY))
    approx_stats = JoinStatistics()
    expected_approx = list(streaming_self_join(
        vectors, THETA, DECAY, algorithm="STR-L2AP", stats=approx_stats,
        approx=APPROX))
    approx_flags = ("--algorithm", "STR-L2AP", "--approx", APPROX)
    print(f"stream: {VECTORS} hashtags vectors, expected {len(expected)} "
          f"pairs (θ={THETA}, λ={DECAY}), {len(expected_approx)} with "
          f"STR-L2AP --approx {APPROX}")
    flags = ("--checkpoint-dir", str(checkpoint_dir),
             "--checkpoint-every", "50")

    print("[1] full ingest through the CLI must match the direct engine")
    server = Server(*flags)
    try:
        sink_a = workdir / "full.jsonl"
        server.cli(*ingest_args("full", dataset, "--sink-jsonl", str(sink_a)))
        print(server.cli("drain", "--session", "full").splitlines()[0])
        streamed = read_jsonl_pairs(sink_a)
        assert streamed == expected, (
            f"streamed {len(streamed)} pairs != direct {len(expected)}")
        print(f"  OK: {len(streamed)} streamed pairs identical to `sssj run`")

        print("[2] half-ingest + checkpoint, then kill -9 "
              "(an exact and an approx session)")
        sink_b = workdir / "recovered.jsonl"
        sink_c = workdir / "recovered-approx.jsonl"
        half = VECTORS // 2
        half_file = workdir / "half.txt"
        write_vectors(half_file, vectors[:half])
        server.cli(*ingest_args("recov", half_file,
                                "--sink-jsonl", str(sink_b)))
        server.cli(*ingest_args("recov-approx", half_file, *approx_flags,
                                "--sink-jsonl", str(sink_c)))
        with server.client() as client:
            for name in ("recov", "recov-approx"):
                client.checkpoint(name)
                # A few post-checkpoint vectors that the crash will eat.
                client.ingest(name, vectors[half:half + 20])
            time.sleep(0.3)
        server.process.send_signal(signal.SIGKILL)
        server.process.wait(timeout=30)
        print("  server killed with SIGKILL")
    except BaseException:
        server.process.kill()
        raise

    print("[3] restart: the session must recover at the checkpoint barrier")
    server = Server(*flags)
    try:
        with server.client() as client:
            for name in ("recov", "recov-approx"):
                stats = client.stats(name)["sessions"][name]
                assert stats["resumed"], (
                    f"session {name} was not resumed from checkpoint")
                processed = stats["processed"]
                assert processed >= half, (
                    f"{name}: checkpoint covers {processed} < ingested {half}")
                print(f"  recovered session {name} covers {processed} vectors")
            assert client.stats("recov-approx")["sessions"]["recov-approx"][
                "approx"] == APPROX
        for name, extra, sink, direct in (
                ("recov", (), sink_b, expected),
                ("recov-approx", approx_flags, sink_c, expected_approx)):
            server.cli(*ingest_args(name, dataset, *extra, "--resume"))
            print(server.cli("drain", "--session", name).splitlines()[0])
            recovered = read_jsonl_pairs(sink)
            assert recovered == direct, (
                f"{name} after recovery: {len(recovered)} pairs != "
                f"direct {len(direct)}")
            print(f"  OK: {name}: {len(recovered)} pairs after kill -9 + "
                  "recovery, identical to the uninterrupted run")
        with server.client() as client:
            pruned = client.stats("recov-approx")["sessions"]["recov-approx"][
                "counters"]["candidates_sketch_pruned"]
        assert pruned == approx_stats.candidates_sketch_pruned > 0, (
            f"approx session pruned {pruned} postings, direct engine "
            f"{approx_stats.candidates_sketch_pruned}")
        print(f"  OK: the approx session's sketch pruned {pruned} postings, "
              "as the direct engine's did")
        server.shutdown()
    except BaseException:
        server.process.kill()
        raise


def scenario_multitenant(workdir: Path, args) -> None:
    tenants = {"acme": 7, "globex": 7, "initech": 6}
    quota, evict_name, evict_tenant = 7, "initech-0", "initech"
    names = [f"{tenant}-{index}" for tenant, count in tenants.items()
             for index in range(count)]
    corpus = generate_profile_corpus(
        "hashtags", num_vectors=MT_VECTORS * len(names), seed=13)
    expected = {}
    for index, name in enumerate(names):
        stream = write_stream(workdir / f"{name}.txt", corpus[
            index * MT_VECTORS:(index + 1) * MT_VECTORS])
        expected[name] = list(streaming_self_join(stream, THETA, DECAY))
        if name == evict_name:
            half_file = workdir / "evict-half.txt"
            write_vectors(half_file, stream[:MT_VECTORS // 2])
    print(f"streams: {len(names)} sessions × {MT_VECTORS} vectors over "
          f"{len(tenants)} tenants")

    server = Server("--checkpoint-dir", str(workdir / "checkpoints"),
                    "--checkpoint-every", "50", "--pool-workers", "4",
                    "--quota-sessions", str(quota))
    try:
        print(f"[1] ingest {len(names)} sessions through the CLI")
        for name in names:
            source = (half_file if name == evict_name
                      else workdir / f"{name}.txt")
            server.cli(*ingest_args(
                name, source, "--tenant", name.rsplit("-", 1)[0],
                "--sink-jsonl", str(workdir / f"{name}.jsonl")))
        listing = server.cli("sessions")
        assert f"{len(names)} session(s)" in listing, listing
        print(f"  OK: {len(names)} sessions live ({evict_name} at "
              "half-stream)")

        print(f"[2] tenant {evict_tenant!r} is capped at {quota} sessions "
              "— the next open must bounce")
        # initech has 6 live sessions; two more would cross its cap of 7.
        server.cli(*ingest_args("initech-extra", half_file,
                                "--tenant", evict_tenant))
        output = server.cli(*ingest_args("initech-overflow", half_file,
                                         "--tenant", evict_tenant),
                            expect_failure=True)
        assert "session quota" in output, output
        with server.client() as client:
            client.close_session("initech-extra")
            rejected = client.stats()["tenants"][evict_tenant]["rejected"]
            assert rejected["sessions"] >= 1, rejected
        print("  OK: quota rejection observed, slot freed by close")

        print(f"[3] checkpoint-evict {evict_name!r}, then resume it via "
              "the CLI")
        evicted = server.cli("sessions", "--evict", evict_name)
        assert "evicted" in evicted, evicted
        with server.client() as client:
            rows = {row["session"]: row
                    for row in client.sessions()["sessions"]}
            assert rows[evict_name]["status"] == "evicted", rows
        server.cli(*ingest_args(evict_name, workdir / f"{evict_name}.txt",
                                "--tenant", evict_tenant, "--resume"))
        with server.client() as client:
            scheduler = client.stats()["scheduler"]
            assert scheduler["evictions"] >= 1, scheduler
            assert scheduler["restores"] >= 1, scheduler
        print("  OK: evicted, then lazily restored on ingest")

        print("[4] drain everything; every JSONL sink must match the "
              "direct engine bitwise")
        with server.client() as client:
            for name in names:
                summary = client.drain(name)
                assert summary["processed"] == MT_VECTORS, (name, summary)
        for name in names:
            streamed = read_jsonl_pairs(workdir / f"{name}.jsonl")
            assert streamed == expected[name], (
                f"{name}: streamed {len(streamed)} pairs != direct "
                f"{len(expected[name])}")
        server.shutdown()
        print(f"  OK: {sum(map(len, expected.values()))} pairs across "
              f"{len(names)} sessions (evicted session included)")
    except BaseException:
        server.process.kill()
        raise


def scenario_chaos(workdir: Path, args) -> None:
    algorithm = "STR-L2AP"
    # Past the first micro-batches (at most 128 vectors each), so the
    # respawned worker has history to replay.
    plan = "kill-worker:shard=1,after=200;sever-client:after=2"
    fault_log = workdir / "fault_events.jsonl"
    vectors = write_stream(workdir / "chaos.txt", generate_profile_corpus(
        "hashtags", num_vectors=CHAOS_VECTORS, seed=7))
    expected = list(streaming_self_join(vectors, THETA, DECAY,
                                        algorithm=algorithm))
    print(f"stream: {CHAOS_VECTORS} vectors, expected {len(expected)} pairs "
          f"({algorithm}); fault plan: {plan}")

    print("[1] sharded session under chaos must match the direct engine")
    server = Server("--fault-plan", plan, "--fault-log", str(fault_log))
    try:
        start = time.monotonic()
        with server.client(backoff_base=0.02) as client:
            client.open_session("chaos", theta=THETA, decay=DECAY,
                                algorithm=algorithm, workers=2,
                                normalize=False,
                                results_capacity=max(65536, 4 * len(expected)))
            totals = client.ingest("chaos", vectors, chunk_size=50)
            summary = client.drain("chaos")
            pairs = list(client.iter_results("chaos"))
            reconnects = client.reconnects
            client.shutdown()
        elapsed = time.monotonic() - start
        server.process.wait(timeout=30)
    except BaseException:
        server.process.kill()
        raise
    assert summary["processed"] == CHAOS_VECTORS, summary
    assert reconnects >= 1, "the sever never forced a reconnect"
    assert totals["deduped"] > 0, f"the resend was not deduplicated: {totals}"
    assert pairs == expected, (
        f"chaos run streamed {len(pairs)} pairs, direct engine produced "
        f"{len(expected)} — the determinism contract is broken")
    print(f"  OK: {len(pairs)} pairs bitwise identical after 1 worker kill "
          f"+ 1 severed connection ({elapsed:.1f}s, reconnects="
          f"{reconnects}, deduped={totals['deduped']})")

    print("[2] the fault-event log must record the injected chaos")
    events = [json.loads(line) for line in fault_log.read_text().splitlines()]
    kinds = [event["kind"] for event in events]
    print(f"  fault log: {kinds}")
    assert "kill-worker" in kinds, "worker kill was never injected"
    assert "sever-client" in kinds, "client sever was never injected"
    assert "recovered" in kinds, "the killed worker was never recovered"
    recovery = next(event for event in events if event["kind"] == "recovered")
    assert recovery["replayed_steps"] > 0, (
        f"the respawned worker replayed no history: {recovery}")
    print(f"  OK: worker {recovery['shard']} recovered in "
          f"{recovery['latency_s'] * 1000:.0f} ms (replayed "
          f"{recovery['replayed_steps']} steps)")
    if args.fault_log:
        shutil.copyfile(fault_log, args.fault_log)


#: Series every healthy scrape of the obs workload must expose.
REQUIRED_SERIES = (
    "sssj_server_requests_total", "sssj_server_sessions",
    "sssj_engine_vectors_processed_total", "sssj_session_queue_depth",
    "sssj_batch_seconds_bucket", "sssj_pool_workers", "sssj_pool_quanta_total",
    "sssj_scheduler_ready_sessions",
    "sssj_scheduler_dispatch_wait_seconds_bucket",
    "sssj_scheduler_drr_deficit", "sssj_tenant_ingested_vectors_total",
)
#: Counters that must strictly grow between the two scrapes.
MONOTONE_SERIES = (
    "sssj_server_requests_total", "sssj_engine_vectors_processed_total",
    "sssj_tenant_ingested_vectors_total", "sssj_pool_vectors_total",
)


def scrape(metrics_url: str) -> tuple[dict[str, float], str]:
    """Fetch the endpoint; sum each metric's samples across labels."""
    with urllib.request.urlopen(metrics_url, timeout=10) as response:
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.read().decode("utf-8")
    totals: dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            sample, value = line.rsplit(" ", 1)
            name = sample.split("{", 1)[0]
            totals[name] = totals.get(name, 0.0) + float(value)
    return totals, text


def scenario_obs(workdir: Path, args) -> None:
    tenants = ("acme", "globex")
    span_log = workdir / "spans.ndjson"
    corpus = generate_profile_corpus(
        "hashtags", num_vectors=OBS_VECTORS * len(tenants) * 2, seed=17)
    slices = {}
    for index, tenant in enumerate(tenants):
        for round_number in (1, 2):
            start = (index * 2 + round_number - 1) * OBS_VECTORS
            slices[tenant, round_number] = path = (
                workdir / f"{tenant}-{round_number}.txt")
            write_vectors(path, corpus[start:start + OBS_VECTORS])

    server = Server("--pool-workers", "2", "--metrics-port", "0",
                    "--trace-sample", "1.0", "--trace-seed", "7",
                    "--span-log", str(span_log), "--slow-batch-ms", "5000")

    def ingest_round(round_number: int, suffix: str) -> None:
        for tenant in tenants:
            server.cli(*ingest_args(f"{tenant}-{suffix}",
                                    slices[tenant, round_number],
                                    "--tenant", tenant))
        with server.client() as client:
            for tenant in tenants:
                client.drain(f"{tenant}-{suffix}")

    try:
        print("[1] ingest round one, then scrape")
        ingest_round(1, "s")
        first, text = scrape(server.metrics_url)
        for series in REQUIRED_SERIES:
            assert series in first, f"scrape is missing {series}"
        for tenant in tenants:
            needle = (f'sssj_tenant_ingested_vectors_total{{tenant='
                      f'"{tenant}"}} {OBS_VECTORS}')
            assert needle in text, f"scrape is missing {needle!r}"
        print(f"  OK: {len(first)} metric families, per-tenant ingest exact")

        print("[2] ingest round two (fresh sessions), scrape again, "
              "assert monotone")
        ingest_round(2, "s2")
        second, _ = scrape(server.metrics_url)
        for series in MONOTONE_SERIES:
            assert second[series] > first[series], (
                series, first[series], second[series])
        assert second["sssj_engine_vectors_processed_total"] == (
            OBS_VECTORS * 2 * len(tenants)), second
        print("  OK: counters moved monotonically")

        print("[3] one sssj top frame against the live server")
        frame = server.cli("top", "--iterations", "1", "--no-clear")
        assert "sssj top" in frame and "TENANT" in frame, frame
        for tenant in tenants:
            assert tenant in frame, frame
        print("  OK: top frame renders tenant and session rows")
        server.shutdown()
    except BaseException:
        server.process.kill()
        raise

    print("[4] the span log must hold well-formed batch/dispatch spans")
    spans = [json.loads(line)
             for line in span_log.read_text().splitlines() if line]
    kinds = {record["span"] for record in spans}
    assert {"batch", "dispatch"} <= kinds, kinds
    for record in spans:
        assert record["dur_ms"] >= 0 and record["ts"] > 0, record
    assert all(record.get("session") for record in spans
               if record["span"] == "batch"), spans
    print(f"  OK: {len(spans)} spans, kinds {sorted(kinds)}")
    if args.span_log:
        shutil.copyfile(span_log, args.span_log)


SCENARIOS = {
    "recovery": scenario_recovery,
    "multitenant": scenario_multitenant,
    "chaos": scenario_chaos,
    "obs": scenario_obs,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scenario", action="append", choices=SCENARIOS,
                        help="run only this scenario (repeatable; "
                             "default: all)")
    parser.add_argument("--fault-log", type=Path, default=None,
                        help="copy the chaos scenario's fault log here")
    parser.add_argument("--span-log", type=Path, default=None,
                        help="copy the obs scenario's span log here")
    args = parser.parse_args()
    for name in args.scenario or list(SCENARIOS):
        workdir = Path(tempfile.mkdtemp(prefix=f"sssj-smoke-{name}-"))
        print(f"\n== {name} ==")
        start = time.monotonic()
        SCENARIOS[name](workdir, args)
        print(f"== {name}: PASS ({time.monotonic() - start:.1f}s)")
    print("\nservice smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
