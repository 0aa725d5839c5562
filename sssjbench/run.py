"""End-to-end benchmark of the streaming similarity self-join.

Run from the root of a checkout::

    python3 sssjbench/run.py --workload engine_steady --seed 1 --seconds 10 --trace 0

It builds the workload's inputs from the seed, computes the exact reference
(cached per input digest, outside every timed region), runs the system
under test, checks every reported pair against the reference, and prints as
its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the seven end-to-end metrics;
``--trace 1`` runs a traced window after an untraced one and reports the
per-layer metrics instead.  Workloads, metrics and design: NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
from common import (END_TO_END, PER_LAYER, THETA, WORKLOADS,  # noqa: E402
                    EngineWorkload, HostProbe, latency_summary, out_dir)

CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: a few hundred vectors")
    return parser.parse_args(argv)


# -- engine and sharded workloads ---------------------------------------------


def run_engine(args, workload: EngineWorkload, probe: HostProbe):
    import inputs
    import reference

    stream, path = inputs.build("hashtags", args.seed, workload.vectors)
    digest = stream.digest()
    print(f"inputs: hashtags seed={args.seed} vectors={len(stream)} "
          f"digest={digest}", flush=True)
    truth = reference.cached(stream, digest, THETA, workload.decay, 0,
                             len(stream))
    out = os.path.join(out_dir("runs"), f"{workload.name}-t{args.trace}.json")
    command = [sys.executable, os.path.join(HERE, "engine.py"), workload.name,
               path, repr(args.seconds), str(args.trace), out]
    if args.tiny:
        command.append("tiny")
    subprocess.run(command, env=common.child_env(), check=True,
                   timeout=CHILD_TIMEOUT_S)
    with open(out) as handle:
        record = json.load(handle)

    exact = workload.approx is None
    checks = list(zip(record["pair_sets"], record["processed"]))
    processed, failed = sum(record["processed"]), record["failed"]
    errors = record["errors"]
    if "trace" in record:
        checks.append((record["trace"]["pairs"], record["trace"]["pairs_upto"]))
        processed += record["trace"]["processed"]
        failed += record["trace"]["failed"]
        errors = errors + record["trace"]["errors"]
    verdicts = [reference.check({(a, b): s for a, b, s in pairs}, truth, THETA,
                                upto=upto)
                for pairs, upto in checks]
    # The workloads are chosen so that no operation fails: any failure or
    # shard recovery makes the run incorrect, however small its share.
    correct = (all(v.ok(exact) for v in verdicts) and failed == 0
               and not errors)
    if exact:
        correct = correct and verdicts[0].recall == 1.0
    for v in verdicts:
        print(f"check: {json.dumps(v.summary())}", flush=True)
    if errors:
        print(f"errors: {len(errors)}; first: {errors[0]}", flush=True)

    attempted = processed + failed
    lat = latency_summary(record["latencies"])
    print(f"latency samples: {lat['samples']} "
          f"(p99 windows: {lat['p99_windows']}, p99 of all samples: "
          f"{lat['p99_all_ms']:.3f} cpu-ms); throughput windows: "
          f"{len(record['rates'])}; wall-clock rate: "
          f"{record['wall_vps']:.1f} vec/s; setups (CPU s): "
          f"{[round(s, 4) for s in record['setups']]}", flush=True)
    print(f"engine process: {json.dumps(record['host'])}; CPU speed "
          f"factors: {json.dumps(record['speed'])}", flush=True)
    metrics = {
        "throughput_vps": median(record["rates"]),
        "latency_p50_ms": lat["p50_ms"],
        "latency_p99_ms": lat["p99_ms"],
        "recall": verdicts[0].recall,
        "ok_share": (attempted - failed) / attempted,
        "setup_s": median(record["setups"]),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    layers = None
    if "trace" in record:
        layers = engine_layers(record, workload, probe)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "layers": layers, "digest": digest}


def engine_layers(record, workload, probe) -> dict:
    trace = record["trace"]
    table = trace["layers"]

    def span(name, key):
        return table.get(name, {}).get(key, 0.0)

    counters = trace["counters"]
    full = counters["full_similarities"]
    traversed = counters["entries_traversed"]
    process_total = span("core.process", "total_s")
    exchange = span("shard.exchange", "total_s")
    untraced_rate = median(record["rates"])
    values = {name: 0.0 for name, _ in PER_LAYER}
    values.update({
        "backends.scan_s": span("backends.scan", "self_s"),
        "backends.filter_s": span("backends.filter", "self_s"),
        "backends.verify_s": span("backends.verify", "self_s"),
        "backends.maintenance_s": span("backends.maintenance", "self_s"),
        "backends.scan_calls": span("backends.scan", "count"),
        "indexes.entries_traversed": traversed,
        "indexes.candidates_generated": counters["candidates_generated"],
        "indexes.full_similarities": full,
        "indexes.entries_pruned": counters["entries_pruned"],
        "indexes.reindexings": counters["reindexings"],
        "indexes.verify_yield": counters["pairs_output"] / full if full else 0.0,
        "indexes.max_index_size": counters["max_index_size"],
        "core.process_s": process_total,
        "core.driver_s": span("core.process", "self_s"),
        "approx.sketch_pruned": counters["candidates_sketch_pruned"],
        "approx.prune_share": (counters["candidates_sketch_pruned"] / traversed
                               if traversed else 0.0),
        "shard.exchange_s": exchange,
        "shard.exchange_calls": span("shard.exchange", "count"),
        "shard.coordinator_s": process_total - exchange if workload.workers else 0.0,
        "shard.max_share": max(trace["shard_shares"] or [0.0]),
        "host.steal_s": probe.steal(),
        "trace.unattributed_s": trace["wall_s"] - trace["root_s"],
        "trace.overhead_share": (1.0 - trace["throughput_vps"] / untraced_rate
                                 if untraced_rate else 0.0),
    })
    return values


# -- the service workload ---------------------------------------------------------


def run_service(args, workload, probe: HostProbe):
    import inputs
    import reference
    import service

    count = workload.tenants * workload.vectors_per_session
    stream, _ = inputs.build("tweets_poisson", args.seed, count)
    digest = stream.digest()
    print(f"inputs: tweets_poisson seed={args.seed} vectors={len(stream)} "
          f"digest={digest}", flush=True)
    per = workload.vectors_per_session
    truths = [reference.cached(stream, digest, THETA, workload.decay,
                               t * per, (t + 1) * per)
              for t in range(workload.tenants)]
    if args.trace:
        record = service.run(workload, stream, args.seconds / 2, 1, THETA)
        spans_out = os.path.join(out_dir("runs"),
                                 f"{workload.name}-t1.spans.ndjson")
        traced = service.run(workload, stream, args.seconds / 2, 1, THETA,
                             span_out=spans_out)
    else:
        record = service.run(workload, stream, args.seconds, 3, THETA)
        traced = None

    verdicts = []
    for run_record in filter(None, (record, traced)):
        for s in run_record["sessions"]:
            reported = {(a, b): v for a, b, v in s["pairs"]}
            verdicts.append(reference.check(reported, truths[s["segment"]],
                                            THETA, upto=s["lo"] + s["sent"]))
    # Requests and vectors of every server run count; no request should
    # fail and every vector sent should be seen processed.
    runs = [r for r in (record, traced) if r is not None]
    attempted = sum(r["requests"] + r["vectors_sent"] for r in runs)
    failed = sum(r["failed_requests"] + r["vectors_sent"] - r["vectors_ok"]
                 for r in runs)
    correct = (all(v.ok(True) and v.recall == 1.0 for v in verdicts)
               and failed == 0)
    found = sum(v.found for v in verdicts)
    expected = sum(v.expected for v in verdicts)
    bad = [v.summary() for v in verdicts if not v.ok(True)]
    print(f"check: sessions={len(verdicts)} expected={expected} "
          f"found={found} failing={bad[:2]} failed_operations={failed}",
          flush=True)

    lat = latency_summary(record["latencies"])
    print(f"phase 1: {record['phase1']}; phase 2: {record['phase2']}, "
          f"latency samples: {lat['samples']} (p99 windows: "
          f"{lat['p99_windows']}, p99 of all samples: "
          f"{lat['p99_all_ms']:.3f} cpu-ms); setups (server CPU s): "
          f"{[round(s, 4) for s in record['setups']]}; CPU speed factors: "
          f"{json.dumps(record['speed'])}", flush=True)
    metrics = {
        "throughput_vps": record["phase1"]["throughput_vps"],
        "latency_p50_ms": lat["p50_ms"],
        "latency_p99_ms": lat["p99_ms"],
        "recall": found / expected if expected else 1.0,
        "ok_share": (attempted - failed) / attempted,
        "setup_s": median(record["setups"]),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    layers = None
    if traced is not None:
        layers = service_layers(record, traced, spans_out, probe)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "layers": layers, "digest": digest}


def service_layers(untraced, traced, spans_out, probe) -> dict:
    """Per-layer numbers of the traced server run.

    Seconds are the server threads' self CPU seconds over both phases: the
    pool workers and the dispatch threads share one interpreter lock, so
    their wall-clock spans overlap and would count waiting for the lock.
    Scheduler waits and ingest round trips are wall-clock times taken in
    Phase 1, the one where sessions queue; results round trips in the
    Phase 2 probe.
    """
    import service
    import spans

    lo, hi = traced["window"]
    table = spans.summarize([row for row in spans.read_spans(spans_out)
                             if lo <= row[3] <= hi])
    saturation = traced["phase1"]["window"]
    with open(spans_out + ".waits.json") as handle:
        waits = service.in_window(json.load(handle), saturation)

    def cpu(name):
        return table.get(name, {}).get("self_cpu_s", 0.0)

    def spans_of(name):
        return table.get(name, {}).get("count", 0)

    counters = traced["counters"]
    full = counters.get("full_similarities", 0)
    ingest_rtt = service.in_window(traced["ingest_rtt"], saturation)
    values = {name: 0.0 for name, _ in PER_LAYER}
    values.update({
        "indexes.entries_traversed": counters.get("entries_traversed", 0),
        "indexes.candidates_generated": counters.get("candidates_generated", 0),
        "indexes.full_similarities": full,
        "indexes.entries_pruned": counters.get("entries_pruned", 0),
        "indexes.reindexings": counters.get("reindexings", 0),
        "indexes.verify_yield": (counters.get("pairs_output", 0) / full
                                 if full else 0.0),
        "indexes.max_index_size": counters.get("max_index_size", 0),
        "core.process_s": cpu("core.process"),
        "core.driver_s": cpu("core.process"),
        "service.ingest_rtt_p50_ms": service.percentile_ms(ingest_rtt, 0.5),
        "service.ingest_rtt_p99_ms": service.percentile_ms(ingest_rtt, 0.99),
        "service.results_rtt_p50_ms": service.percentile_ms(
            service.in_window(traced["results_rtt"],
                              traced["phase2"]["window"]), 0.5),
        "service.decode_s": cpu("service.decode"),
        "service.admit_s": cpu("service.admit"),
        "service.emit_s": cpu("service.emit"),
        "service.requests": traced["requests"],
        "service.failed": traced["failed_requests"],
        "service.reconnects": traced["reconnects"],
        "scheduler.wait_p50_ms": service.percentile_ms(waits, 0.5),
        "scheduler.wait_p99_ms": service.percentile_ms(waits, 0.99),
        "scheduler.quantum_s": cpu("scheduler.quantum"),
        "scheduler.quanta": spans_of("scheduler.quantum"),
        "scheduler.backlog_max": traced["backlog_max"],
        "host.steal_s": probe.steal(),
        "trace.unattributed_s": traced["server_cpu_s"] - sum(
            row["self_cpu_s"] for row in table.values()),
        "trace.overhead_share": 1.0 - (traced["phase1"]["throughput_vps"]
                                       / untraced["phase1"]["throughput_vps"]),
    })
    return values


# -- output ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    src = common.src_dir()
    sys.path.insert(0, src)
    import inputs

    common.pin_to_one_cpu()
    probe = HostProbe()
    inputs.check_canaries()
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = common.tiny(workload)
    if isinstance(workload, EngineWorkload):
        result = run_engine(args, workload, probe)
    else:
        result = run_service(args, workload, probe)
    host = probe.report()
    print(f"host: {json.dumps(host)}", flush=True)
    if args.trace:
        units = dict(PER_LAYER)
        metrics = {name: {"value": result["layers"][name], "unit": units[name]}
                   for name, _ in PER_LAYER}
    else:
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END}
    line = {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}
    saved = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
             "digest": result["digest"], "host": host, **line}
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{int(time.time() * 1e3)}.json"
    with open(os.path.join(out_dir("records"), name), "w") as handle:
        json.dump(saved, handle)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
