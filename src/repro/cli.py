"""Command-line interface.

Installed as the ``sssj`` console script (and reachable as
``python -m repro``).  Sub-commands:

``profiles``
    List the built-in synthetic dataset profiles.
``backends``
    List every known compute backend, whether it can run on this machine
    (and why not when it cannot), and the current default.
``generate``
    Generate a synthetic corpus and write it to a dataset file.
``convert``
    Convert a dataset between the text and binary formats.
``stats``
    Print Table-1 style statistics for a dataset file or profile.
``run``
    Run one algorithm configuration over a dataset and print its metrics.
    ``--workers N`` (or the ``SSSJ_WORKERS`` environment variable) runs
    the sharded parallel engine instead of the single-process one: N
    candidate partitions, each storing every N-th vector.
``profile``
    Run a corpus through a chosen backend and print the per-stage
    (scan / filter / verify / maintenance) time breakdown.
``sweep``
    Run a (θ, λ) grid for one or more algorithms and print the result table.
``experiment``
    Reproduce one of the paper's tables/figures by identifier.
``serve``
    Run the long-running join service (:mod:`repro.service`): named
    sessions over a line-delimited-JSON socket protocol, with periodic
    atomic checkpoints and crash recovery when ``--checkpoint-dir`` is
    given.
``ingest``
    Feed a dataset (file or profile) into a served session, opening it
    on first use; ``--resume`` skips the vectors a recovered session
    already processed.
``results``
    Page through (or ``--follow``) the pairs a session has reported;
    ``--stats`` prints the live counters + latency percentiles instead.
``drain``
    Flush a session (process queue, flush the join, final checkpoint)
    and print its final statistics.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from repro.backends import (
    auto_is_adaptive,
    backend_availability,
    default_backend,
    known_backends,
    probe_backends,
)
from repro.bench.config import LAMBDA_GRID, THETA_GRID, ExperimentScale, default_scale
from repro.bench.experiments import ALL_EXPERIMENTS, run_experiment
from repro.bench.runner import run_algorithm, sweep
from repro.bench.tables import render_table
from repro.datasets.generator import generate_profile_corpus
from repro.datasets.io import convert, read_vectors, write_vectors
from repro.datasets.profiles import PROFILES, available_profiles, get_profile
from repro.datasets.stats import dataset_statistics

__all__ = ["main", "build_parser"]


def _add_approx_args(sub: argparse.ArgumentParser) -> None:
    """The approximate-tier flags shared by ``run``, ``profile``, ``ingest``."""
    sub.add_argument("--approx", default=None, metavar="SPEC",
                     help="enable the approximate prefilter tier: 'minhash' "
                          "or 'wminhash', optionally with geometry as "
                          "'method:BANDSxROWS[:SEED]' (default: exact join, "
                          "or the SSSJ_APPROX environment variable)")
    sub.add_argument("--approx-bands", type=int, default=None, metavar="B",
                     help="override the number of LSH bands (with --approx)")
    sub.add_argument("--approx-rows", type=int, default=None, metavar="R",
                     help="override the signature rows per band (with --approx)")


def _add_fault_args(sub: argparse.ArgumentParser) -> None:
    """The fault-injection flags shared by ``run`` and ``serve``."""
    sub.add_argument("--fault-plan", default=None, metavar="SPEC",
                     help="inject faults for chaos testing: a ';'-separated "
                          "list of events like 'kill-worker:shard=1,after=40' "
                          "or 'sever-client:after=2' (default: "
                          "$SSSJ_FAULT_PLAN, else no faults)")
    sub.add_argument("--fault-log", default=None, metavar="PATH",
                     help="write the injected/observed fault events as JSON "
                          "lines to PATH (with --fault-plan)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``sssj`` command."""
    parser = argparse.ArgumentParser(
        prog="sssj",
        description="Streaming similarity self-join (reproduction of "
                    "De Francisci Morales & Gionis, VLDB 2016).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("profiles", help="list built-in dataset profiles")

    subparsers.add_parser("backends", help="list available compute backends")

    generate = subparsers.add_parser("generate", help="generate a synthetic corpus")
    generate.add_argument("--profile", required=True, choices=available_profiles())
    generate.add_argument("--num-vectors", type=int, default=None)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--output", required=True,
                          help="output path (.txt for text, .bin for binary)")

    converter = subparsers.add_parser("convert", help="convert between text and binary formats")
    converter.add_argument("source")
    converter.add_argument("destination")

    stats = subparsers.add_parser("stats", help="print Table-1 style dataset statistics")
    group = stats.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="dataset file to analyse")
    group.add_argument("--profile", choices=available_profiles())
    stats.add_argument("--num-vectors", type=int, default=None)
    stats.add_argument("--seed", type=int, default=42)

    run = subparsers.add_parser("run", help="run one algorithm configuration")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="dataset file to join")
    source.add_argument("--profile", choices=available_profiles())
    run.add_argument("--num-vectors", type=int, default=None)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--algorithm", default="STR-L2",
                     help="framework-index pair, e.g. STR-L2, MB-INV (default STR-L2)")
    run.add_argument("--theta", type=float, default=0.7, help="similarity threshold")
    run.add_argument("--decay", type=float, default=0.01, help="time-decay rate λ")
    run.add_argument("--backend", default=None,
                     choices=["auto", *known_backends()],
                     help="compute backend for the hot loops (default: auto)")
    run.add_argument("--workers", type=int, default=None,
                     help="run the sharded parallel engine with N candidate "
                          "partitions, each storing every N-th vector (STR "
                          "only; default: single-process, or the "
                          "SSSJ_WORKERS environment variable)")
    _add_approx_args(run)
    _add_fault_args(run)
    run.add_argument("--show-pairs", type=int, default=0,
                     help="print up to N reported pairs")

    profile_cmd = subparsers.add_parser(
        "profile", help="per-stage time breakdown of one algorithm run",
        description="Per-stage time breakdown of one STR run on one pinned "
                    "kernel: --backend, or default_backend() (numpy) "
                    "without it.  This is not the adaptive auto "
                    "join that `sssj run` and sessions use, which starts on "
                    "the python kernel and moves to numpy once its queries' "
                    "gathers pass the measured crossover; pass --backend "
                    "python to profile a small-gather workload as that "
                    "join runs it.")
    profile_source = profile_cmd.add_mutually_exclusive_group(required=True)
    profile_source.add_argument("--input", help="dataset file to join")
    profile_source.add_argument("--profile", choices=available_profiles())
    profile_cmd.add_argument("--num-vectors", type=int, default=None)
    profile_cmd.add_argument("--seed", type=int, default=42)
    profile_cmd.add_argument("--algorithm", default="STR-L2AP",
                             help="framework-index pair (default STR-L2AP)")
    profile_cmd.add_argument("--theta", type=float, default=0.6,
                             help="similarity threshold")
    profile_cmd.add_argument("--decay", type=float, default=0.01,
                             help="time-decay rate λ")
    profile_cmd.add_argument("--backend", default=None,
                             choices=["auto", *known_backends()],
                             help="compute backend to profile (default: auto, "
                                  "i.e. default_backend(), pinned for the "
                                  "whole run)")
    _add_approx_args(profile_cmd)

    sweep_cmd = subparsers.add_parser("sweep", help="run a (θ, λ) grid and print a table")
    sweep_cmd.add_argument("--profile", required=True, choices=available_profiles())
    sweep_cmd.add_argument("--num-vectors", type=int, default=None)
    sweep_cmd.add_argument("--seed", type=int, default=42)
    sweep_cmd.add_argument("--algorithms", default="STR-L2",
                           help="comma-separated list, e.g. STR-L2,MB-L2")
    sweep_cmd.add_argument("--thetas", default=",".join(str(t) for t in THETA_GRID))
    sweep_cmd.add_argument("--decays", default=",".join(str(d) for d in LAMBDA_GRID))
    sweep_cmd.add_argument("--backend", default=None,
                           choices=["auto", *known_backends()],
                           help="compute backend for the hot loops (default: auto)")

    experiment = subparsers.add_parser(
        "experiment", help="reproduce one of the paper's tables/figures")
    experiment.add_argument("experiment_id", choices=sorted(ALL_EXPERIMENTS))
    experiment.add_argument("--scale", type=float, default=1.0,
                            help="multiply the default per-dataset vector counts")
    experiment.add_argument("--seed", type=int, default=42)
    experiment.add_argument("--plot", action="store_true",
                            help="also render the figure as an ASCII chart")

    serve = subparsers.add_parser(
        "serve", help="run the long-running join service")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7788,
                       help="TCP port to listen on (0 picks a free one; "
                            "default 7788)")
    serve.add_argument("--checkpoint-dir", default=None,
                       help="directory for per-session checkpoints; enables "
                            "crash recovery on restart")
    serve.add_argument("--checkpoint-every", type=int, default=500,
                       metavar="N",
                       help="default checkpoint cadence in processed vectors "
                            "(default 500)")
    serve.add_argument("--checkpoint-seconds", type=float, default=None,
                       metavar="S",
                       help="also checkpoint every S seconds of wall clock")
    serve.add_argument("--read-timeout", type=float, default=30.0, metavar="S",
                       help="per-connection socket read deadline in seconds; "
                            "idle or wedged clients are disconnected instead "
                            "of holding a connection slot (default 30, "
                            "0 disables)")
    serve.add_argument("--pool-workers", type=int, default=None, metavar="M",
                       help="worker threads running all sessions' quanta "
                            "(default: one per CPU); quanta share the GIL, "
                            "so more workers add concurrency, not speed")
    serve.add_argument("--dispatch-workers", type=int, default=8, metavar="N",
                       help="request dispatch threads of the selector server "
                            "(default 8)")
    serve.add_argument("--evict-after", type=float, default=None, metavar="S",
                       help="checkpoint-and-evict sessions idle for S "
                            "seconds; they restore lazily on the next "
                            "request (needs --checkpoint-dir)")
    serve.add_argument("--quota-sessions", type=int, default=None, metavar="N",
                       help="per-tenant cap on open sessions")
    serve.add_argument("--quota-queued", type=int, default=None, metavar="N",
                       help="per-tenant cap on queued-but-unprocessed "
                            "vectors")
    serve.add_argument("--quota-rate", type=float, default=None, metavar="R",
                       help="per-tenant sustained ingest rate in vectors/s "
                            "(token bucket)")
    serve.add_argument("--metrics-port", type=int, default=None, metavar="P",
                       help="serve Prometheus text on this HTTP port "
                            "(0 picks a free port; default: off)")
    serve.add_argument("--metrics-host", default="127.0.0.1",
                       help="interface for --metrics-port (default loopback)")
    serve.add_argument("--trace-sample", type=float, default=None,
                       metavar="F",
                       help="emit this fraction of batch-granularity spans "
                            "(0..1, deterministic per seed; default: off)")
    serve.add_argument("--trace-seed", type=int, default=0, metavar="N",
                       help="seed of the deterministic span sampler "
                            "(default 0)")
    serve.add_argument("--span-log", default=None, metavar="PATH",
                       help="append sampled spans to this NDJSON file")
    serve.add_argument("--slow-batch-ms", type=float, default=None,
                       metavar="MS",
                       help="log every span slower than this to stderr "
                            "(measured even when unsampled)")
    _add_fault_args(serve)

    top = subparsers.add_parser(
        "top", help="live per-session/tenant telemetry of a served join")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7788)
    top.add_argument("--interval", type=float, default=2.0, metavar="S",
                     help="seconds between stats polls (default 2)")
    top.add_argument("--iterations", type=int, default=None, metavar="N",
                     help="exit after N frames (default: until Ctrl-C)")
    top.add_argument("--no-clear", action="store_true",
                     help="append frames instead of clearing the screen")

    def add_client_args(sub):
        sub.add_argument("--host", default="127.0.0.1")
        sub.add_argument("--port", type=int, default=7788)
        sub.add_argument("--session", required=True,
                         help="session name on the server")

    ingest = subparsers.add_parser(
        "ingest", help="feed a dataset into a served join session")
    add_client_args(ingest)
    ingest_source = ingest.add_mutually_exclusive_group(required=True)
    ingest_source.add_argument("--input", help="dataset file to ingest")
    ingest_source.add_argument("--profile", choices=available_profiles())
    ingest.add_argument("--num-vectors", type=int, default=None)
    ingest.add_argument("--seed", type=int, default=42)
    ingest.add_argument("--algorithm", default=None,
                        help="algorithm when the session is opened by this "
                             "call (default: the server's session default)")
    ingest.add_argument("--theta", type=float, default=0.7)
    ingest.add_argument("--decay", type=float, default=0.01)
    ingest.add_argument("--backend", default=None,
                        choices=["auto", *known_backends()])
    ingest.add_argument("--workers", type=int, default=None,
                        help="run the session on the sharded engine with N "
                             "candidate partitions (STR only)")
    _add_approx_args(ingest)
    # Unset session options are left out of the ``open`` request, so the
    # server applies SessionConfig's defaults.
    ingest.add_argument("--queue-max", type=int, default=None)
    ingest.add_argument("--batch-max", type=int, default=None,
                        help="micro-batch flush size (items)")
    ingest.add_argument("--backpressure", default=None,
                        choices=["block", "drop", "error"])
    ingest.add_argument("--sink-jsonl", default=None, metavar="PATH",
                        help="also append reported pairs to a JSONL file "
                             "on the server")
    ingest.add_argument("--from", dest="start_at", type=int, default=0,
                        metavar="N", help="skip the first N vectors")
    ingest.add_argument("--resume", action="store_true",
                        help="skip the vectors the session already processed "
                             "(use after a server restart)")
    ingest.add_argument("--chunk-size", type=int, default=500,
                        help="vectors per ingest request (default 500)")
    ingest.add_argument("--tenant", default=None,
                        help="tenant the session belongs to (quota and "
                             "fair-share unit of the multi-tenant server; "
                             "default: the server's session default)")

    results = subparsers.add_parser(
        "results", help="read the pairs a served session has reported")
    add_client_args(results)
    results.add_argument("--cursor", type=int, default=0,
                         help="resume from this result cursor")
    results.add_argument("--limit", type=int, default=None,
                         help="maximum pairs to fetch")
    results.add_argument("--follow", action="store_true",
                         help="keep polling until the session drains")
    results.add_argument("--stats", action="store_true",
                         help="print live counters + latency percentiles "
                              "instead of pairs")

    drain = subparsers.add_parser(
        "drain", help="flush a served session and print final statistics")
    add_client_args(drain)

    sessions = subparsers.add_parser(
        "sessions", help="list the sessions of a running server")
    sessions.add_argument("--host", default="127.0.0.1")
    sessions.add_argument("--port", type=int, default=7788)
    sessions.add_argument("--tenant", default=None,
                          help="only show this tenant's sessions")
    sessions.add_argument("--evict", metavar="SESSION", default=None,
                          help="checkpoint-and-evict this idle session "
                               "before listing (multi-tenant server only)")

    return parser


#: How to turn each figure experiment's rows into a chart (group, x, y, log-x).
_CHART_SPECS: dict[str, tuple[str, str, str, bool]] = {
    "figure2": ("dataset", "tau", "ratio", True),
    "figure3": ("algorithm", "theta", "time_s", False),
    "figure4": ("algorithm", "theta", "time_s", False),
    "figure5": ("indexing", "theta", "time_s", False),
    "figure6": ("indexing", "theta", "entries", False),
    "figure7": ("dataset", "lambda", "time_s", True),
    "figure8": ("dataset", "theta", "time_s", False),
}


def _load_vectors(args: argparse.Namespace):
    if getattr(args, "input", None):
        return list(read_vectors(args.input)), args.input
    vectors = generate_profile_corpus(
        args.profile, num_vectors=args.num_vectors, seed=args.seed
    )
    return vectors, args.profile


def _cmd_profiles(_args: argparse.Namespace) -> int:
    rows = []
    for name in available_profiles():
        profile = PROFILES[name]
        rows.append({
            "profile": name,
            "vectors": profile.num_vectors,
            "vocabulary": profile.vocabulary_size,
            "avg_nnz": profile.avg_nnz,
            "arrivals": profile.arrival_process,
            "description": profile.description,
        })
    print(render_table(rows, title="Built-in dataset profiles"))
    return 0


def _cmd_backends(_args: argparse.Namespace) -> int:
    default = default_backend()
    rows = []
    for info in probe_backends():
        rows.append({
            "backend": info["name"],
            "available": "yes" if info["available"] else "NO",
            "default": "yes" if info["name"] == default else "",
            "description": info["description"],
            "reason": info["reason"] or "",
        })
    print(render_table(rows, title="Compute backends (select with --backend "
                                   "or the SSSJ_BACKEND environment variable)"))
    if auto_is_adaptive() and default != "python":
        from repro.core.frameworks.streaming import AUTO_SWITCH_POSTINGS

        print(f"auto: STR joins start on python and move to {default} once "
              f"their queries average {AUTO_SWITCH_POSTINGS} postings; "
              f"MiniBatch and sharded joins run {default}")
    return 0


def _require_backend(backend: str | None) -> str | None:
    """Why an explicitly requested backend cannot run here, or ``None``.

    Library entry points degrade gracefully (:func:`repro.backends.get_backend`
    falls back with a warning so sessions and restored checkpoints keep
    working), but an explicit ``--backend`` on the command line should fail
    fast instead of silently measuring a different backend.
    """
    if backend is None:
        return None
    available, reason = backend_availability(backend)
    if available:
        return None
    return f"--backend {backend}: {reason}"


def _cmd_generate(args: argparse.Namespace) -> int:
    vectors = generate_profile_corpus(args.profile, num_vectors=args.num_vectors,
                                      seed=args.seed)
    count = write_vectors(args.output, vectors)
    print(f"wrote {count} vectors of profile '{args.profile}' to {args.output}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    count = convert(args.source, args.destination)
    print(f"converted {count} vectors from {args.source} to {args.destination}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    vectors, name = _load_vectors(args)
    timestamp_type = "file"
    if getattr(args, "profile", None):
        timestamp_type = get_profile(args.profile).arrival_process
    stats = dataset_statistics(vectors, name=str(name), timestamp_type=timestamp_type)
    print(render_table([stats.as_row()], title="Dataset statistics"))
    return 0


def _workers_from_env() -> int | None:
    """Parse ``SSSJ_WORKERS`` (0/empty → single-process), or fail cleanly.

    Parsed only where the value matters (the ``run`` command), so a
    malformed variable cannot take down unrelated subcommands.
    """
    raw = os.environ.get("SSSJ_WORKERS", "").strip()
    if not raw:
        return None
    try:
        workers = int(raw)
    except ValueError:
        raise SystemExit(
            f"SSSJ_WORKERS={raw!r} is not an integer") from None
    if workers < 0:
        raise SystemExit(f"SSSJ_WORKERS must be >= 0, got {workers}")
    return workers or None


def _validate_workers(algorithm: str, workers: int | None) -> str | None:
    """Why ``--workers`` cannot apply, or ``None`` when it can.

    The sharded engine parallelises the STR framework only; validated
    here — before any dataset is loaded — so the user gets a clear error
    immediately instead of a help-text footnote and a late crash.
    """
    if workers is None:
        return None
    if workers < 1:
        return f"--workers must be >= 1, got {workers}"
    from repro.core.join import parse_algorithm
    from repro.exceptions import UnknownAlgorithmError

    try:
        framework, _ = parse_algorithm(algorithm)
    except UnknownAlgorithmError as error:
        return str(error)
    if framework != "STR":
        return (f"--workers runs the sharded engine, which supports the STR "
                f"framework only (got {algorithm!r}); drop --workers or use "
                f"e.g. STR-{algorithm.split('-', 1)[-1].upper()}")
    return None


def _resolve_approx(args: argparse.Namespace) -> tuple[str | None, str | None]:
    """Resolve the approx spec from the flags or ``SSSJ_APPROX``.

    Returns ``(canonical_spec_or_None, error_or_None)``.  Like
    :func:`_workers_from_env`, the environment variable is only consulted
    by the subcommands that carry the flags, so a malformed value cannot
    take down unrelated subcommands.
    """
    from repro.approx import APPROX_ENV_VAR, parse_approx
    from repro.exceptions import InvalidParameterError

    value = args.approx
    source = "--approx"
    if value is None:
        value = os.environ.get(APPROX_ENV_VAR, "").strip() or None
        source = APPROX_ENV_VAR
    try:
        config = parse_approx(value, bands=args.approx_bands,
                              rows=args.approx_rows)
    except InvalidParameterError as error:
        if source == APPROX_ENV_VAR and value is not None:
            return None, f"{APPROX_ENV_VAR}={value!r}: {error}"
        return None, str(error)
    return (config.spec() if config is not None else None), None


def _validate_approx(algorithm: str, approx: str | None,
                     workers: int | None) -> str | None:
    """Why the approximate tier cannot apply, or ``None`` when it can.

    Mirrors :func:`_validate_workers`: scheme and engine conflicts are
    rejected here, before any dataset is loaded or session opened.
    """
    if approx is None:
        return None
    if workers is not None:
        return ("the approximate tier is not supported by the sharded "
                "engine; drop either --approx or --workers")
    from repro.core.join import parse_algorithm
    from repro.exceptions import UnknownAlgorithmError

    try:
        _, index = parse_algorithm(algorithm)
    except UnknownAlgorithmError as error:
        return str(error)
    if index == "INV":
        return ("--approx requires a prefix-filter scheme (AP, L2, L2AP); "
                f"the INV schemes have no prefilter stage (got {algorithm!r})")
    return None


def _resolve_fault_plan(args: argparse.Namespace):
    """Resolve the fault plan from ``--fault-plan`` or ``SSSJ_FAULT_PLAN``.

    Returns ``(FaultPlan_or_None, error_or_None)``.  Mirrors
    :func:`_resolve_approx`: malformed specs fail fast (exit 2 in the
    callers) before any dataset is loaded or worker spawned, and the
    environment variable is only consulted by subcommands carrying the
    flag.
    """
    from repro.exceptions import InvalidParameterError
    from repro.faults import FAULT_PLAN_ENV_VAR, parse_fault_plan

    value = args.fault_plan
    source = "--fault-plan"
    if value is None:
        value = os.environ.get(FAULT_PLAN_ENV_VAR, "").strip() or None
        source = FAULT_PLAN_ENV_VAR
    try:
        plan = parse_fault_plan(value)
    except InvalidParameterError as error:
        if source == FAULT_PLAN_ENV_VAR and value is not None:
            return None, f"{FAULT_PLAN_ENV_VAR}={value!r}: {error}"
        return None, str(error)
    if plan is None and args.fault_log is not None:
        return None, "--fault-log requires --fault-plan (or $SSSJ_FAULT_PLAN)"
    return plan, None


def _validate_fault_plan(plan, workers: int | None) -> str | None:
    """Why a ``sssj run`` fault plan cannot apply, or ``None`` when it can.

    ``sssj serve`` accepts every event kind (worker faults arm when a
    session opens with workers; sink/sever faults arm at the service
    layer), so only the batch command needs this gate.
    """
    if plan is None:
        return None
    if plan.service_events:
        kinds = ", ".join(sorted({e.kind for e in plan.service_events}))
        return (f"fault kind(s) {kinds} target the service layer; use them "
                "with 'sssj serve', not 'sssj run'")
    if workers is None:
        return ("worker fault injection requires the sharded engine; "
                "add --workers N")
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    workers = args.workers if args.workers is not None else _workers_from_env()
    error = _require_backend(args.backend)
    if error is None:
        error = _validate_workers(args.algorithm, workers)
    if error is None:
        approx, error = _resolve_approx(args)
    if error is None:
        error = _validate_approx(args.algorithm, approx, workers)
    if error is None:
        fault_plan, error = _resolve_fault_plan(args)
    if error is None:
        error = _validate_fault_plan(fault_plan, workers)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    injector = None
    if fault_plan is not None:
        from repro.faults import FaultInjector

        injector = FaultInjector(fault_plan)
    vectors, name = _load_vectors(args)
    metrics = run_algorithm(args.algorithm, vectors, args.theta, args.decay,
                            dataset=str(name), backend=args.backend,
                            workers=workers, approx=approx,
                            fault_plan=injector)
    if injector is not None:
        fired = ", ".join(sorted({e["kind"] for e in injector.log})) or "none"
        print(f"fault plan {fault_plan.spec()!r}: events fired/observed: "
              f"{fired}")
        if args.fault_log:
            injector.write_log(args.fault_log)
            print(f"fault event log written to {args.fault_log}")
    print(render_table([metrics.as_row()], title=f"Run: {args.algorithm} on {name}"))
    if args.show_pairs > 0:
        from repro.core.join import create_join

        join = create_join(args.algorithm, args.theta, args.decay,
                           backend=args.backend, approx=approx)
        shown = 0
        for pair in join.run(vectors):
            print(f"  pair {pair.id_a} ~ {pair.id_b}  sim={pair.similarity:.4f} "
                  f"Δt={pair.time_delta:.3f}")
            shown += 1
            if shown >= args.show_pairs:
                break
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import time

    from repro.backends import get_backend
    from repro.backends.profiling import ProfilingKernel
    from repro.core.join import create_join

    if not args.algorithm.upper().startswith("STR-"):
        # MB rebuilds a throw-away batch index per window; sharing one
        # profiled kernel instance across those indexes would violate the
        # per-index kernel contract (and leak interned state).
        print("sssj profile supports the STR framework "
              f"(got {args.algorithm!r}); use e.g. STR-L2AP", file=sys.stderr)
        return 2
    error = _require_backend(args.backend)
    if error is None:
        approx, error = _resolve_approx(args)
    if error is None:
        error = _validate_approx(args.algorithm, approx, None)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    from repro.bench.metrics import LatencyStats

    vectors, name = _load_vectors(args)
    kernel = ProfilingKernel(get_backend(args.backend)())
    join = create_join(args.algorithm, args.theta, args.decay, backend=kernel,
                       approx=approx)
    latency = LatencyStats()
    start = time.perf_counter()
    pairs = 0
    for vector in vectors:
        item_start = time.perf_counter()
        pairs += len(join.process(vector))
        latency.record(time.perf_counter() - item_start)
    pairs += len(join.flush())
    elapsed = time.perf_counter() - start
    print(render_table(
        kernel.report_rows(elapsed),
        title=(f"Per-stage breakdown: {args.algorithm} on {name} "
               f"({kernel.name}, θ={args.theta}, λ={args.decay})"),
    ))
    stats = join.stats
    print(render_table(
        [{
            "entries_indexed": stats.entries_indexed,
            "entries_traversed": stats.entries_traversed,
            "entries_pruned": stats.entries_pruned,
            "candidates_generated": stats.candidates_generated,
            "candidates_sketch_pruned": stats.candidates_sketch_pruned,
            "full_similarities": stats.full_similarities,
            "pairs_output": stats.pairs_output,
        }],
        title="Operation counters (pruning effectiveness: "
              "entries_pruned / entries_traversed)",
    ))
    print(render_table(
        [latency.summary()],
        title="Per-item latency percentiles (same row as the service "
              "'stats' endpoint)",
    ))
    throughput = len(vectors) / elapsed if elapsed else 0.0
    print(f"total {elapsed:.2f}s for {len(vectors)} vectors "
          f"({throughput:,.0f} vectors/s), {pairs} pairs")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    error = _require_backend(args.backend)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    algorithms = [token.strip() for token in args.algorithms.split(",") if token.strip()]
    thetas = tuple(float(token) for token in args.thetas.split(",") if token)
    decays = tuple(float(token) for token in args.decays.split(",") if token)
    scale = default_scale()
    if args.num_vectors is not None:
        counts = dict(scale.vector_counts)
        counts[args.profile] = args.num_vectors
        scale = ExperimentScale(vector_counts=counts, thetas=thetas, decays=decays,
                                seed=args.seed)
    else:
        scale = ExperimentScale(vector_counts=dict(scale.vector_counts), thetas=thetas,
                                decays=decays, seed=args.seed)
    results = sweep(algorithms, [args.profile], scale, backend=args.backend)
    print(render_table([metrics.as_row() for metrics in results],
                       title=f"Sweep on {args.profile}"))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    base = default_scale()
    counts = {name: max(50, int(count * args.scale))
              for name, count in base.vector_counts.items()}
    scale = ExperimentScale(vector_counts=counts, seed=args.seed)
    result = run_experiment(args.experiment_id, scale)
    print(result.render())
    if args.plot and args.experiment_id in _CHART_SPECS:
        from repro.bench.plotting import chart_from_series

        group, x, y, log_x = _CHART_SPECS[args.experiment_id]
        print()
        print(chart_from_series(result.rows, group=group, x=x, y=y, log_x=log_x,
                                title=f"{args.experiment_id}: {y} vs {x} (by {group})"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    fault_plan, error = _resolve_fault_plan(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.pool_workers is not None and args.pool_workers <= 0:
        print("--pool-workers must be positive", file=sys.stderr)
        return 2
    if args.evict_after is not None and not args.checkpoint_dir:
        print("--evict-after needs --checkpoint-dir (eviction is "
              "checkpoint-backed)", file=sys.stderr)
        return 2
    from repro.service import TenantQuota

    scheduler_options = {
        "default_quota": TenantQuota(
            max_sessions=args.quota_sessions,
            max_queued=args.quota_queued,
            rate=args.quota_rate),
        "evict_after": args.evict_after,
    }
    server, recovered = serve(
        host=args.host, port=args.port,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every_items=args.checkpoint_every,
        checkpoint_every_seconds=args.checkpoint_seconds,
        read_timeout=args.read_timeout if args.read_timeout > 0 else None,
        fault_plan=fault_plan,
        pool_workers=args.pool_workers,
        scheduler_options=scheduler_options,
        dispatch_workers=args.dispatch_workers,
        metrics_port=args.metrics_port,
        metrics_host=args.metrics_host,
        trace_sample=args.trace_sample,
        span_log=args.span_log,
        slow_batch_ms=args.slow_batch_ms,
        trace_seed=args.trace_seed,
    )
    host, port = server.address
    metrics_server = getattr(server, "obs_metrics_server", None)
    if metrics_server is not None:
        m_host, m_port = metrics_server.address
        print(f"metrics endpoint on http://{m_host}:{m_port}/metrics",
              flush=True)
    knobs = f"pool={server.service.pool.workers}"
    if args.evict_after is not None:
        knobs += f" evict_after={args.evict_after:g}s"
    print(f"multi-tenant scheduler enabled ({knobs})", flush=True)
    if recovered:
        print(f"recovered sessions from {args.checkpoint_dir}: "
              + ", ".join(recovered), flush=True)
    if fault_plan is not None:
        print(f"fault plan armed: {fault_plan.spec()}", flush=True)
    # The scripts that babysit the server (CI smoke, examples) parse this
    # line for the resolved port, so keep its shape stable.
    print(f"sssj service listening on {host}:{port}", flush=True)
    server.serve_until_shutdown()
    injector = server.service.fault_injector
    if injector is not None and args.fault_log:
        injector.write_log(args.fault_log)
        print(f"fault event log written to {args.fault_log}", flush=True)
    print("sssj service stopped", flush=True)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import run_top
    from repro.service import ServiceClientError

    if args.interval <= 0:
        print("--interval must be positive", file=sys.stderr)
        return 2
    if args.iterations is not None and args.iterations <= 0:
        print("--iterations must be positive", file=sys.stderr)
        return 2
    try:
        return run_top(args.host, args.port, interval=args.interval,
                       iterations=args.iterations,
                       clear=False if args.no_clear else None)
    except ServiceClientError as error:
        print(f"top failed: {error}", file=sys.stderr)
        return 1


def _client_for(args: argparse.Namespace):
    from repro.service import ServiceClient

    return ServiceClient(args.host, args.port)


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.service import ServiceClientError, SessionConfig

    algorithm = args.algorithm or SessionConfig.algorithm
    error = _require_backend(args.backend)
    if error is None:
        error = _validate_workers(algorithm, args.workers)
    if error is None:
        approx, error = _resolve_approx(args)
    if error is None:
        error = _validate_approx(algorithm, approx, args.workers)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    vectors, name = _load_vectors(args)
    options = {
        "algorithm": args.algorithm,
        "backend": args.backend,
        "workers": args.workers,
        "approx": approx,
        "queue_max": args.queue_max,
        "batch_max_items": args.batch_max,
        "backpressure": args.backpressure,
        "tenant": args.tenant,
        # Dataset readers/generators already unit-normalise; skipping the
        # server-side re-normalisation keeps the streamed values bitwise
        # identical to what `sssj run` would process.
        "normalize": False,
    }
    open_options = {key: value for key, value in options.items()
                    if value is not None}
    if args.sink_jsonl:
        open_options["sinks"] = [{"kind": "jsonl", "path": args.sink_jsonl}]
    try:
        with _client_for(args) as client:
            opened = client.open_session(args.session, theta=args.theta,
                                         decay=args.decay, **open_options)
            start_at = args.start_at
            if args.resume:
                start_at = max(start_at, int(opened.get("processed", 0)))
            if opened.get("resumed"):
                print(f"session {args.session!r} resumed from checkpoint "
                      f"({opened.get('processed', 0)} vectors already "
                      f"processed)")
            totals = client.ingest(args.session, vectors[start_at:],
                                   chunk_size=args.chunk_size)
    except ServiceClientError as error:
        print(f"ingest failed: {error}", file=sys.stderr)
        return 1
    print(f"ingested {totals['accepted']} vectors of {name} into session "
          f"{args.session!r} (skipped {start_at}, dropped {totals['dropped']})")
    return 0


def _print_session_stats(response: dict) -> None:
    for name, stats in response.get("sessions", {}).items():
        counters = stats.pop("counters", {})
        latency = stats.pop("latency", {})
        sinks = stats.pop("sinks", [])
        print(render_table([stats], title=f"Session {name!r}"))
        print(render_table([latency],
                           title="Per-item ingest latency percentiles (ms)"))
        print(render_table([counters], title="Operation counters"))
        if sinks:
            print(render_table(sinks, title="Sinks"))


def _cmd_results(args: argparse.Namespace) -> int:
    from repro.service import ServiceClientError

    try:
        with _client_for(args) as client:
            if args.stats:
                _print_session_stats(client.stats(args.session))
                return 0
            shown = 0
            if args.follow:
                for pair in client.iter_results(args.session,
                                                cursor=args.cursor,
                                                timeout=None):
                    print(f"pair {pair.id_a} ~ {pair.id_b}  "
                          f"sim={pair.similarity:.4f} Δt={pair.time_delta:.3f}")
                    shown += 1
                    if args.limit is not None and shown >= args.limit:
                        break
            else:
                response = client.results(args.session, cursor=args.cursor,
                                          limit=args.limit)
                for pair in response["pairs"]:
                    print(f"pair {pair.id_a} ~ {pair.id_b}  "
                          f"sim={pair.similarity:.4f} Δt={pair.time_delta:.3f}")
                    shown += 1
                print(f"-- {shown} pairs, next cursor {response['cursor']}, "
                      f"session {response['status']}")
    except ServiceClientError as error:
        print(f"results failed: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_sessions(args: argparse.Namespace) -> int:
    from repro.service import ServiceClientError

    try:
        with _client_for(args) as client:
            if args.evict:
                evicted = client.evict(args.evict)
                if evicted.get("already_evicted"):
                    print(f"session {args.evict!r} was already evicted")
                else:
                    print(f"session {args.evict!r} evicted "
                          f"(checkpoint {evicted.get('checkpoint')})")
            response = client.sessions(args.tenant)
    except ServiceClientError as error:
        print(f"sessions failed: {error}", file=sys.stderr)
        return 1
    rows = response.get("sessions", [])
    if not rows:
        scope = f" for tenant {args.tenant!r}" if args.tenant else ""
        print(f"no sessions{scope}")
        return 0
    print(render_table(rows, title=f"{len(rows)} session(s)"))
    return 0


def _cmd_drain(args: argparse.Namespace) -> int:
    from repro.service import ServiceClientError

    try:
        with _client_for(args) as client:
            summary = client.drain(args.session)
            print(f"session {args.session!r} drained: "
                  f"{summary.get('processed', 0)} vectors processed, "
                  f"{summary.get('pairs_emitted', 0)} pairs emitted"
                  + (f", checkpoint {summary['checkpoint']}"
                     if summary.get("checkpoint") else ""))
            _print_session_stats(client.stats(args.session))
    except ServiceClientError as error:
        print(f"drain failed: {error}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "profiles": _cmd_profiles,
    "backends": _cmd_backends,
    "generate": _cmd_generate,
    "convert": _cmd_convert,
    "stats": _cmd_stats,
    "run": _cmd_run,
    "profile": _cmd_profile,
    "sweep": _cmd_sweep,
    "experiment": _cmd_experiment,
    "serve": _cmd_serve,
    "top": _cmd_top,
    "ingest": _cmd_ingest,
    "results": _cmd_results,
    "sessions": _cmd_sessions,
    "drain": _cmd_drain,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``sssj`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
