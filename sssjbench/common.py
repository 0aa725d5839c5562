"""Constants, workload definitions and host diagnostics shared by the benchmark.

Every number that defines a workload lives here, so a change to a workload
is a change to this file and nothing else.  The benchmark is run from the
root of a checkout (``python3 sssjbench/run.py ...``); the code under test
is imported from ``./src``, never from an installed copy.
"""

from __future__ import annotations

import math
import os
import resource
import sys
import time
from dataclasses import dataclass, replace
from statistics import median

#: Similarity threshold of every workload.
THETA = 0.6

#: Output directory (inside the checkout) for caches, run records, span logs.
OUT_DIR = ".sssjbench"

#: Names of the seven end-to-end metrics and their units, in print order.
#: Throughput and latency are taken on the CPU clock of the system under
#: test (see ``task_cpu_ns``), hence their units; set-up time too.  All
#: are scaled to the reference CPU speed of ``yardstick.py``.
END_TO_END = (
    ("throughput_vps", "vec/cpu-s"),
    ("latency_p50_ms", "cpu-ms"),
    ("latency_p99_ms", "cpu-ms"),
    ("recall", "ratio"),
    ("ok_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: Per-layer metrics of the traced run, by layer, with units.
PER_LAYER = (
    ("backends.scan_s", "s"), ("backends.filter_s", "s"),
    ("backends.verify_s", "s"), ("backends.maintenance_s", "s"),
    ("backends.scan_calls", "count"),
    ("indexes.entries_traversed", "count"),
    ("indexes.candidates_generated", "count"),
    ("indexes.full_similarities", "count"),
    ("indexes.entries_pruned", "count"), ("indexes.reindexings", "count"),
    ("indexes.verify_yield", "ratio"), ("indexes.max_index_size", "count"),
    ("core.process_s", "s"), ("core.driver_s", "s"),
    ("approx.sketch_pruned", "count"), ("approx.prune_share", "ratio"),
    ("shard.exchange_s", "s"), ("shard.exchange_calls", "count"),
    ("shard.coordinator_s", "s"), ("shard.max_share", "ratio"),
    ("service.ingest_rtt_p50_ms", "ms"), ("service.ingest_rtt_p99_ms", "ms"),
    ("service.results_rtt_p50_ms", "ms"), ("service.decode_s", "s"),
    ("service.admit_s", "s"), ("service.emit_s", "s"),
    ("service.requests", "count"), ("service.failed", "count"),
    ("service.reconnects", "count"),
    ("scheduler.wait_p50_ms", "ms"), ("scheduler.wait_p99_ms", "ms"),
    ("scheduler.quantum_s", "s"), ("scheduler.quanta", "count"),
    ("scheduler.backlog_max", "count"),
    ("host.steal_s", "s"),
    ("trace.unattributed_s", "s"), ("trace.overhead_share", "ratio"),
)


@dataclass(frozen=True)
class EngineWorkload:
    """A workload that drives the join engine in one process (or its shards)."""

    name: str
    algorithm: str
    decay: float
    vectors: int          # vectors generated from the seed
    warmup: int           # untimed prefix, counted in setup_s
    approx: str | None = None
    workers: int | None = None
    passes: bool = False  # repeat the whole stream on a fresh join per pass


@dataclass(frozen=True)
class ServiceWorkload:
    """The multi-tenant service workload (server process + load generator)."""

    name: str
    decay: float
    sessions: int
    tenants: int
    vectors_per_session: int
    saturation_vectors: int    # Phase 1 vectors per session
    probe_from: int            # stream position where the Phase 2 probe starts
    chunk: int                 # vectors per closed-loop ingest request
    queue_max: int             # per-session server queue (block backpressure)
    pool_workers: int = 2


STEADY_DECAY = math.log(1.0 / THETA) / 1000.0   # horizon of 1000 vectors

# Sizes give the timed window of a 15-second run about 1.5x the vectors it
# needs on a 2-vCPU host; a faster program ends the window early instead.
WORKLOADS = {
    "engine_steady": EngineWorkload(
        name="engine_steady", algorithm="STR-L2", decay=STEADY_DECAY,
        vectors=16_000, warmup=1_000),
    "engine_approx": EngineWorkload(
        name="engine_approx", algorithm="STR-L2AP", decay=2e-5,
        vectors=3_000, warmup=0, approx="wminhash:24x3", passes=True),
    "sharded_w2": EngineWorkload(
        name="sharded_w2", algorithm="STR-L2", decay=STEADY_DECAY,
        vectors=10_000, warmup=1_000, workers=2),
    # tweets arrive at 2 per time unit, so an 1800-vector session stream
    # spans ~900 units: fifteen horizons of 60 units.  Phase 1 takes 800
    # vectors of each session; the Phase 2 probe, one vector at a time,
    # starts at 1200 and ends early if it uses up the remaining 600.
    "service_mt": ServiceWorkload(
        name="service_mt", decay=math.log(1.0 / THETA) / 60.0,
        sessions=16, tenants=4, vectors_per_session=1800,
        saturation_vectors=800, probe_from=1200, chunk=16, queue_max=1024),
}


def tiny(workload):
    """The self-test size of a workload: same shape, a few hundred vectors."""
    if isinstance(workload, ServiceWorkload):
        return replace(workload, vectors_per_session=60,
                       saturation_vectors=30, probe_from=40)
    return replace(workload, vectors=400 if workload.passes else 700,
                   warmup=min(workload.warmup, 200))


# -- numbers ----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


#: Latency given to a vector that failed: longer than a whole run may take,
#: so a failed vector exceeds any latency limit.
FAILED_LATENCY_S = 180.0

#: Samples per latency window: the window p99 has two samples beyond it.
LATENCY_WINDOW = 250


def latency_summary(samples_in_order) -> dict:
    """p50 over all samples; p99 as the median of per-window p99s.

    Windows are consecutive runs of ``LATENCY_WINDOW`` samples in arrival
    order, so a stall that hits fewer than half of the windows inflates
    their p99s rather than the reported one.  With fewer samples than one
    window, the p99 of all samples is reported.  ``p99_all_ms``, the p99 of
    all samples, is a diagnostic that does count such stalls.
    """
    count = len(samples_in_order)
    windows = [samples_in_order[lo:lo + LATENCY_WINDOW]
               for lo in range(0, count - LATENCY_WINDOW + 1, LATENCY_WINDOW)]
    p99_all = percentile(samples_in_order, 0.99)
    p99 = (median(percentile(w, 0.99) for w in windows) if windows
           else p99_all)
    return {"p50_ms": percentile(samples_in_order, 0.50) * 1e3,
            "p99_ms": p99 * 1e3, "p99_all_ms": p99_all * 1e3,
            "samples": count, "p99_windows": len(windows)}


# -- checkout and host ------------------------------------------------------


def src_dir() -> str:
    """Absolute path of the code under test; exits 2 when it is missing."""
    path = os.path.abspath("src")
    if not os.path.isfile(os.path.join(path, "repro", "__init__.py")):
        print("sssjbench: ./src/repro not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    return path


def out_dir(*parts: str) -> str:
    path = os.path.join(os.path.abspath(OUT_DIR), *parts)
    os.makedirs(path, exist_ok=True)
    return path


def child_env() -> dict:
    """Environment for benchmark subprocesses: code under test from ./src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir()
    env.pop("SSSJ_BACKEND", None)
    env.pop("SSSJ_WORKERS", None)
    env.pop("SSSJ_APPROX", None)
    env.pop("SSSJ_FAULT_PLAN", None)
    return env


def pin_to_one_cpu() -> int:
    """Confine this process, and every process it starts, to one CPU.

    The engine subprocess, its shard workers, the server and the load
    generator then take turns on one CPU instead of waking each other
    across CPUs.  On the 2-vCPU VM this benchmark was defined on, that made
    the CPU time per vector of ``sharded_w2`` both lower and steadier
    (NOTES.md, "The clock").  Returns the CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def task_cpu_ns(pid: int | str = "self") -> int:
    """CPU time of the live threads of process ``pid``, in nanoseconds.

    The sum of each thread's run time as the scheduler keeps it (first field
    of ``/proc/PID/task/TID/schedstat``).  It leaves out time a thread spent
    waiting for a CPU and, with paravirtual steal accounting, time the
    hypervisor gave the CPU to another guest, so other load on the host
    does not count.  A running thread's figure can lag by up to one
    scheduler tick; a sleeping one's is exact.  A process that has ended
    reads 0.
    """
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0
    total = 0
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                total += int(handle.read().split(None, 1)[0])
        except (OSError, ValueError, IndexError):
            pass  # the thread ended between the listing and the read
    return total


def runnable_threads(pid: int) -> int:
    """Threads of ``pid`` that are running or waiting for a CPU (state R)."""
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0
    count = 0
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/stat") as handle:
                state = handle.read().rsplit(")", 1)[1].split(None, 1)[0]
        except (OSError, IndexError):
            continue
        count += state == "R"
    return count


def steal_seconds() -> float:
    """Cumulative CPU steal of the host (8th field of /proc/stat's cpu line)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def vm_hwm_mib(pid: int | str = "self") -> float:
    """Peak resident set size of a live process, in MiB (0.0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS (Linux >= 4.0)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


class HostProbe:
    """Host-noise diagnostics over one run: steal, load, wall and CPU time.

    These are printed next to the metrics so a drifting run can be told
    apart from a program change; nothing is normalised by them.
    """

    def __init__(self) -> None:
        self.started_unix = time.time()
        self._wall = time.perf_counter()
        self._steal = steal_seconds()
        self._cpu = self._cpu_seconds()

    @staticmethod
    def _cpu_seconds() -> float:
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime

    def steal(self) -> float:
        return steal_seconds() - self._steal

    def report(self) -> dict:
        return {
            "start_unix": round(self.started_unix, 3),
            "wall_s": round(time.perf_counter() - self._wall, 3),
            "cpu_s": round(self._cpu_seconds() - self._cpu, 3),
            "steal_s": round(self.steal(), 3),
            "loadavg_1m": os.getloadavg()[0],
        }
