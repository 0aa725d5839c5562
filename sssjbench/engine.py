"""Engine-side runner: one workload's join in a process of its own.

``run.py`` starts this file as a subprocess so that the peak RSS it reports
belongs to the system under test (plus its shard workers), not to the
benchmark's reference or bookkeeping.  Usage::

    python3 sssjbench/engine.py WORKLOAD INPUTS.npz SECONDS TRACE OUT.json [tiny]

Untraced (TRACE=0): set up three times (build the join, spawn workers,
feed the warm-up prefix) and report every set-up time; then time each
``process()`` call of the last join over the timed window.  Workloads with
``passes`` instead build a fresh join per pass over the whole stream and
keep going until the window is used up.

Times are CPU times of the system under test: this process's own CPU time
plus, for a sharded join, that of its shard worker processes (read from
the kernel's per-thread run time, ``common.task_cpu_ns``).  A call's time
is this thread's CPU time inside ``process()`` plus the workers' CPU time
since the previous call ended, so no worker time is lost between calls.
Every CPU time is scaled to the reference CPU speed by the median of the
run's yardstick factors, taken from a helper process on the same CPU
(``yardstick.YardstickProcess``) before each set-up and every
``YARDSTICK_EVERY`` calls of a window.
The window itself lasts ``SECONDS`` of wall-clock time.

Traced (TRACE=1): an untraced window of half the length, then a traced one
of the same length with the delegating kernel, a span around ``process``
and, for sharded joins, around ``ProcessShardExecutor.exchange``.

A ``process()`` call that raises, in the warm-up or in a timed window,
ends that window: the vector it was given and every later vector of the
window's input count as failed, each with a latency of
``FAILED_LATENCY_S``.  A sharded join whose workers had to be restarted, or
that fell back to in-process shards, is recorded as an error.  ``run.py``
reports any failure or error as an incorrect run.
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import os
import sys
import time
from statistics import median

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (FAILED_LATENCY_S, THETA, WORKLOADS,  # noqa: E402
                    HostProbe, reset_peak_rss, task_cpu_ns, tiny, vm_hwm_mib)
import inputs  # noqa: E402
from yardstick import YardstickProcess  # noqa: E402

import repro  # noqa: E402

_clock = time.perf_counter
_thread_cpu_ns = time.thread_time_ns
_process_cpu_ns = time.process_time_ns
SETUP_REPEATS = 3
SETUP_BATCHES = 5
BUILDS_PER_BATCH = 100
THROUGHPUT_WINDOWS = 10
#: Calls between two yardstick factors in a timed window (about 0.2 s).
YARDSTICK_EVERY = 200
#: Timed vectors after which a steady window reads its peak RSS.  Memory
#: that grows with the vectors processed (the sharded executor keeps every
#: step for crash replay) then reads the same however fast the window ran.
RSS_AFTER_VECTORS = 3000


def build_join(workload, kernel=None):
    """The workload's join; ``kernel`` makes a fresh kernel per join."""
    return repro.create_join(workload.algorithm, THETA, workload.decay,
                             backend="numpy" if kernel is None else kernel(),
                             workers=workload.workers, approx=workload.approx)


def worker_pids() -> list[int]:
    """This process's live children: the current join's shard workers."""
    return [child.pid for child in multiprocessing.active_children()]


def workers_cpu_ns(pids) -> int:
    return sum(task_cpu_ns(pid) for pid in pids)


def peak_rss_mib() -> float:
    """This process plus its live children (shard workers), in MiB."""
    return vm_hwm_mib() + sum(vm_hwm_mib(pid) for pid in worker_pids())


def shard_errors(join) -> list[str]:
    """A sharded join's worker restarts and serial fallback, as errors."""
    events = getattr(join, "recovery_events", [])
    degraded = getattr(join, "degraded", False)
    if not events and not degraded:
        return []
    return [f"shard workers recovered {len(events)} time(s), "
            f"degraded={degraded}: {events[:3]}"]


def close(join) -> list[str]:
    """Close ``join``; returns its shard errors, read before closing."""
    errors = shard_errors(join)
    closer = getattr(join, "close", None)
    if closer is not None:
        closer()
    return errors


class Window:
    """Per-call CPU times of one timed window over a list of vectors.

    ``cpu`` holds each call's CPU time (module docstring), ``ends`` the
    wall-clock end of each call, kept for the traced run's unattributed
    remainder.
    """

    def __init__(self, yardstick: YardstickProcess | None = None) -> None:
        self.yardstick = yardstick
        self.cpu: list[float] = []
        self.ends: list[float] = []
        self.pairs: dict = {}
        self.failed = 0
        self.errors: list[str] = []
        self.peak_rss_mb = None
        self.start = _clock()

    def run(self, process, vectors, seconds: float,
            rss_after: int | None = None, workers=()) -> None:
        """Feed ``vectors``; ``workers`` are the shard workers to charge."""
        cpu, ends, pairs = self.cpu, self.ends, self.pairs
        deadline = self.start + seconds
        workers_before = workers_cpu_ns(workers)
        for index, vector in enumerate(vectors):
            if index == rss_after:
                self.peak_rss_mb = peak_rss_mib()
            if self.yardstick is not None and index % YARDSTICK_EVERY == 0:
                self.yardstick.factor()
            begin = _thread_cpu_ns()
            try:
                reported = process(vector)
            except Exception as error:  # noqa: BLE001 - reported as a failure
                self.fail(repr(error), len(vectors) - index)
                break
            own = _thread_cpu_ns() - begin
            end = _clock()
            if workers:
                # A worker that died reads 0; its run fails on recovery.
                workers_now = workers_cpu_ns(workers)
                own += max(0, workers_now - workers_before)
                workers_before = workers_now
            cpu.append(own * 1e-9)
            ends.append(end)
            for pair in reported:
                pairs[pair.key] = pair.similarity
            if end >= deadline:
                break

    def fail(self, error: str, count: int) -> None:
        """Count ``count`` vectors as failed, each beyond any latency limit."""
        self.errors.append(error)
        self.failed += count
        self.cpu.extend([FAILED_LATENCY_S] * count)

    def processed(self) -> list[float]:
        """CPU times of the calls that returned."""
        return self.cpu[:len(self.ends)]

    def rate(self) -> float:
        """Vectors per CPU second over the whole window."""
        return len(self.ends) / sum(self.processed())

    def wall_rate(self) -> float:
        """Vectors per wall-clock second over the window (a diagnostic)."""
        return len(self.ends) / (self.ends[-1] - self.start)

    def window_rates(self) -> list[float]:
        """Vectors per CPU second in consecutive windows of equal call count."""
        times = self.processed()
        count = len(times)
        windows = min(THROUGHPUT_WINDOWS, count)
        bounds = [count * w // windows for w in range(windows + 1)]
        return [(hi - lo) / sum(times[lo:hi])
                for lo, hi in zip(bounds, bounds[1:])]


def stats_delta(after, before) -> dict:
    delta = {key: after[key] - before.get(key, 0) for key in after}
    delta["max_index_size"] = after["max_index_size"]
    return delta


def run_steady(workload, vectors, seconds, repeats, yardstick,
               process_wrapper=None, kernel=None, setup_hook=None):
    """Set up ``repeats`` times; time the last join over the window.

    Returns the join, the set-up times, the warm-up and timed windows, and
    the join's counters before the timed window.  If a warm-up fails, the
    timed window does not run and every timed vector counts as failed.
    """
    setups, join, errors = [], None, []
    warm, rest = vectors[:workload.warmup], vectors[workload.warmup:]
    for rep in range(repeats):
        if join is not None:
            errors += close(join)
            join = None
            gc.collect()
        yardstick.factor()
        started = _process_cpu_ns()
        join = build_join(workload, kernel)
        warmed = Window()
        warmed.run(join.process, warm, math.inf)
        # Shard workers are born during set-up: all their CPU time is its.
        setups.append((_process_cpu_ns() - started
                       + workers_cpu_ns(worker_pids())) * 1e-9)
        if warmed.errors:
            break
    if setup_hook is not None:
        setup_hook()
    before = join.stats.as_dict()
    process = join.process if process_wrapper is None else process_wrapper(join)
    window = Window(yardstick)
    if warmed.errors:
        window.fail("warm-up failed", len(rest))
    else:
        window.run(process, rest, seconds, rss_after=RSS_AFTER_VECTORS,
                   workers=worker_pids())
    window.pairs.update(warmed.pairs)
    window.errors = errors + warmed.errors + window.errors
    window.failed += warmed.failed
    window.warmed = len(warmed.ends)
    return join, setups, window, before


def run_passes(workload, vectors, seconds, yardstick, kernel=None,
               process_wrapper=None, min_passes=3):
    """Fresh join per pass over the whole stream until the window is used.

    Each window's ``peak_rss_mb`` is the process's peak RSS during that pass
    alone.  A join holds reference cycles, so each pass's join is collected
    before the next pass starts rather than during it.
    """
    windows, stats = [], []
    started = _clock()
    while len(windows) < min_passes or _clock() - started < seconds:
        gc.collect()
        reset_peak_rss()
        join = build_join(workload, kernel)
        process = (join.process if process_wrapper is None
                   else process_wrapper(join))
        window = Window(yardstick)
        window.run(process, vectors, float("inf"), workers=worker_pids())
        window.peak_rss_mb = peak_rss_mib()
        windows.append(window)
        stats.append(join.stats.as_dict())
        window.errors += close(join)
        del join, process
        if window.errors:
            break
    return windows, stats


def untraced(workload, vectors, seconds, repeats, yardstick):
    """The end-to-end measurement; returns the record for run.py."""
    if workload.passes:
        # Building a join takes well under a millisecond here, so set-up
        # is timed over batches of builds: one sample is a batch's mean.
        # They come first, as a user's set-up would, before the passes
        # have grown and freed large indexes.
        setups = []
        for _ in range(SETUP_BATCHES):
            yardstick.factor()
            begin = _process_cpu_ns()
            for _ in range(BUILDS_PER_BATCH):
                close(build_join(workload))
            setups.append((_process_cpu_ns() - begin) * 1e-9
                          / BUILDS_PER_BATCH)
        windows, _ = run_passes(workload, vectors, seconds, yardstick)
        rates = [w.rate() for w in windows if w.ends]
        record = {
            "setups": setups,
            "rates": rates or [0.0],
            "wall_vps": median([w.wall_rate() for w in windows if w.ends]
                               or [0.0]),
            "latencies": [x for w in windows for x in w.cpu],
            "pair_sets": [sorted([a, b, s] for (a, b), s in w.pairs.items())
                          for w in windows],
            "processed": [len(w.ends) for w in windows],
            "failed": sum(w.failed for w in windows),
            "errors": [e for w in windows for e in w.errors],
            "peak_rss_mb": median(w.peak_rss_mb for w in windows),
        }
        return record
    join, setups, window, _ = run_steady(workload, vectors, seconds, repeats,
                                         yardstick)
    rss = window.peak_rss_mb or peak_rss_mib()
    window.errors += close(join)
    return {
        "setups": setups,
        "rates": window.window_rates() if window.ends else [0.0],
        "wall_vps": window.wall_rate() if window.ends else 0.0,
        "latencies": window.cpu,
        "pair_sets": [sorted([a, b, s] for (a, b), s in window.pairs.items())],
        "processed": [window.warmed + len(window.ends)],
        "failed": window.failed,
        "errors": window.errors,
        "peak_rss_mb": rss,
    }


def traced(workload, vectors, seconds, yardstick):
    """Per-layer numbers from a traced window; see spans.py."""
    import spans
    from repro.shard.executor import ProcessShardExecutor

    tracer = spans.Tracer(workload.name)
    spans.wrap_method(ProcessShardExecutor, "exchange", tracer,
                      "shard.exchange")

    def kernel():
        return spans.TracingKernel(tracer)

    def wrap(join):
        def process(vector):
            return tracer.call("core.process", join.process, vector,
                               item=vector.vector_id)
        return process

    if workload.passes:
        windows, stats = run_passes(
            workload, vectors, seconds, yardstick, kernel=kernel,
            process_wrapper=wrap, min_passes=1)
        wall = sum(w.ends[-1] - w.start for w in windows if w.ends)
        processed = sum(len(w.ends) for w in windows)
        throughput = median([w.rate() for w in windows if w.ends] or [0.0])
        counters = {}
        for row in stats:
            for key, value in row.items():
                counters[key] = counters.get(key, 0) + value
        counters["max_index_size"] = max(row["max_index_size"] for row in stats)
        shares = []
        pairs, upto = windows[0].pairs, len(windows[0].ends)
        failed = sum(w.failed for w in windows)
        errors = [e for w in windows for e in w.errors]
    else:
        join, _, window, before = run_steady(
            workload, vectors, seconds, 1, yardstick, process_wrapper=wrap,
            kernel=kernel, setup_hook=tracer.spans.clear)
        counters = stats_delta(join.stats.as_dict(), before)
        shares = []
        if workload.workers:
            rows = join.shard_counters()
            total = sum(row.entries_traversed for row in rows)
            shares = [row.entries_traversed / total for row in rows] if total else []
        errors = window.errors + close(join)
        failed = window.failed
        wall = window.ends[-1] - window.start if window.ends else 0.0
        processed = len(window.ends)
        throughput = median(window.window_rates()) if window.ends else 0.0
        pairs, upto = window.pairs, window.warmed + processed
    return tracer, {"wall_s": wall, "processed": processed,
                    "throughput_vps": throughput, "counters": counters,
                    "shard_shares": shares, "pairs_upto": upto,
                    "failed": failed, "errors": errors,
                    "pairs": sorted([a, b, s] for (a, b), s in pairs.items())}


def scale(record: dict, factor: float) -> None:
    """Scale the record's CPU times by ``factor`` (to the reference speed)."""
    record["setups"] = [s * factor for s in record["setups"]]
    record["latencies"] = [x * factor for x in record["latencies"]]
    record["rates"] = [r / factor for r in record["rates"]]
    if "trace" in record:
        record["trace"]["throughput_vps"] /= factor


def main(argv: list[str]) -> int:
    name, inputs_path, seconds, trace_flag, out_path = argv[:5]
    workload = WORKLOADS[name]
    if len(argv) > 5 and argv[5] == "tiny":
        workload = tiny(workload)
    seconds = float(seconds)
    probe = HostProbe()
    vectors = inputs.load(inputs_path).vectors()
    # The inputs stay alive for the whole run; keep the collector off them.
    gc.collect()
    gc.freeze()
    yardstick = YardstickProcess()
    try:
        if trace_flag == "0":
            record = untraced(workload, vectors, seconds, SETUP_REPEATS,
                              yardstick)
        else:
            import spans

            record = untraced(workload, vectors, seconds / 2, 1, yardstick)
            tracer, layered = traced(workload, vectors, seconds / 2,
                                     yardstick)
            spans_path = out_path[:-len(".json")] + ".spans.ndjson"
            tracer.write(spans_path)
            record["trace"] = {"layers": spans.summarize(tracer.spans),
                               "root_s": spans.root_seconds(tracer.spans),
                               "spans_path": spans_path, **layered}
    finally:
        yardstick.close()
    scale(record, median(yardstick.factors))
    record["host"] = probe.report()
    record["speed"] = yardstick.summary()
    with open(out_path, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
