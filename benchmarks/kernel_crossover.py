"""Per-query CPU of the reference and NumPy kernels by postings traversed.

Sets and re-checks ``AUTO_SWITCH_POSTINGS``, the gather size at which an
adaptive ``auto`` STR join leaves the pure-Python kernel
(:mod:`repro.core.frameworks.streaming`).  Each configuration's stream
runs through a join pinned to ``python`` and one pinned to ``numpy``,
``--repeats`` times each, alternating.  Every query's CPU time
(``time.process_time_ns``) is kept at its minimum over the repeats and
binned by the postings that query traversed, which is the same on both
kernels.  The script asserts that both kernels and an ``auto`` join
report identical pairs and counters, then prints one table per
configuration (mean µs per query in each bin), where least-squares
lines of the two kernels' per-query CPU on postings traversed cross,
then what the whole
stream would cost an ``auto`` join for each candidate constant: the
query after which it switches, the index size and CPU cost of the
switch there, and its total CPU against the faster pinned kernel.

Run from the repository root::

    PYTHONPATH=src python benchmarks/kernel_crossover.py [--repeats 3]

It takes about two minutes on one core.
"""

from __future__ import annotations

import argparse
import gc
import math
import time

from repro import create_join
from repro.backends import resolve_kernel
from repro.bench.metrics import fit_line
from repro.core.frameworks.streaming import (
    AUTO_SWITCH_POSTINGS,
    AUTO_SWITCH_WINDOW,
)
from repro.datasets.generator import generate_profile_corpus

THETA = 0.6
#: ``(label, profile, algorithm, horizon in time units, vectors)``.  The
#: horizons exceed the streams' spans, so each index grows from empty and
#: its queries sweep the bins from a handful of postings to thousands.
CONFIGS = (
    ("L2 hashtags", "hashtags", "STR-L2", 1000.0, 2000),
    ("L2 tweets", "tweets", "STR-L2", 1000.0, 3000),
    ("L2AP hashtags", "hashtags", "STR-L2AP", 25_000.0, 2000),
    ("INV tweets", "tweets", "STR-INV", 1000.0, 1500),
)
BIN_EDGES = (0, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, math.inf)
#: Postings-per-query range the per-kernel cost lines are fitted over.
FIT_RANGE = (64, 1024)
#: Values of the constant whose whole-stream cost the script reports.
CANDIDATES = (64, 128, 192, 256, 384, 512)


def _run(algorithm, decay, vectors, backend):
    """Per-query CPU ns and postings traversed, plus the pairs and counters."""
    join = create_join(algorithm, THETA, decay, backend=backend)
    stats = join.stats
    clock = time.process_time_ns
    times, traversed, pairs = [], [], []
    gc.collect()
    for vector in vectors:
        before = stats.entries_traversed
        start = clock()
        reported = join.process(vector)
        times.append(clock() - start)
        traversed.append(stats.entries_traversed - before)
        pairs.extend((pair.key, pair.similarity) for pair in reported)
    counters = stats.as_dict()
    counters.pop("elapsed_seconds", None)
    return times, traversed, pairs, counters, join


def _switch_cost(algorithm, decay, vectors, query):
    """CPU seconds of moving a python join's index to NumPy after ``query``."""
    join = create_join(algorithm, THETA, decay, backend="python")
    for vector in vectors[:query + 1]:
        join.process(vector)
    size = join.index_size
    gc.collect()
    start = time.process_time()
    join.index.switch_kernel(resolve_kernel("numpy"))
    return time.process_time() - start, size


def measure(label, profile, algorithm, horizon, count, repeats):
    decay = math.log(1.0 / THETA) / horizon
    vectors = generate_profile_corpus(profile, num_vectors=count, seed=3)
    best = {"python": None, "numpy": None}
    outputs = {}
    for _ in range(repeats):
        for backend in ("python", "numpy"):
            times, traversed, pairs, counters, _ = _run(
                algorithm, decay, vectors, backend)
            outputs[backend] = (traversed, pairs, counters)
            previous = best[backend]
            best[backend] = (times if previous is None else
                             [min(a, b) for a, b in zip(previous, times)])
    _, _, auto_pairs, auto_counters, _ = _run(
        algorithm, decay, vectors, None)
    traversed, pairs, counters = outputs["python"]
    assert outputs["numpy"] == (traversed, pairs, counters), label
    assert (auto_pairs, auto_counters) == (pairs, counters), label

    print(f"\n{label}: {algorithm} on {profile}, θ={THETA}, horizon "
          f"{horizon:g}, {count} vectors, {len(pairs)} pairs, "
          f"{counters['entries_traversed'] / count:.0f} postings/query")
    print("| postings traversed | queries | python µs | numpy µs "
          "| numpy/python |")
    print("|---|---|---|---|---|")
    for lo, hi in zip(BIN_EDGES, BIN_EDGES[1:]):
        rows = [i for i, n in enumerate(traversed) if lo <= n < hi]
        if not rows:
            continue
        py = sum(best["python"][i] for i in rows) / len(rows) / 1e3
        np_ = sum(best["numpy"][i] for i in rows) / len(rows) / 1e3
        span = f"{lo}–{hi - 1}" if hi != math.inf else f"≥ {lo}"
        print(f"| {span} | {len(rows)} | {py:.0f} | {np_:.0f} "
              f"| {np_ / py:.2f} |")

    # Least-squares lines of per-query CPU on postings traversed, fitted
    # over the bins around the crossover; where they cross is the gather
    # size above which NumPy is faster for this scheme and stream.
    rows = [i for i, n in enumerate(traversed) if FIT_RANGE[0] <= n < FIT_RANGE[1]]
    xs = [traversed[i] for i in rows]
    py_fit = fit_line(xs, [best["python"][i] / 1e3 for i in rows])
    np_fit = fit_line(xs, [best["numpy"][i] / 1e3 for i in rows])
    crossing = ((np_fit.intercept - py_fit.intercept)
                / (py_fit.slope - np_fit.slope))
    print(f"fit over {FIT_RANGE[0]}–{FIT_RANGE[1] - 1} postings "
          f"({len(rows)} queries): python {py_fit.intercept:.0f} + "
          f"{py_fit.slope:.2f}·n µs, numpy {np_fit.intercept:.0f} + "
          f"{np_fit.slope:.2f}·n µs; they cross at n = {crossing:.0f}")

    totals = {backend: sum(times) / 1e9 for backend, times in best.items()}
    print(f"whole stream: python {totals['python']:.2f} s, numpy "
          f"{totals['numpy']:.2f} s CPU")
    costs = {}
    for constant in CANDIDATES:
        switch_at = _switch_query(traversed, constant)
        if switch_at is None:
            costs[constant] = (totals["python"], None, 0, 0.0)
            continue
        seconds, size = _switch_cost(algorithm, decay, vectors, switch_at)
        total = (sum(best["python"][:switch_at + 1])
                 + sum(best["numpy"][switch_at + 1:])) / 1e9 + seconds
        costs[constant] = (total, switch_at, size, seconds)
    print("| constant | switch after query | postings then | switch ms "
          "| auto CPU s | vs best pinned |")
    print("|---|---|---|---|---|---|")
    floor = min(totals.values())
    for constant, (total, switch_at, size, seconds) in costs.items():
        mark = " (in use)" if constant == AUTO_SWITCH_POSTINGS else ""
        print(f"| {constant}{mark} | {switch_at if switch_at is not None else '—'} "
              f"| {size} | {seconds * 1e3:.1f} | {total:.2f} "
              f"| {total / floor:.3f} |")
    return {constant: cost[0] / floor for constant, cost in costs.items()}


def _switch_query(traversed, constant):
    """The query after which the rule switches with ``constant``, if any."""
    window = AUTO_SWITCH_WINDOW
    total = 0
    for i, count in enumerate(traversed):
        total += count
        if i >= window:
            total -= traversed[i - window]
        if i >= window - 1 and total >= constant * window:
            return i
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="alternating runs per kernel (default 3)")
    args = parser.parse_args(argv)
    print(f"AUTO_SWITCH_POSTINGS={AUTO_SWITCH_POSTINGS}, "
          f"AUTO_SWITCH_WINDOW={AUTO_SWITCH_WINDOW}")
    ratios = [measure(*config, repeats=args.repeats) for config in CONFIGS]
    print("\nmean auto CPU over the best pinned kernel, across configurations:")
    for constant in CANDIDATES:
        mean = sum(ratio[constant] for ratio in ratios) / len(ratios)
        print(f"  constant {constant}: {mean:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
