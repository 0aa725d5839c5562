"""Self-test of the benchmark itself.  Run from the root of a checkout::

    python3 sssjbench/selftest.py

Checks, in about three minutes:

* every workload runs end to end at tiny size, untraced and traced, and
  prints all seven end-to-end metrics (or all per-layer metrics) by name
  with units, with ``correct: true``;
* the traced runs emit at least one span for every layer that has spans
  on that workload (kernel, framework, shard exchange, service, scheduler);
* a wrong pair planted into a real engine output is caught, and so are a
  dropped pair and a wrong similarity;
* in a copy of the checkout whose ``repro`` is patched, a ``process()``
  call that raises in the timed window, and a shard worker killed and
  restarted mid-window, are each reported as an incorrect run;
* the input check refuses a stream whose timestamps decrease;
* ``run.py`` exits non-zero, printing no result, where ``./src`` is absent.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import END_TO_END, PER_LAYER, THETA, WORKLOADS, out_dir, tiny  # noqa: E402

SEED = 7
SECONDS = "2"
#: Layers whose spans each workload's traced run must contain.
SPAN_LAYERS = {
    "engine_steady": {"backends", "core"},
    "engine_approx": {"backends", "core"},
    "sharded_w2": {"backends", "core", "shard"},
    "service_mt": {"core", "service", "scheduler"},
}

#: Patches appended to ``repro/__init__.py`` in a copy of the checkout.
#: At tiny size every set-up feeds 200 vectors to a fresh join, so a fault
#: at a join's 250th call or exchange falls in the timed window.
PLANTED_FAULTS = {
    "engine_steady": """
_unplanted_create_join = create_join


def create_join(*args, **kwargs):
    join = _unplanted_create_join(*args, **kwargs)
    process, calls = join.process, [0]

    def planted(vector):
        calls[0] += 1
        if calls[0] == 250:
            raise RuntimeError("planted fault")
        return process(vector)
    join.process = planted
    return join
""",
    "sharded_w2": """
from repro.shard.executor import ProcessShardExecutor as _Executor

_unplanted_exchange = _Executor.exchange


def _planted_exchange(self, requests, params):
    self.planted_calls = getattr(self, "planted_calls", 0) + 1
    if self.planted_calls == 250:
        self._kill_worker(0)
    return _unplanted_exchange(self, requests, params)


_Executor.exchange = _planted_exchange
""",
}

failures: list[str] = []


def check(condition: bool, label: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {label}", flush=True)
    if not condition:
        failures.append(label)


def run(workload: str, trace: int, cwd: str | None = None):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace),
         "--tiny"], capture_output=True, text=True, cwd=cwd, timeout=170)


def span_file(workload: str) -> str:
    return os.path.join(out_dir("runs"), f"{workload}-t1.spans.ndjson")


def end_to_end() -> None:
    for workload in WORKLOADS:
        for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
            done = run(workload, trace)
            label = f"{workload} trace={trace}"
            if done.returncode != 0:
                check(False, f"{label} exits 0: {done.stderr[-800:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label} prints the four result keys")
            check(result["correct"] is True, f"{label} output is correct")
            metrics = result["metrics"]
            check(all(metrics.get(name, {}).get("unit") == unit
                      and isinstance(metrics[name]["value"], (int, float))
                      for name, unit in expected)
                  and len(metrics) == len(expected),
                  f"{label} prints all {len(expected)} metrics with units")
            if trace:
                with open(span_file(workload)) as handle:
                    layers = {json.loads(line)["name"].split(".")[0]
                              for line in handle}
                missing = SPAN_LAYERS[workload] - layers
                check(not missing, f"{label} has spans of every layer "
                      f"{sorted(SPAN_LAYERS[workload])} (missing {sorted(missing)})")


def planted_pairs() -> None:
    import inputs
    import reference

    workload = tiny(WORKLOADS["engine_steady"])
    stream, _ = inputs.build("hashtags", SEED, workload.vectors)
    truth = reference.cached(stream, stream.digest(), THETA, workload.decay,
                             0, len(stream))
    with open(os.path.join(out_dir("runs"), "engine_steady-t0.json")) as handle:
        record = json.load(handle)
    reported = {(a, b): s for a, b, s in record["pair_sets"][0]}
    upto = record["processed"][0]
    check(reference.check(reported, truth, THETA, upto=upto).ok(True),
          "the engine's own output passes the check")
    planted = dict(reported)
    planted[(0, upto - 1)] = 0.75   # far beyond the horizon: not similar
    verdict = reference.check(planted, truth, THETA, upto=upto)
    check(not verdict.ok(False) and verdict.extra == [(0, upto - 1)],
          "a planted extra pair is caught")
    key = next(iter(reported))
    dropped = {k: v for k, v in reported.items() if k != key}
    check(not reference.check(dropped, truth, THETA, upto=upto).ok(True),
          "a dropped pair is caught on an exact workload")
    skewed = dict(reported)
    skewed[key] += 1e-3
    check(not reference.check(skewed, truth, THETA, upto=upto).ok(False),
          "a wrong similarity is caught")


def inverted_timestamps() -> None:
    import numpy as np

    import inputs

    stream = inputs.Stream(np.array([0.0, 2.0, 1.0]), np.array([0, 1, 2, 3]),
                           np.array([1, 2, 3]), np.ones(3))
    try:
        inputs.check_order(stream, "planted")
    except inputs.InputError:
        check(True, "a decreasing timestamp is refused")
    else:
        check(False, "a decreasing timestamp is refused")


def copy_checkout(root: str, with_src: bool) -> None:
    """A fresh checkout at ``root``: the benchmark, and ``src`` if asked."""
    shutil.rmtree(root)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, os.path.join(root, os.path.basename(HERE)),
                    ignore=ignore)
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), root)
    if with_src:
        shutil.copytree("src", os.path.join(root, "src"), ignore=ignore)


def planted_faults() -> None:
    for workload, patch in PLANTED_FAULTS.items():
        root = out_dir("planted")
        copy_checkout(root, with_src=True)
        with open(os.path.join(root, "src", "repro", "__init__.py"),
                  "a") as handle:
            handle.write(patch)
        done = run(workload, 0, cwd=root)
        result = (json.loads(done.stdout.strip().splitlines()[-1])
                  if done.returncode == 0 else {})
        caught = result.get("correct") is False and (
            workload != "engine_steady" or result.get("failed", 0) > 0)
        check(caught, f"{workload}: a planted fault in the timed window "
              f"makes the run incorrect")
        if not caught:
            print(done.stdout[-800:], done.stderr[-800:])
        shutil.rmtree(root)


def bare_directory() -> None:
    bare = out_dir("bare")
    copy_checkout(bare, with_src=False)
    done = run("engine_steady", 0, cwd=bare)
    check(done.returncode != 0 and '"metrics"' not in done.stdout,
          "without ./src the benchmark fails and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    end_to_end()
    planted_pairs()
    planted_faults()
    inverted_timestamps()
    bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
