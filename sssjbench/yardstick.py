"""A fixed task whose CPU time tells how fast the CPU runs right now.

The host this benchmark runs on changes speed for seconds to hours at a
time: the same engine work took twice the CPU time in one half hour as in
the next (NOTES.md, "The yardstick").  ``Yardstick.factor()`` runs a fixed
task -- dictionary inserts and lookups, a random gather from a 32 MiB
array, a small sort: the kinds of work the engine does, written here so
that no change to the code under test can move it -- and returns its
reference CPU time divided by the median of three runs now.  CPU times
multiplied by the median factor of a run read as if taken at the
reference speed.  The median of three leaves out the run that refills the
caches after the code under test has used them.

The engine subprocess takes its factors from a helper process on the same
CPU (``YardstickProcess``), so that the array does not count in the peak
RSS it reports::

    python3 sssjbench/yardstick.py     # one factor per line read on stdin
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from statistics import median

#: CPU seconds of one run at the reference speed: the median on the 2-vCPU
#: VM this benchmark was defined on, in its faster state.
REFERENCE_S = 0.00100


class Yardstick:
    """The task and the factors taken so far."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._keys = [int(k) for k in rng.integers(0, 1 << 30, 8192)]
        self._table = rng.random(1 << 22)
        self._index = rng.integers(0, 1 << 22, 20000)
        self._sort = rng.random(8192)
        self._np_sort = np.sort
        self.factors: list[float] = []
        for _ in range(3):
            self._once()

    def _once(self) -> float:
        begin = time.thread_time()
        table = {}
        for key in self._keys:
            table[key] = key
        total = 0
        for key in self._keys:
            total += table[key] & 7
        float(self._table[self._index].sum())
        self._np_sort(self._sort)
        return time.thread_time() - begin

    def factor(self) -> float:
        """Reference CPU time over the median of three runs now."""
        self.factors.append(REFERENCE_S
                            / median(self._once() for _ in range(3)))
        return self.factors[-1]

    def summary(self) -> dict:
        """The factors taken so far: count, median, range (diagnostics)."""
        return summarize(self.factors)


def summarize(factors) -> dict:
    if not factors:
        return {"count": 0}
    return {"count": len(factors), "median": round(median(factors), 4),
            "min": round(min(factors), 4), "max": round(max(factors), 4)}


class YardstickProcess:
    """A ``Yardstick`` in a helper process; close it when done."""

    def __init__(self) -> None:
        self.factors: list[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._request()   # the helper is ready once it answers

    def _request(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the yardstick process ended")
        return float(line)

    def factor(self) -> float:
        self.factors.append(self._request())
        return self.factors[-1]

    def summary(self) -> dict:
        return summarize(self.factors)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def main() -> int:
    yardstick = Yardstick()
    for _ in sys.stdin:
        print(repr(yardstick.factor()), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
