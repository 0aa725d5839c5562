"""Compare two sets of benchmark runs, refusing runs on different inputs.

Every run of ``run.py`` saves a record (metrics, input digest, host
diagnostics) under ``.sssjbench/records/``.  Copy the records of two
commits into two directories and run::

    python3 sssjbench/compare.py BASE_DIR NEW_DIR

For each workload and metric this prints both medians and quartiles and the
change of the median.  It exits 1 without comparing anything when runs of
one workload and seed disagree on the digest of their inputs: their
numbers measure different work.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def load(directory: str) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            records.append(json.load(handle))
    return records


def digest_conflicts(records: list[dict]) -> list[str]:
    seen: dict[tuple, str] = {}
    conflicts = []
    for record in records:
        key = (record["workload"], record["seed"], record.get("tiny", False))
        digest = seen.setdefault(key, record["digest"])
        if digest != record["digest"]:
            conflicts.append(f"{key[0]} seed {key[1]}: inputs {digest} "
                             f"vs {record['digest']}")
    return conflicts


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    conflicts = digest_conflicts(base + new)
    if conflicts:
        print("refusing to compare runs on different inputs:", file=sys.stderr)
        for line in conflicts:
            print(f"  {line}", file=sys.stderr)
        return 1
    for workload in sorted({r["workload"] for r in base + new}):
        print(workload)
        rows_a = [r for r in base if r["workload"] == workload and not r["trace"]]
        rows_b = [r for r in new if r["workload"] == workload and not r["trace"]]
        if not rows_a or not rows_b:
            print("  (runs missing on one side)")
            continue
        for name in rows_a[0]["metrics"]:
            a = quartiles([r["metrics"][name]["value"] for r in rows_a])
            b = quartiles([r["metrics"][name]["value"] for r in rows_b])
            change = (b[1] - a[1]) / a[1] if a[1] else 0.0
            unit = rows_a[0]["metrics"][name]["unit"]
            print(f"  {name:16s} base {a[1]:.4g} [{a[0]:.4g}, {a[2]:.4g}]  "
                  f"new {b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}] {unit}  "
                  f"{change:+.1%}  (n={len(rows_a)}/{len(rows_b)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
