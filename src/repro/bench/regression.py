"""Regression, in both senses.

1. Linear regression of running time on the horizon τ (Figure 9): the
   paper closes its evaluation by showing that the running time of STR-L2
   is roughly a linear function of the time horizon ``τ = λ⁻¹ ln θ⁻¹``,
   with WebSpam as an outlier because of its much higher density.
   :func:`fit_line` provides the least-squares fit used to reproduce that
   figure.

2. Performance-regression checking of the ``BENCH_micro.json`` artifacts
   written by ``benchmarks/bench_micro.py``: :func:`check_regression`
   compares a current record against a committed baseline and fails when a
   tracked metric degrades beyond the tolerance.  The primary metric is the
   numpy-over-python *speedup*, which divides out the machine, so CI runs
   on different hardware than the baseline remain comparable.  Both the
   single-benchmark schema-1 records and the schema-2 multi-benchmark
   artifacts (one entry per gate) are understood; every benchmark present
   in *both* records is compared.  :func:`stage_mismatches` also rejects a
   current record whose ``stages`` block cannot split its ``elapsed_s``
   (it does not add up, or its timed stages exceed the wall time) —
   stages taken from another run.
   Runnable as
   ``python -m repro.bench.regression CURRENT BASELINE [--tolerance 0.2]``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["LinearFit", "fit_line", "MetricCheck", "RegressionReport",
           "check_regression", "config_mismatches", "stage_mismatches",
           "main"]


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line ``y = slope·x + intercept`` with its fit quality."""

    slope: float
    intercept: float
    r_squared: float
    num_points: int

    def predict(self, x: float) -> float:
        """Value of the fitted line at ``x``."""
        return self.slope * x + self.intercept


def fit_line(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least-squares fit of ``ys`` on ``xs``.

    Raises ``ValueError`` with fewer than two points (no line is defined).
    """
    if len(xs) != len(ys):
        raise ValueError(f"mismatched lengths: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a line")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(x, y, deg=1)
    predictions = slope * x + intercept
    total = float(np.sum((y - y.mean()) ** 2))
    residual = float(np.sum((y - predictions) ** 2))
    r_squared = 1.0 if total == 0 else 1.0 - residual / total
    return LinearFit(slope=float(slope), intercept=float(intercept),
                     r_squared=r_squared, num_points=len(xs))


# ---------------------------------------------------------------------------
# Performance-regression checking of BENCH_micro.json artifacts.

#: Machine-comparable metrics tracked across PRs, as dotted paths into the
#: artifact record, with the direction in which "bigger" is better.
#: ``derived.speedup`` divides numpy by python; ``derived.throughput_ratio``
#: divides the service pipeline by the direct engine (the service gate) —
#: both are ratios of same-process runs, so they stay machine-comparable.
#: ``derived.recall`` is the approx gate's pair recall against the exact
#: ground-truth run — deterministic for a pinned workload and sketch seed,
#: so any drop means the prefilter itself changed.  ``derived.scan_speedup``
#: is the compiled gate's scan-stage-only ratio (numba over numpy), the
#: metric the JIT tier exists to move.
TRACKED_METRICS: tuple[tuple[str, bool], ...] = (
    ("derived.speedup", True),
    ("derived.scan_speedup", True),
    ("derived.throughput_ratio", True),
    ("derived.recall", True),
)


@dataclass(frozen=True)
class MetricCheck:
    """Outcome of comparing one tracked metric against the baseline."""

    metric: str
    baseline: float
    current: float
    ratio: float
    regressed: bool

    def render(self) -> str:
        verdict = "REGRESSED" if self.regressed else "ok"
        return (f"{self.metric}: baseline {self.baseline:.4g} → current "
                f"{self.current:.4g} ({self.ratio:+.1%}) [{verdict}]")


@dataclass
class RegressionReport:
    """All metric checks of one current-vs-baseline comparison."""

    tolerance: float
    checks: list[MetricCheck] = field(default_factory=list)

    @property
    def regressed(self) -> bool:
        return any(check.regressed for check in self.checks)

    def render(self) -> str:
        lines = [check.render() for check in self.checks]
        lines.append("performance regression detected" if self.regressed
                     else f"no regression beyond {self.tolerance:.0%} tolerance")
        return "\n".join(lines)


def _lookup(record: dict[str, Any], dotted: str) -> float | None:
    node: Any = record
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def check_regression(current: dict[str, Any], baseline: dict[str, Any], *,
                     tolerance: float = 0.2) -> RegressionReport:
    """Compare two benchmark records; flag metrics degraded past ``tolerance``.

    Every benchmark present in *both* records is compared (schema-1
    records count as a single benchmark).  A metric where bigger is
    better regresses when ``current < baseline · (1 - tolerance)``;
    metrics missing from either record are skipped (a new benchmark has
    no baseline yet).
    """
    from repro.bench.export import bench_micro_benchmarks

    report = RegressionReport(tolerance=tolerance)
    current_map = bench_micro_benchmarks(current)
    baseline_map = bench_micro_benchmarks(baseline)
    for name in sorted(current_map.keys() & baseline_map.keys()):
        for metric, bigger_is_better in TRACKED_METRICS:
            baseline_value = _lookup(baseline_map[name], metric)
            current_value = _lookup(current_map[name], metric)
            if baseline_value is None or current_value is None:
                continue
            if baseline_value == 0:
                continue
            ratio = current_value / baseline_value - 1.0
            if bigger_is_better:
                regressed = current_value < baseline_value * (1.0 - tolerance)
            else:
                regressed = current_value > baseline_value * (1.0 + tolerance)
            report.checks.append(MetricCheck(
                metric=f"{name}: {metric}", baseline=baseline_value,
                current=current_value, ratio=ratio, regressed=regressed,
            ))
    return report


def config_mismatches(current: dict[str, Any],
                      baseline: dict[str, Any]) -> list[tuple[str, Any, Any]]:
    """Keys of the ``config`` sections that disagree between two records.

    Benchmarks shared by both records are compared pairwise; only keys
    present in *both* configs are checked, so adding a new config field
    does not invalidate older baselines.  Mismatched keys are prefixed
    with the benchmark name when the records hold several benchmarks.
    """
    from repro.bench.export import bench_micro_benchmarks

    current_map = bench_micro_benchmarks(current)
    baseline_map = bench_micro_benchmarks(baseline)
    shared = sorted(current_map.keys() & baseline_map.keys())
    mismatches: list[tuple[str, Any, Any]] = []
    for name in shared:
        current_config = current_map[name].get("config")
        baseline_config = baseline_map[name].get("config")
        if not isinstance(current_config, dict) or not isinstance(baseline_config, dict):
            continue
        prefix = f"{name}: " if len(shared) > 1 else ""
        mismatches.extend(
            (prefix + key, current_config[key], baseline_config[key])
            for key in sorted(current_config.keys() & baseline_config.keys())
            if current_config[key] != baseline_config[key])
    return mismatches


#: Largest gap allowed, as a share of ``elapsed_s``, between a backend's
#: wall time and the sum of its ``stages`` (``unattributed`` included) —
#: and the furthest its ``unattributed`` remainder may fall below zero.
STAGE_TOLERANCE = 0.02


def stage_mismatches(record: dict[str, Any]) -> list[tuple[str, str]]:
    """Backends whose ``stages`` cannot be a split of their ``elapsed_s``.

    A ``stages`` block must split the wall time of the run it sits next
    to.  It is rejected when, ``unattributed`` included, it misses
    ``elapsed_s`` by more than :data:`STAGE_TOLERANCE`, or when its
    ``unattributed`` remainder is below ``-STAGE_TOLERANCE · elapsed_s``:
    the stage timers run only inside the timed window, so timed stages
    that add up to more than the wall time were measured on a longer
    run.  Returns ``(benchmark: backend, reason)`` per offender.
    """
    from repro.bench.export import bench_micro_benchmarks

    mismatches: list[tuple[str, str]] = []
    for name, entry in sorted(bench_micro_benchmarks(record).items()):
        backends = entry.get("backends")
        if not isinstance(backends, dict):
            continue
        for backend, block in sorted(backends.items()):
            stages = block.get("stages") if isinstance(block, dict) else None
            elapsed = block.get("elapsed_s") if stages else None
            if not isinstance(elapsed, (int, float)) or elapsed <= 0:
                continue
            total = float(sum(stages.values()))
            unattributed = float(stages.get("unattributed", 0.0))
            slack = STAGE_TOLERANCE * elapsed
            if abs(total - elapsed) > slack:
                reason = (f"stages sum to {total:.4f}s but elapsed_s is "
                          f"{elapsed:.4f}s")
            elif unattributed < -slack:
                reason = (f"timed stages sum to {total - unattributed:.4f}s, "
                          f"more than elapsed_s {elapsed:.4f}s")
            else:
                continue
            mismatches.append((f"{name}: {backend}", reason))
    return mismatches


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: exit 0 when within tolerance, 1 on regression or on stages that
    do not add up to their run's wall time, 2 when the two records
    describe different workloads (used by the CI smoke job)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.regression",
        description="Compare a BENCH_micro.json against a committed baseline.",
    )
    parser.add_argument("current", help="freshly produced BENCH_micro.json")
    parser.add_argument("baseline", help="committed baseline record")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional degradation (default 0.2)")
    args = parser.parse_args(argv)
    with open(args.current, "r", encoding="utf-8") as handle:
        current = json.load(handle)
    unsplit = stage_mismatches(current)
    for where, reason in unsplit:
        print(f"{where}: {reason} (more than {STAGE_TOLERANCE:.0%} apart)")
    if unsplit:
        print("rejecting a record whose stages come from another run")
        return 1
    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; skipping regression check")
        return 0
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    mismatched = config_mismatches(current, baseline)
    if mismatched:
        # Records from different workloads must not compare silently.
        for key, current_value, baseline_value in mismatched:
            print(f"config mismatch on {key!r}: current {current_value!r} "
                  f"vs baseline {baseline_value!r}")
        print("refusing to compare records from different workloads")
        return 2
    report = check_regression(current, baseline, tolerance=args.tolerance)
    print(report.render())
    return 1 if report.regressed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
