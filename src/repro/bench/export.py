"""Exporting benchmark results to CSV, JSON and Markdown.

The experiment functions return plain rows; this module turns them into
artefacts: CSV/JSON files for further analysis (e.g. plotting the figures
with matplotlib outside this repository) and a Markdown report in the style
of ``EXPERIMENTS.md`` that pairs each reproduced table/figure with the
paper's qualitative finding.
"""

from __future__ import annotations

import csv
import json
import subprocess
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import Any

import numpy

from repro.bench.experiments import ExperimentResult
from repro.bench.metrics import RunMetrics

__all__ = [
    "rows_to_csv",
    "rows_to_json",
    "metrics_to_csv",
    "experiment_to_markdown",
    "write_markdown_report",
    "git_revision",
    "backend_versions",
    "bench_micro_benchmarks",
    "write_bench_micro",
]

#: Schema version of the ``BENCH_micro.json`` artifact.  Version 2 holds a
#: ``benchmarks`` map (one record per gate, so the STR and INV gates and
#: the 50k scaling gate share one artifact) and allows an optional
#: per-backend ``stages`` block with the scan/filter/verify/maintenance
#: wall-clock breakdown from :class:`repro.backends.profiling.ProfilingKernel`.
BENCH_MICRO_SCHEMA = 2


def git_revision(default: str = "unknown") -> str:
    """Current git commit hash, or ``default`` outside a repository."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):  # pragma: no cover - env dependent
        return default
    revision = output.stdout.strip()
    return revision if output.returncode == 0 and revision else default


def backend_versions() -> dict[str, str]:
    """Version of the NumPy dependency.

    Stamped into benchmark artifacts so a measured speedup can be traced
    to the numpy build that produced it.
    """
    return {"numpy": str(numpy.__version__)}


def bench_micro_benchmarks(record: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """The ``benchmark name → record`` map of an artifact, any schema.

    Schema 1 artifacts held a single benchmark at the top level; they are
    presented as a one-entry map so consumers (the regression checker,
    tooling reading the committed baseline) need no version branches.
    """
    benchmarks = record.get("benchmarks")
    if isinstance(benchmarks, dict):
        return benchmarks
    name = record.get("benchmark")
    return {str(name): record} if name else {}


def write_bench_micro(path: str | Path, *, benchmark: str,
                      config: dict[str, Any],
                      backends: dict[str, dict[str, Any]],
                      derived: dict[str, Any] | None = None) -> Path:
    """Write (or extend) the machine-readable micro-benchmark artifact.

    ``backends`` maps backend name → measured values (elapsed seconds,
    throughput, operation counters, optionally a per-stage ``stages``
    timing block); ``config`` records the workload (profile, size, θ, λ)
    and ``derived`` any cross-backend aggregates (e.g. the speedup).  The
    git revision and a schema version are stamped in so the perf
    trajectory can be tracked across PRs.

    When ``path`` already holds an artifact from the same run (or an
    older schema-1 record), the new benchmark is merged into its
    ``benchmarks`` map, so the separate gate tests accumulate into one
    file.
    """
    path = Path(path)
    benchmarks: dict[str, Any] = {}
    if path.exists():
        try:
            with open(path, "r", encoding="utf-8") as handle:
                benchmarks = dict(bench_micro_benchmarks(json.load(handle)))
        except (OSError, ValueError):  # pragma: no cover - corrupt artifact
            benchmarks = {}
    revision = git_revision()
    entry: dict[str, Any] = {
        "benchmark": benchmark,
        # Stamped per entry as well: merging into an existing artifact
        # must not mislabel records measured at an older revision.
        "git_sha": revision,
        "config": dict(config),
        # Outside "config" on purpose: the workload-mismatch guard must
        # not refuse to compare records from machines with different
        # library builds — that difference is what the ratios divide out.
        "versions": backend_versions(),
        "backends": {name: dict(values) for name, values in backends.items()},
    }
    if derived:
        entry["derived"] = dict(derived)
    benchmarks[benchmark] = entry
    record: dict[str, Any] = {
        "schema": BENCH_MICRO_SCHEMA,
        "git_sha": revision,
        "benchmarks": benchmarks,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def rows_to_csv(rows: Sequence[dict[str, Any]], path: str | Path) -> int:
    """Write rows to a CSV file; returns the number of data rows written."""
    path = Path(path)
    if not rows:
        path.write_text("")
        return 0
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return len(rows)


def rows_to_json(rows: Sequence[dict[str, Any]], path: str | Path) -> int:
    """Write rows to a JSON file (a list of objects)."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(list(rows), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return len(rows)


def metrics_to_csv(metrics: Iterable[RunMetrics], path: str | Path) -> int:
    """Write a collection of :class:`RunMetrics` to CSV."""
    return rows_to_csv([m.as_row() for m in metrics], path)


def _markdown_table(rows: Sequence[dict[str, Any]]) -> str:
    if not rows:
        return "_(no rows)_"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = ["| " + " | ".join(columns) + " |",
             "| " + " | ".join("---" for _ in columns) + " |"]
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                value = f"{value:.4g}"
            cells.append(str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def experiment_to_markdown(result: ExperimentResult, *, max_rows: int | None = None) -> str:
    """Render one experiment as a Markdown section."""
    rows = result.rows if max_rows is None else result.rows[:max_rows]
    parts = [f"### {result.experiment_id}: {result.title}", ""]
    if result.notes:
        parts.extend([result.notes, ""])
    parts.append(_markdown_table(rows))
    if max_rows is not None and len(result.rows) > max_rows:
        parts.append("")
        parts.append(f"_({len(result.rows) - max_rows} more rows omitted)_")
    parts.append("")
    return "\n".join(parts)


def write_markdown_report(results: Sequence[ExperimentResult], path: str | Path, *,
                          title: str = "Reproduced experiments",
                          max_rows: int | None = None) -> Path:
    """Write a Markdown report covering every supplied experiment."""
    path = Path(path)
    sections = [f"# {title}", ""]
    for result in results:
        sections.append(experiment_to_markdown(result, max_rows=max_rows))
    path.write_text("\n".join(sections), encoding="utf-8")
    return path
