"""Benchmark harness: experiment configs, runner, metrics and table renderers."""

from repro.bench.config import (
    DATASETS,
    FRAMEWORKS,
    INDEXES,
    LAMBDA_GRID,
    THETA_GRID,
    ExperimentScale,
    default_scale,
)
from repro.bench.experiments import ALL_EXPERIMENTS, ExperimentResult, run_experiment
from repro.bench.export import (
    experiment_to_markdown,
    metrics_to_csv,
    rows_to_csv,
    rows_to_json,
    write_markdown_report,
)
from repro.bench.metrics import LinearFit, RunMetrics, fit_line
from repro.bench.runner import clear_corpus_cache, corpus_for, run_algorithm, sweep
from repro.bench.tables import pivot, render_table, series_by

__all__ = [
    "THETA_GRID",
    "LAMBDA_GRID",
    "FRAMEWORKS",
    "INDEXES",
    "DATASETS",
    "ExperimentScale",
    "default_scale",
    "RunMetrics",
    "run_algorithm",
    "sweep",
    "corpus_for",
    "clear_corpus_cache",
    "render_table",
    "pivot",
    "series_by",
    "LinearFit",
    "fit_line",
    "ExperimentResult",
    "ALL_EXPERIMENTS",
    "run_experiment",
    "rows_to_csv",
    "rows_to_json",
    "metrics_to_csv",
    "experiment_to_markdown",
    "write_markdown_report",
]
