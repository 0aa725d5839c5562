"""Tests for the benchmark harness (runner, tables, regression, experiments)."""

from __future__ import annotations

import math

import pytest

from repro.bench.config import (
    DATASETS,
    LAMBDA_GRID,
    THETA_GRID,
    ExperimentScale,
    default_scale,
)
from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    ablation_baseline,
    ablation_bounds,
    figure2,
    figure9,
    run_experiment,
    table1,
    table2,
)
from repro.bench.metrics import fit_line
from repro.bench.runner import clear_corpus_cache, corpus_for, run_algorithm, sweep
from repro.bench.tables import pivot, render_table, series_by
from repro.datasets.generator import generate_profile_corpus

TINY_SCALE = ExperimentScale(
    vector_counts={"webspam": 40, "rcv1": 60, "blogs": 50, "tweets": 80},
    thetas=(0.5, 0.9),
    decays=(0.01, 0.1),
    seed=5,
)


class TestConfig:
    def test_paper_grids(self):
        assert THETA_GRID == (0.5, 0.6, 0.7, 0.8, 0.9, 0.99)
        assert LAMBDA_GRID == (1e-4, 1e-3, 1e-2, 1e-1)
        assert DATASETS == ("webspam", "rcv1", "blogs", "tweets")

    def test_default_scale_has_counts_for_every_dataset(self):
        scale = default_scale()
        for dataset in DATASETS:
            assert scale.vectors_for(dataset) >= 50

    def test_scale_env_variable(self, monkeypatch):
        monkeypatch.setenv("SSSJ_BENCH_SCALE", "2.0")
        doubled = default_scale()
        monkeypatch.delenv("SSSJ_BENCH_SCALE")
        base = default_scale()
        for dataset in DATASETS:
            assert doubled.vectors_for(dataset) == 2 * base.vectors_for(dataset)


class TestRunner:
    def test_corpus_cache(self):
        clear_corpus_cache()
        a = corpus_for("tweets", 50, seed=1)
        b = corpus_for("tweets", 50, seed=1)
        assert a is b
        clear_corpus_cache()
        c = corpus_for("tweets", 50, seed=1)
        assert c is not a
        assert c == a

    def test_run_algorithm_metrics(self):
        vectors = generate_profile_corpus("tweets", num_vectors=100, seed=2)
        metrics = run_algorithm("STR-L2", vectors, 0.6, 0.05, dataset="tweets")
        assert metrics.completed
        assert metrics.num_vectors == 100
        assert metrics.stats.vectors_processed == 100
        assert metrics.elapsed_seconds > 0
        assert metrics.horizon == pytest.approx(math.log(1 / 0.6) / 0.05)
        row = metrics.as_row()
        assert row["algorithm"] == "STR-L2"
        assert row["completed"] is True

    def test_operation_budget_aborts_run(self):
        vectors = generate_profile_corpus("rcv1", num_vectors=150, seed=3)
        metrics = run_algorithm("STR-INV", vectors, 0.5, 0.001,
                                dataset="rcv1", operation_budget=500)
        assert not metrics.completed
        assert "budget" in metrics.abort_reason
        assert metrics.stats.vectors_processed < 150

    def test_time_budget_aborts_run(self):
        vectors = generate_profile_corpus("rcv1", num_vectors=200, seed=3)
        metrics = run_algorithm("STR-INV", vectors, 0.5, 0.001,
                                dataset="rcv1", time_budget=0.0)
        assert not metrics.completed

    def test_sweep_covers_the_grid(self):
        results = sweep(["STR-L2"], ["tweets"], TINY_SCALE)
        assert len(results) == len(TINY_SCALE.thetas) * len(TINY_SCALE.decays)
        combos = {(metrics.threshold, metrics.decay) for metrics in results}
        assert combos == {(t, d) for t in TINY_SCALE.thetas for d in TINY_SCALE.decays}

    def test_throughput_property(self):
        vectors = generate_profile_corpus("tweets", num_vectors=50, seed=4)
        metrics = run_algorithm("STR-L2", vectors, 0.7, 0.1)
        assert metrics.throughput > 0


class TestTables:
    ROWS = [
        {"dataset": "a", "theta": 0.5, "time_s": 1.0},
        {"dataset": "a", "theta": 0.9, "time_s": 0.25},
        {"dataset": "b", "theta": 0.5, "time_s": 2.0},
    ]

    def test_render_table_contains_all_cells(self):
        text = render_table(self.ROWS, title="demo")
        assert "demo" in text
        assert "dataset" in text
        assert "0.25" in text

    def test_render_empty(self):
        assert "(no rows)" in render_table([], title="empty")

    def test_render_formats_booleans_and_large_numbers(self):
        text = render_table([{"ok": True, "count": 1234567.0}])
        assert "yes" in text
        assert "1.23e+06" in text

    def test_pivot(self):
        wide = pivot(self.ROWS, index="dataset", column="theta", value="time_s")
        assert wide[0]["dataset"] == "a"
        assert wide[0]["0.5"] == 1.0
        assert wide[0]["0.9"] == 0.25

    def test_series_by(self):
        series = series_by(self.ROWS, group="dataset", x="theta", y="time_s")
        assert series["a"] == [(0.5, 1.0), (0.9, 0.25)]
        assert series["b"] == [(0.5, 2.0)]


class TestRegression:
    def test_perfect_line(self):
        fit = fit_line([0, 1, 2, 3], [1, 3, 5, 7])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(10) == pytest.approx(21.0)

    def test_noisy_line_has_lower_r_squared(self):
        fit = fit_line([0, 1, 2, 3, 4], [0, 2, 1, 3, 10])
        assert 0.0 <= fit.r_squared <= 1.0

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            fit_line([1, 2], [1])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_line([1], [1])


class TestExperiments:
    def test_registry_covers_every_table_and_figure(self):
        expected = {"table1", "table2"} | {f"figure{i}" for i in range(2, 10)}
        assert expected <= set(ALL_EXPERIMENTS)

    def test_run_experiment_unknown_id(self):
        with pytest.raises(KeyError):
            run_experiment("figure99")

    def test_table1_rows(self):
        result = table1(TINY_SCALE)
        assert len(result.rows) == 4
        assert {row["dataset"] for row in result.rows} == set(DATASETS)
        assert "density_pct" in result.rows[0]
        assert result.render()

    @pytest.mark.slow
    def test_table2_fractions_are_valid(self):
        result = table2(TINY_SCALE)
        for row in result.rows:
            for key, value in row.items():
                if key in ("dataset", "budget_ops"):
                    continue
                assert 0.0 <= value <= 1.0

    def test_figure2_ratio_rows(self):
        result = figure2(TINY_SCALE)
        assert result.rows
        for row in result.rows:
            assert row["entries_MB"] >= 0
            assert row["tau"] > 0

    def test_figure9_produces_a_fit_per_dataset(self):
        result = figure9(TINY_SCALE)
        assert {row["dataset"] for row in result.rows} == set(DATASETS)
        for row in result.rows:
            assert row["points"] == len(TINY_SCALE.thetas) * len(TINY_SCALE.decays)

    @pytest.mark.slow
    def test_ablation_bounds_has_all_indexes(self):
        result = ablation_bounds(TINY_SCALE)
        assert {row["indexing"] for row in result.rows} == {"INV", "AP", "L2AP", "L2"}

    def test_ablation_baseline_pair_counts_agree(self):
        result = ablation_baseline(TINY_SCALE)
        for row in result.rows:
            assert row["pairs"] == row["baseline_pairs"]
