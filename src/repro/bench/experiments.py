"""One function per table/figure of the paper's evaluation (Section 7).

Every function returns an :class:`ExperimentResult` whose ``rows`` hold the
same quantities the paper plots, so the benchmark modules under
``benchmarks/`` only need to execute the function and print the rendered
table.  The experiments run on the synthetic dataset profiles of
:mod:`repro.datasets.profiles`; sizes and grids are controlled by an
:class:`~repro.bench.config.ExperimentScale`.

Correspondence with the paper:

=============  ===============================================================
``table1``     dataset statistics (Table 1)
``table2``     fraction of (θ, λ) configurations finishing within budget
``figure2``    ratio of index entries traversed, STR vs MB, as a function of τ
``figure3``    MB vs STR running time on the RCV1 profile
``figure4``    MB vs STR running time on the WebSpam profile
``figure5``    STR running time by index on the RCV1 profile
``figure6``    STR entries traversed by index on the Tweets profile
``figure7``    STR-L2 running time as a function of λ (all profiles)
``figure8``    STR-L2 running time as a function of θ (all profiles)
``figure9``    linear regression of STR-L2 running time on the horizon τ
``ablation_bounds``     extra: bound-family ablation (INV/AP/L2AP/L2 under STR)
``ablation_baseline``   extra: index pruning vs the exact sliding-window join
=============  ===============================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.baselines.sliding_window import SlidingWindowJoin
from repro.bench.config import DATASETS, INDEXES, ExperimentScale, default_scale
from repro.bench.metrics import RunMetrics, fit_line
from repro.bench.runner import corpus_for, run_algorithm, sweep
from repro.bench.tables import render_table
from repro.core.similarity import time_horizon
from repro.datasets.profiles import get_profile
from repro.datasets.stats import dataset_statistics

__all__ = [
    "ExperimentResult",
    "table1",
    "table2",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "ablation_bounds",
    "ablation_baseline",
    "ALL_EXPERIMENTS",
    "run_experiment",
]


@dataclass
class ExperimentResult:
    """Output of one reproduced table or figure."""

    experiment_id: str
    title: str
    rows: list[dict[str, Any]]
    notes: str = ""
    extra: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        """Aligned text rendering (what the benchmark modules print)."""
        parts = [render_table(self.rows, title=f"{self.experiment_id}: {self.title}")]
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)


# ---------------------------------------------------------------------------
# Table 1 — dataset statistics
# ---------------------------------------------------------------------------


def table1(scale: ExperimentScale | None = None) -> ExperimentResult:
    """Dataset statistics of the four synthetic profiles (paper Table 1)."""
    scale = scale or default_scale()
    rows = []
    for dataset in DATASETS:
        profile = get_profile(dataset)
        vectors = corpus_for(dataset, scale.vectors_for(dataset), seed=scale.seed)
        stats = dataset_statistics(vectors, name=dataset,
                                   timestamp_type=profile.arrival_process)
        rows.append(stats.as_row())
    return ExperimentResult(
        experiment_id="table1",
        title="Dataset statistics (synthetic profiles mirroring paper Table 1)",
        rows=rows,
        notes="Densities span two orders of magnitude, as in the paper: "
              "webspam is the densest profile and tweets the sparsest.",
    )


# ---------------------------------------------------------------------------
# Table 2 — fraction of configurations that finish within budget
# ---------------------------------------------------------------------------


def table2(scale: ExperimentScale | None = None, *,
           operation_budget: int | None = None) -> ExperimentResult:
    """Fraction of (θ, λ) configurations finishing within the budget (Table 2).

    The paper aborts configurations after a 3-hour timeout; the reproduction
    uses a machine-independent operation budget proportional to the corpus
    size instead.  Values closer to 1.00 are better.
    """
    scale = scale or default_scale()
    rows: list[dict[str, Any]] = []
    for dataset in DATASETS:
        num_vectors = scale.vectors_for(dataset)
        vectors = corpus_for(dataset, num_vectors, seed=scale.seed)
        total_nnz = sum(len(v) for v in vectors)
        budget = operation_budget if operation_budget is not None else 40 * total_nnz
        row: dict[str, Any] = {"dataset": dataset, "budget_ops": budget}
        for framework in ("MB", "STR"):
            for index in INDEXES:
                algorithm = f"{framework}-{index}"
                finished = 0
                total = 0
                for threshold in scale.thetas:
                    for decay in scale.decays:
                        total += 1
                        metrics = run_algorithm(
                            algorithm, vectors, threshold, decay,
                            dataset=dataset, operation_budget=budget,
                        )
                        finished += int(metrics.completed)
                row[algorithm] = round(finished / total, 2) if total else 0.0
        rows.append(row)
    return ExperimentResult(
        experiment_id="table2",
        title="Fraction of (θ, λ) configurations finishing within the operation budget",
        rows=rows,
        notes="Paper Table 2: MB degrades on the larger/sparser datasets while "
              "STR completes (almost) everywhere.",
    )


# ---------------------------------------------------------------------------
# Figure 2 — entries traversed, STR vs MB, as a function of τ
# ---------------------------------------------------------------------------


def figure2(scale: ExperimentScale | None = None) -> ExperimentResult:
    """Ratio of index entries traversed during CG by STR vs MB (Figure 2)."""
    scale = scale or default_scale()
    rows: list[dict[str, Any]] = []
    for dataset in ("webspam", "rcv1"):
        vectors = corpus_for(dataset, scale.vectors_for(dataset), seed=scale.seed)
        for threshold in scale.thetas:
            for decay in scale.decays:
                str_run = run_algorithm("STR-L2", vectors, threshold, decay, dataset=dataset)
                mb_run = run_algorithm("MB-L2", vectors, threshold, decay, dataset=dataset)
                ratio = (str_run.entries_traversed / mb_run.entries_traversed
                         if mb_run.entries_traversed else float("nan"))
                rows.append({
                    "dataset": dataset,
                    "theta": threshold,
                    "lambda": decay,
                    "tau": round(time_horizon(threshold, decay), 4),
                    "entries_STR": str_run.entries_traversed,
                    "entries_MB": mb_run.entries_traversed,
                    "ratio": round(ratio, 3),
                })
    return ExperimentResult(
        experiment_id="figure2",
        title="Ratio of index entries traversed during CG, STR / MB (L2 index)",
        rows=rows,
        notes="Paper Figure 2: for large horizons τ STR traverses roughly 65% of "
              "the entries MB does; for small τ the ratio approaches (or exceeds) 1.",
    )


# ---------------------------------------------------------------------------
# Figures 3 & 4 — MB vs STR running time
# ---------------------------------------------------------------------------


def _mb_vs_str(dataset: str, scale: ExperimentScale) -> list[dict[str, Any]]:
    results = sweep(
        [f"{framework}-{index}" for index in INDEXES for framework in ("MB", "STR")],
        [dataset], scale,
    )
    rows = []
    for metrics in results:
        framework, index = metrics.algorithm.split("-", maxsplit=1)
        rows.append({
            "dataset": dataset,
            "indexing": index,
            "algorithm": framework,
            "theta": metrics.threshold,
            "lambda": metrics.decay,
            "time_s": round(metrics.elapsed_seconds, 4),
            "entries": metrics.entries_traversed,
            "pairs": metrics.pairs,
        })
    return rows


def figure3(scale: ExperimentScale | None = None) -> ExperimentResult:
    """MB vs STR running time on the RCV1 profile (Figure 3)."""
    scale = scale or default_scale()
    rows = _mb_vs_str("rcv1", scale)
    return ExperimentResult(
        experiment_id="figure3",
        title="Time of MB vs STR as a function of θ, RCV1 profile",
        rows=rows,
        notes="Paper Figure 3: on RCV1 STR is faster than MB in most "
              "configurations, with up to ~4x gains at low θ.",
    )


def figure4(scale: ExperimentScale | None = None) -> ExperimentResult:
    """MB vs STR running time on the WebSpam profile (Figure 4)."""
    scale = scale or default_scale()
    rows = _mb_vs_str("webspam", scale)
    return ExperimentResult(
        experiment_id="figure4",
        title="Time of MB vs STR as a function of θ, WebSpam profile",
        rows=rows,
        notes="Paper Figure 4: the dense WebSpam corpus is the one setting where "
              "MB can beat STR, especially at larger decay factors.",
    )


# ---------------------------------------------------------------------------
# Figure 5 — STR running time by index (RCV1)
# ---------------------------------------------------------------------------


def figure5(scale: ExperimentScale | None = None) -> ExperimentResult:
    """STR running time by index on the RCV1 profile (Figure 5)."""
    scale = scale or default_scale()
    results = sweep([f"STR-{index}" for index in INDEXES], ["rcv1"], scale)
    rows = [{
        "indexing": metrics.algorithm.split("-", 1)[1],
        "theta": metrics.threshold,
        "lambda": metrics.decay,
        "time_s": round(metrics.elapsed_seconds, 4),
        "entries": metrics.entries_traversed,
        "candidates": metrics.candidates_generated,
        "full_sims": metrics.full_similarities,
        "reindexings": metrics.stats.reindexings,
    } for metrics in results]
    return ExperimentResult(
        experiment_id="figure5",
        title="Time of STR by index as a function of θ, RCV1 profile",
        rows=rows,
        notes="Paper Figure 5: L2 is almost always the fastest; INV is competitive "
              "only at short horizons; L2AP pays for re-indexing at large λ.",
    )


# ---------------------------------------------------------------------------
# Figure 6 — STR entries traversed by index (Tweets)
# ---------------------------------------------------------------------------


def figure6(scale: ExperimentScale | None = None) -> ExperimentResult:
    """STR entries traversed by index on the Tweets profile (Figure 6)."""
    scale = scale or default_scale()
    results = sweep([f"STR-{index}" for index in INDEXES], ["tweets"], scale)
    rows = [{
        "indexing": metrics.algorithm.split("-", 1)[1],
        "theta": metrics.threshold,
        "lambda": metrics.decay,
        "entries": metrics.entries_traversed,
        "candidates": metrics.candidates_generated,
        "full_sims": metrics.full_similarities,
        "time_s": round(metrics.elapsed_seconds, 4),
    } for metrics in results]
    return ExperimentResult(
        experiment_id="figure6",
        title="Entries traversed by STR by index as a function of θ, Tweets profile",
        rows=rows,
        notes="Paper Figure 6: INV traverses the most entries; L2 loses little "
              "pruning power despite dropping the AP bounds; L2AP traverses more "
              "as the horizon shrinks because its lists are no longer time-ordered.",
    )


# ---------------------------------------------------------------------------
# Figures 7, 8, 9 — STR-L2 across datasets and parameters
# ---------------------------------------------------------------------------


def _str_l2_sweep(scale: ExperimentScale) -> list[RunMetrics]:
    return sweep(["STR-L2"], DATASETS, scale)


def _l2_rows(results: list[RunMetrics]) -> list[dict[str, Any]]:
    return [{
        "dataset": metrics.dataset,
        "theta": metrics.threshold,
        "lambda": metrics.decay,
        "tau": round(metrics.horizon, 4),
        "time_s": round(metrics.elapsed_seconds, 4),
        "entries": metrics.entries_traversed,
        "pairs": metrics.pairs,
    } for metrics in results]


def figure7(scale: ExperimentScale | None = None) -> ExperimentResult:
    """STR-L2 running time as a function of λ, per θ, all profiles (Figure 7)."""
    scale = scale or default_scale()
    rows = _l2_rows(_str_l2_sweep(scale))
    return ExperimentResult(
        experiment_id="figure7",
        title="Time of STR-L2 as a function of λ for different θ",
        rows=rows,
        notes="Paper Figure 7: increasing the decay factor decreases the running "
              "time on every dataset, most markedly at low thresholds.",
    )


def figure8(scale: ExperimentScale | None = None) -> ExperimentResult:
    """STR-L2 running time as a function of θ, per λ, all profiles (Figure 8)."""
    scale = scale or default_scale()
    rows = _l2_rows(_str_l2_sweep(scale))
    return ExperimentResult(
        experiment_id="figure8",
        title="Time of STR-L2 as a function of θ for different λ",
        rows=rows,
        notes="Paper Figure 8: same runs viewed along the other axis — increasing "
              "the threshold decreases the running time, flattening out at high λ.",
    )


def figure9(scale: ExperimentScale | None = None) -> ExperimentResult:
    """Linear regression of STR-L2 running time on the horizon τ (Figure 9)."""
    scale = scale or default_scale()
    results = _str_l2_sweep(scale)
    rows: list[dict[str, Any]] = []
    fits: dict[str, Any] = {}
    for dataset in DATASETS:
        points = [(metrics.horizon, metrics.elapsed_seconds)
                  for metrics in results if metrics.dataset == dataset]
        # Horizons longer than the stream itself all behave identically (the
        # whole stream fits in the window), so cap the regressor at the
        # stream's time span; the paper's corpora are long enough that this
        # never matters there.
        corpus = corpus_for(dataset, scale.vectors_for(dataset), seed=scale.seed)
        span = corpus[-1].timestamp - corpus[0].timestamp if corpus else 0.0
        xs = [min(tau, span) for tau, _ in points]
        ys = [seconds for _, seconds in points]
        fit = fit_line(xs, ys)
        fits[dataset] = fit
        rows.append({
            "dataset": dataset,
            "slope_s_per_tau": round(fit.slope, 6),
            "intercept_s": round(fit.intercept, 4),
            "r_squared": round(fit.r_squared, 3),
            "points": fit.num_points,
        })
    return ExperimentResult(
        experiment_id="figure9",
        title="Linear regression of STR-L2 time on the horizon τ",
        rows=rows,
        notes="Paper Figure 9: time grows roughly linearly with τ; the dense "
              "WebSpam profile has a markedly larger slope than the others.",
        extra={"fits": fits},
    )


# ---------------------------------------------------------------------------
# Ablations (design choices called out in Sections 5.4 and 6)
# ---------------------------------------------------------------------------


def ablation_bounds(scale: ExperimentScale | None = None) -> ExperimentResult:
    """Bound-family ablation: INV vs AP vs L2AP vs L2 under STR."""
    scale = scale or default_scale()
    results = sweep(["STR-INV", "STR-AP", "STR-L2AP", "STR-L2"], ["rcv1", "tweets"], scale,
                    thetas=(0.5, 0.7, 0.9), decays=(1e-3, 1e-2, 1e-1))
    rows = [{
        "dataset": metrics.dataset,
        "indexing": metrics.algorithm.split("-", 1)[1],
        "theta": metrics.threshold,
        "lambda": metrics.decay,
        "time_s": round(metrics.elapsed_seconds, 4),
        "entries": metrics.entries_traversed,
        "candidates": metrics.candidates_generated,
        "full_sims": metrics.full_similarities,
        "reindexings": metrics.stats.reindexings,
        "index_size": metrics.stats.max_index_size,
    } for metrics in results]
    return ExperimentResult(
        experiment_id="ablation_bounds",
        title="Ablation: which bound family earns its keep in the streaming setting",
        rows=rows,
        notes="The ℓ₂ bounds provide nearly all the pruning; adding the AP bounds "
              "(AP, L2AP) costs re-indexing and unordered posting lists.",
    )


def ablation_baseline(scale: ExperimentScale | None = None) -> ExperimentResult:
    """Index pruning vs the exact sliding-window baseline."""
    scale = scale or default_scale()
    rows: list[dict[str, Any]] = []
    for dataset in ("rcv1", "tweets"):
        vectors = corpus_for(dataset, scale.vectors_for(dataset), seed=scale.seed)
        for threshold, decay in ((0.5, 1e-2), (0.7, 1e-2), (0.9, 1e-1)):
            start = time.perf_counter()
            window = SlidingWindowJoin(threshold, decay)
            baseline_pairs = sum(len(window.process(vector)) for vector in vectors)
            baseline_seconds = time.perf_counter() - start
            l2_run = run_algorithm("STR-L2", vectors, threshold, decay, dataset=dataset)
            rows.append({
                "dataset": dataset,
                "theta": threshold,
                "lambda": decay,
                "pairs": l2_run.pairs,
                "baseline_pairs": baseline_pairs,
                "baseline_time_s": round(baseline_seconds, 4),
                "str_l2_time_s": round(l2_run.elapsed_seconds, 4),
                "baseline_sims": window.stats.full_similarities,
                "str_l2_sims": l2_run.full_similarities,
            })
    return ExperimentResult(
        experiment_id="ablation_baseline",
        title="Ablation: STR-L2 vs the exact sliding-window join (no index pruning)",
        rows=rows,
        notes="Both produce identical pair sets; the index prunes most of the "
              "full similarity computations the naive window join performs.",
    )


#: Registry used by the CLI (`sssj experiment <id>`) and the benchmark suite.
ALL_EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "figure2": figure2,
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "ablation_bounds": ablation_bounds,
    "ablation_baseline": ablation_baseline,
}


def run_experiment(experiment_id: str,
                   scale: ExperimentScale | None = None) -> ExperimentResult:
    """Run one of the registered experiments by identifier."""
    try:
        factory = ALL_EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(ALL_EXPERIMENTS)}"
        ) from None
    return factory(scale)
