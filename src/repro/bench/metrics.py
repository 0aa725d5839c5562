"""Per-run metrics collected by the benchmark harness.

Also the least-squares line of Figure 9: the paper closes its evaluation
by showing that the running time of STR-L2 is roughly a linear function
of the time horizon ``τ = λ⁻¹ ln θ⁻¹``, with WebSpam as an outlier
because of its much higher density; :func:`fit_line` is that fit.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.results import JoinStatistics
from repro.core.similarity import time_horizon
from repro.obs import percentile

__all__ = ["LatencyStats", "LinearFit", "RunMetrics", "fit_line"]


class LatencyStats:
    """Per-item latency percentiles over a bounded sliding window.

    The benchmark runner, the ``sssj profile`` table and the service's
    ``/stats`` endpoint all report p50/p95/p99 per-item latency through
    this one class.  Samples are kept in a fixed-size window (newest
    ``window`` items) so a long-running service can record latencies
    forever with bounded memory; ``count`` still tracks the lifetime
    total and ``window_dropped`` how many samples aged out of the
    window, so a saturated window is visible rather than silently
    biased.  Percentiles of the retained window follow
    :func:`repro.obs.percentile`, the rule the metrics registry's
    histograms use too.

    Thread-safe: the service records from a pool worker while the
    ``stats`` endpoint summarises from server dispatch threads.
    """

    def __init__(self, window: int = 65536) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._samples: deque[float] = deque(maxlen=window)
        self._lock = threading.Lock()
        self.count = 0
        self.total_seconds = 0.0
        self.window_dropped = 0

    def record(self, seconds: float) -> None:
        """Record one per-item latency measured in seconds."""
        with self._lock:
            if len(self._samples) == self.window:
                self.window_dropped += 1
            self._samples.append(seconds)
            self.count += 1
            self.total_seconds += seconds

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def percentile(self, p: float) -> float:
        """``p``-th percentile (in seconds) of the retained window.

        Nearest-rank for n ≥ 3, linear interpolation below that.
        Returns 0.0 when no samples have been recorded.
        """
        with self._lock:
            ordered = sorted(self._samples)
        return percentile(ordered, p)

    def summary(self) -> dict[str, float]:
        """The p50/p95/p99 row (milliseconds) shared by every consumer."""
        with self._lock:
            ordered = sorted(self._samples)
            count = self.count
            total_seconds = self.total_seconds
            window_dropped = self.window_dropped
        mean_s = total_seconds / count if count else 0.0
        return {
            "count": count,
            "window_dropped": window_dropped,
            "mean_ms": round(mean_s * 1e3, 4),
            "p50_ms": round(percentile(ordered, 50) * 1e3, 4),
            "p95_ms": round(percentile(ordered, 95) * 1e3, 4),
            "p99_ms": round(percentile(ordered, 99) * 1e3, 4),
            "max_ms": round(ordered[-1] * 1e3, 4) if ordered else 0.0,
        }


@dataclass
class RunMetrics:
    """Everything measured for one (algorithm, dataset, θ, λ) run.

    ``completed`` is false when the run exceeded its operation or wall-clock
    budget; incomplete runs keep whatever counters they accumulated before
    being aborted (mirroring the paper's Table 2 treatment of timed-out
    configurations).
    """

    algorithm: str
    dataset: str
    threshold: float
    decay: float
    num_vectors: int
    elapsed_seconds: float = 0.0
    pairs: int = 0
    completed: bool = True
    abort_reason: str = ""
    stats: JoinStatistics = field(default_factory=JoinStatistics)
    latency: LatencyStats = field(default_factory=LatencyStats)

    @property
    def horizon(self) -> float:
        """Time horizon ``τ`` of the configuration."""
        return time_horizon(self.threshold, self.decay)

    @property
    def entries_traversed(self) -> int:
        return self.stats.entries_traversed

    @property
    def candidates_generated(self) -> int:
        return self.stats.candidates_generated

    @property
    def full_similarities(self) -> int:
        return self.stats.full_similarities

    @property
    def operations(self) -> int:
        return self.stats.operations

    @property
    def throughput(self) -> float:
        """Vectors processed per second (0 when the run took no time)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.stats.vectors_processed / self.elapsed_seconds

    def latency_row(self) -> dict[str, object]:
        """Per-item latency percentile row (``sssj profile``, service stats)."""
        return dict(self.latency.summary())

    def as_row(self) -> dict[str, object]:
        """Flat dictionary used by the table renderers."""
        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "theta": self.threshold,
            "lambda": self.decay,
            "tau": round(self.horizon, 4),
            "time_s": round(self.elapsed_seconds, 4),
            "pairs": self.pairs,
            "entries": self.entries_traversed,
            "candidates": self.candidates_generated,
            "full_sims": self.full_similarities,
            "completed": self.completed,
        }


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
