"""Stage-level profiling wrapper around any compute kernel.

:class:`ProfilingKernel` decorates a :class:`~repro.backends.base.SimilarityKernel`
and accumulates wall-clock time per pipeline stage:

``scan``
    The candidate-generation posting-list scans (accumulation, admission
    bounds, time filtering — including any amortised compaction a scan
    triggers).
``filter``
    Freezing the accumulated scores into a
    :class:`~repro.backends.base.CandidateSet` (dedup/ordering work).
``verify``
    Candidate verification: the ``ps1``/``ds1``/``sz2`` bound checks and
    the residual dot products.
``maintenance``
    Index construction and upkeep outside the scans: the indexing-split
    bound scan, bulk posting appends, and the residual-metadata hooks.

The wrapper is a drop-in kernel — pass it anywhere a ``backend`` is
accepted (``resolve_kernel`` takes instances) — and powers the
``sssj profile`` CLI subcommand.  Timing uses ``time.perf_counter`` around
each kernel call, so per-call overhead is a few hundred nanoseconds; the
relative breakdown is what matters.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import Any

from repro import obs
from repro.backends.base import CandidateSet, ScoreAccumulator, SimilarityKernel

__all__ = ["ProfilingKernel", "STAGES"]

#: Stage names in reporting order.
STAGES = ("scan", "filter", "verify", "maintenance")


def _collect_stages(kernel: "ProfilingKernel") -> None:
    """Scrape-time collector: stage timings onto the metrics registry."""
    registry = obs.get_registry()
    seconds = registry.counter(
        "sssj_stage_seconds_total",
        "Wall-clock seconds spent per pipeline stage.",
        ("stage", "backend"))
    calls = registry.counter(
        "sssj_stage_calls_total",
        "Kernel calls per pipeline stage.",
        ("stage", "backend"))
    tracker = kernel._obs_tracker
    for stage in STAGES:
        tracker.export(seconds.labels(stage=stage, backend=kernel.name),
                       ("seconds", stage), kernel.stage_seconds[stage])
        tracker.export(calls.labels(stage=stage, backend=kernel.name),
                       ("calls", stage), kernel.stage_calls[stage])


class _TimedAccumulator(ScoreAccumulator):
    """Accumulator proxy that charges ``finalize`` to the filter stage."""

    __slots__ = ("_inner", "_profile")

    def __init__(self, inner: ScoreAccumulator, profile: "ProfilingKernel") -> None:
        self._inner = inner
        self._profile = profile

    def finalize(self) -> CandidateSet:
        start = time.perf_counter()
        result = self._inner.finalize()
        self._profile._charge("filter", time.perf_counter() - start)
        return result

    def __getattr__(self, name: str) -> Any:
        # Scan kernels reach into backend-specific accumulator state
        # (scores/pruned dicts, touched-slot lists); forward transparently.
        return getattr(self._inner, name)


class ProfilingKernel(SimilarityKernel):
    """Delegating kernel that accumulates per-stage wall-clock time."""

    def __init__(self, inner: SimilarityKernel) -> None:
        self._inner = inner
        self.name = f"{inner.name}+profile"
        self.stage_seconds: dict[str, float] = {stage: 0.0 for stage in STAGES}
        self.stage_calls: dict[str, int] = {stage: 0 for stage in STAGES}
        # Stage totals also feed the unified metrics registry; the
        # collector runs only at scrape time, so the per-call hot path
        # stays a plain dict add.
        self._obs_tracker = obs.DeltaTracker()
        if obs.enabled():
            obs.get_registry().add_collector(_collect_stages, owner=self)
        # Warm the wrapped kernel now so a compiled backend's one-time JIT
        # cost lands here, not inside the first scan — the breakdown would
        # otherwise charge seconds of compilation to the "scan" stage.
        self.warmup_seconds = float(inner.warmup())

    def warmup(self) -> float:
        return self._inner.warmup()

    # -- reporting -----------------------------------------------------------

    def _charge(self, stage: str, elapsed: float) -> None:
        self.stage_seconds[stage] += elapsed
        self.stage_calls[stage] += 1

    def report_rows(self, total_elapsed: float) -> list[dict[str, Any]]:
        """Table rows of the breakdown, with the unattributed remainder."""
        rows = []
        attributed = 0.0
        for stage in STAGES:
            seconds = self.stage_seconds[stage]
            attributed += seconds
            rows.append({
                "stage": stage,
                "seconds": round(seconds, 4),
                "share": f"{seconds / total_elapsed:.1%}" if total_elapsed else "-",
                "calls": self.stage_calls[stage],
            })
        other = max(total_elapsed - attributed, 0.0)
        rows.append({
            "stage": "other (driver)",
            "seconds": round(other, 4),
            "share": f"{other / total_elapsed:.1%}" if total_elapsed else "-",
            "calls": "",
        })
        return rows

    # -- timed delegation ----------------------------------------------------

    def _timed(self, stage: str, method, *args, **kwargs):
        start = time.perf_counter()
        result = method(*args, **kwargs)
        self._charge(stage, time.perf_counter() - start)
        return result

    def configure_approx(self, config: Any) -> None:
        # Untimed: one-off setup, not a pipeline stage.
        self._inner.configure_approx(config)

    def new_posting_list(self) -> Any:
        return self._inner.new_posting_list()

    def new_accumulator(self) -> ScoreAccumulator:
        return _TimedAccumulator(self._inner.new_accumulator(), self)

    def new_size_filter(self):
        return self._inner.new_size_filter()

    def note_vector_indexed(self, entry) -> None:
        self._timed("maintenance", self._inner.note_vector_indexed, entry)

    def note_vector_updated(self, entry) -> None:
        self._timed("maintenance", self._inner.note_vector_updated, entry)

    def note_vector_evicted(self, vector_id: int) -> None:
        self._timed("maintenance", self._inner.note_vector_evicted, vector_id)

    def indexing_split(self, vector, threshold, *, max_vector, use_ap,
                       use_l2, limit=None):
        return self._timed("maintenance", self._inner.indexing_split,
                           vector, threshold, max_vector=max_vector,
                           use_ap=use_ap, use_l2=use_l2, limit=limit)

    def index_vector_postings(self, index, vector, start=0, end=None) -> int:
        return self._timed("maintenance", self._inner.index_vector_postings,
                           index, vector, start, end)

    def scan_query_batch(self, vector, index, *, threshold, rs1, maxima,
                         sz1, use_ap, use_l2, size_filter, acc) -> int:
        return self._timed("scan", self._inner.scan_query_batch,
                           vector, index, threshold=threshold, rs1=rs1,
                           maxima=maxima, sz1=sz1, use_ap=use_ap,
                           use_l2=use_l2, size_filter=size_filter,
                           acc=self._unwrap(acc))

    def scan_query_stream(self, vector, index, *, now, cutoff, decay, rs1,
                          decayed_maxima, sz1, threshold, use_ap, use_l2,
                          time_ordered, size_filter, acc):
        return self._timed("scan", self._inner.scan_query_stream,
                           vector, index, now=now, cutoff=cutoff,
                           decay=decay, rs1=rs1,
                           decayed_maxima=decayed_maxima, sz1=sz1,
                           threshold=threshold, use_ap=use_ap, use_l2=use_l2,
                           time_ordered=time_ordered,
                           size_filter=size_filter, acc=self._unwrap(acc))

    def scan_query_inv_batch(self, vector, index, acc) -> int:
        return self._timed("scan", self._inner.scan_query_inv_batch,
                           vector, index, self._unwrap(acc))

    def scan_query_inv_stream(self, vector, index, cutoff, acc):
        return self._timed("scan", self._inner.scan_query_inv_stream,
                           vector, index, cutoff, self._unwrap(acc))

    def verify_batch(self, query, candidates, residual, threshold, stats):
        return self._timed("verify", self._inner.verify_batch,
                           query, candidates, residual, threshold, stats)

    def verify_stream(self, query, candidates, residual, threshold, decay,
                      now, stats):
        return self._timed("verify", self._inner.verify_stream,
                           query, candidates, residual, threshold, decay,
                           now, stats)

    def verify_inv_stream(self, query, candidates, threshold, decay, now,
                          stats):
        return self._timed("verify", self._inner.verify_inv_stream,
                           query, candidates, threshold, decay, now, stats)

    def begin_query(self, vector) -> None:
        self._inner.begin_query(vector)

    def end_query(self, vector) -> None:
        self._inner.end_query(vector)

    def residual_dot(self, query, entry) -> float:
        return self._inner.residual_dot(query, entry)

    def dots_for(self, query, others: Sequence) -> list[float]:
        return self._inner.dots_for(query, others)

    @staticmethod
    def _unwrap(acc: ScoreAccumulator) -> ScoreAccumulator:
        return acc._inner if isinstance(acc, _TimedAccumulator) else acc
