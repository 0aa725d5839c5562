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
    bound scan, bulk posting appends and loads, and the residual-metadata
    hooks.

Every public method of the kernel interface is forwarded to the wrapped
kernel, timed when ``_STAGE_OF`` names its stage, so the wrapper runs
exactly the code the bare kernel would.  It is a drop-in kernel — pass it
anywhere a ``backend`` is accepted (``resolve_kernel`` takes instances) —
and powers the ``sssj profile`` CLI subcommand.  Timing uses
``time.perf_counter`` around each kernel call, so per-call overhead is a
few hundred nanoseconds; the relative breakdown is what matters.
"""

from __future__ import annotations

import time
from typing import Any

from repro import obs
from repro.backends.base import CandidateSet, ScoreAccumulator, SimilarityKernel

__all__ = ["ProfilingKernel", "STAGES"]

#: Stage names in reporting order.
STAGES = ("scan", "filter", "verify", "maintenance")

#: The stage each timed kernel method is charged to; the other public
#: methods (storage factories, approx setup, the baselines' ``dots_for``)
#: are forwarded untimed.  ``filter`` is charged by the accumulators
#: :meth:`ProfilingKernel.new_accumulator` hands out.
_STAGE_OF = {
    "scan_query_batch": "scan",
    "scan_query_stream": "scan",
    "scan_query_inv_batch": "scan",
    "scan_query_inv_stream": "scan",
    "verify_batch": "verify",
    "verify_stream": "verify",
    "verify_inv_stream": "verify",
    "indexing_split": "maintenance",
    "index_vector_postings": "maintenance",
    "load_postings": "maintenance",
    "note_vector_indexed": "maintenance",
    "note_vectors_indexed": "maintenance",
    "note_vector_updated": "maintenance",
    "note_vector_evicted": "maintenance",
}


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


def _unwrap(value: Any) -> Any:
    """The wrapped kernel's own accumulator in place of its timed proxy."""
    return value._inner if isinstance(value, _TimedAccumulator) else value


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

    def new_accumulator(self) -> ScoreAccumulator:
        return _TimedAccumulator(self._inner.new_accumulator(), self)


def _forwarder(name: str):
    """``ProfilingKernel.<name>``: call the wrapped kernel's method, timed
    when ``_STAGE_OF`` names a stage for it."""
    stage = _STAGE_OF.get(name)
    if stage is None:
        def method(self, *args, **kwargs):
            return getattr(self._inner, name)(*args, **kwargs)
    else:
        def method(self, *args, **kwargs):
            args = tuple(map(_unwrap, args))
            kwargs = {key: _unwrap(value) for key, value in kwargs.items()}
            inner = getattr(self._inner, name)
            start = time.perf_counter()
            result = inner(*args, **kwargs)
            self._charge(stage, time.perf_counter() - start)
            return result
    method.__name__ = name
    method.__qualname__ = f"ProfilingKernel.{name}"
    return method


# Every public kernel method is forwarded, so none falls back to a
# base-class default that the wrapped backend overrides.
for _name, _value in vars(SimilarityKernel).items():
    if (_name.startswith("_") or _name in ProfilingKernel.__dict__
            or not callable(_value)):
        continue
    setattr(ProfilingKernel, _name, _forwarder(_name))
ProfilingKernel.__abstractmethods__ = frozenset()
