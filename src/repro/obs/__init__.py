"""Unified observability layer: metrics registry, spans, exporters.

One module-level :class:`~repro.obs.registry.MetricsRegistry` and one
:class:`~repro.obs.tracing.Tracer` serve the whole process; every tier
(engine collectors, shard executor, service sessions, scheduler)
instruments against this facade so all telemetry shares the ``sssj_``
namespace and one label schema (``tenant``, ``session``, ``shard``,
``backend``, ``stage``, ``op``, ``kind``).

Hot-path contract: when observability is disabled (``SSSJ_OBS=0`` or
:func:`set_enabled`), :func:`span` returns a shared no-op and
instrumentation sites skip their counter binds entirely, so the cost is
one module-global read.  When enabled, counters use per-thread cells
and spans are sampled — the ``obs_overhead`` benchmark gate pins the
end-to-end cost at ≤5% on the full-size STR-L2AP workload.

The metric catalogue, label schema and span taxonomy live in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import os

from repro.obs.export import (CONTENT_TYPE, MetricsHTTPServer,
                              render_prometheus, start_metrics_server)
from repro.obs.registry import (DEFAULT_BUCKETS, Counter, DeltaTracker,
                                Gauge, Histogram, MetricsRegistry,
                                OVERFLOW_LABEL, percentile)
from repro.obs.tracing import NULL_SPAN, Span, SpanWriter, Tracer

__all__ = [
    "CONTENT_TYPE", "Counter", "DEFAULT_BUCKETS", "DeltaTracker", "Gauge",
    "Histogram", "MetricsHTTPServer", "MetricsRegistry", "NULL_SPAN",
    "OVERFLOW_LABEL", "Span", "SpanWriter", "Tracer", "configure",
    "enabled", "get_registry", "get_tracer", "percentile", "render",
    "set_enabled", "set_registry", "set_tracer", "span",
    "start_metrics_server",
]

_enabled = os.environ.get("SSSJ_OBS", "1").strip().lower() not in (
    "0", "false", "no", "off")
_registry = MetricsRegistry()
_tracer = Tracer()  # inert until configure() gives it a sink or slow_ms


def enabled() -> bool:
    """True when instrumentation sites should bind counters/spans."""
    return _enabled


def set_enabled(flag: bool) -> None:
    global _enabled
    _enabled = bool(flag)


def get_registry() -> MetricsRegistry:
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process registry (tests, benchmark isolation)."""
    global _registry
    previous = _registry
    _registry = registry
    return previous


def get_tracer() -> Tracer:
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


def span(name: str, **attrs):
    """Start a span on the process tracer (no-op unless tracing is on)."""
    if not _enabled:
        return NULL_SPAN
    return _tracer.span(name, **attrs)


def configure(*, trace_sample: float | None = None,
              span_path=None, slow_batch_ms: float | None = None,
              seed: int = 0, on_slow=None) -> Tracer:
    """Build and install the process tracer from the serve-time knobs.

    Returns the previous tracer so callers can restore it (its
    SpanWriter, if any, is left open — the caller owns sink lifetime).
    """
    sink = SpanWriter(span_path) if span_path is not None else None
    tracer = Tracer(sample=trace_sample or 0.0, seed=seed, sink=sink,
                    slow_ms=slow_batch_ms, on_slow=on_slow)
    return set_tracer(tracer)


def render() -> str:
    """Prometheus text for the process registry."""
    return render_prometheus(_registry)
