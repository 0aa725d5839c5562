"""Zero-dependency metrics registry: counters, gauges, bounded histograms.

The registry is the single naming authority for telemetry across every
tier (engine, shards, service, scheduler).  Three instrument kinds:

``Counter``
    Monotone float.  The hot path writes a *per-thread cell* — a plain
    dict entry keyed by ``threading.get_ident()`` that only its owning
    thread ever mutates — so steady-state increments take no lock (the
    GIL makes the single ``dict`` slot update atomic).  The registry
    lock is taken only the first time a thread touches a counter and
    whenever a reader sums the cells.
``Gauge``
    Last-write-wins float, lock-protected (set on scrape or on rare
    structural events, never per item).
``Histogram``
    Fixed cumulative buckets (Prometheus style) plus a bounded sample
    window for percentile queries.  When the window is full the oldest
    sample is dropped and ``window_dropped`` is incremented so a
    saturated window is visible rather than silently biased.

Instruments are grouped in *families* keyed by metric name; a family
hands out children per label-value tuple.  Families enforce a series
cap: once ``max_series`` distinct label sets exist, further label
combinations collapse into a single ``overflow`` child and the drop is
counted — a misbehaving label (e.g. a session id in a high-churn
service) degrades telemetry instead of memory.

Collector callbacks bridge existing stats objects (``JoinStatistics``,
scheduler/pool/ready stats dicts, shard stage timings) into the
registry at *scrape time* only, so instrumented subsystems pay nothing
while nobody is looking.  Collectors hold their subject via weakref and
are pruned automatically once it dies.  :class:`DeltaTracker` converts
monotone totals read from those snapshots into counter increments, so
several instances (sessions, shards) can feed one labeled series.
"""

from __future__ import annotations

import bisect
import threading
import weakref
from collections import deque

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DeltaTracker",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "OVERFLOW_LABEL",
]

#: Latency-flavoured default buckets (seconds), 1ms .. 10s.
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Label value assigned to the spill-over child once a family is full.
OVERFLOW_LABEL = "overflow"


class Counter:
    """Monotone counter with per-thread accumulation cells."""

    kind = "counter"
    __slots__ = ("_lock", "_cells", "_base")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cells: dict[int, float] = {}
        self._base = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        tid = threading.get_ident()
        cells = self._cells
        if tid in cells:
            # Only this thread writes this key; no lock needed.
            cells[tid] += amount
        else:
            with self._lock:
                cells[tid] = cells.get(tid, 0.0) + amount

    def set_total(self, total: float) -> None:
        """Raise the counter to ``total`` if it is below it (monotone)."""
        with self._lock:
            current = self._base + sum(self._cells.values())
            if total > current:
                self._base += total - current

    def value(self) -> float:
        with self._lock:
            return self._base + sum(self._cells.values())


class Gauge:
    """Last-write-wins instantaneous value."""

    kind = "gauge"
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Cumulative-bucket histogram with a bounded percentile window."""

    kind = "histogram"
    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count",
                 "_window", "window_dropped")

    def __init__(self, buckets=DEFAULT_BUCKETS, window: int = 2048) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._lock = threading.Lock()
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        # One slot per finite bucket plus the +Inf slot.
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0
        self._window: deque[float] = deque(maxlen=int(window))
        self.window_dropped = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._counts[bisect.bisect_left(self.buckets, value)] += 1
            self._sum += value
            self._count += 1
            if len(self._window) == self._window.maxlen:
                self.window_dropped += 1
            self._window.append(value)

    def percentile(self, p: float) -> float:
        """Percentile over the bounded window (see :func:`percentile`)."""
        with self._lock:
            ordered = sorted(self._window)
        return percentile(ordered, p)

    def snapshot(self) -> dict:
        with self._lock:
            cumulative = []
            running = 0
            for bound, count in zip(self.buckets, self._counts):
                running += count
                cumulative.append((bound, running))
            return {
                "buckets": cumulative,
                "sum": self._sum,
                "count": self._count,
                "window": len(self._window),
                "window_dropped": self.window_dropped,
            }


def percentile(ordered: list[float], p: float) -> float:
    """The ``p``-th percentile, ``0 < p <= 100``, of sorted samples.

    The one percentile rule of the code base: nearest-rank (deterministic,
    dependency-free), except below three samples, where nearest-rank
    collapses every percentile onto one sample (p50 of two samples would
    be the smaller one) and linear interpolation is used instead.  Returns
    0.0 for no samples.
    """
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    n = len(ordered)
    if n == 0:
        return 0.0
    if n < 3:
        position = (n - 1) * p / 100.0
        low = int(position)
        high = min(low + 1, n - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    rank = max(1, -(-n * p // 100))  # ceil without floats
    return ordered[int(rank) - 1]


class MetricFamily:
    """All children (label-value combinations) of one metric name."""

    def __init__(self, name: str, kind: str, help_text: str,
                 labelnames: tuple[str, ...], *, max_series: int,
                 buckets=DEFAULT_BUCKETS, window: int = 2048) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self.max_series = int(max_series)
        self.dropped = 0
        self._buckets = buckets
        self._window = window
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def _new_child(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(buckets=self._buckets, window=self._window)

    def labels(self, **labels):
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {sorted(self.labelnames)}, "
                f"got {sorted(labels)}")
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is not None:
            return child
        with self._lock:
            child = self._children.get(key)
            if child is not None:
                return child
            if len(self._children) >= self.max_series:
                self.dropped += 1
                key = (OVERFLOW_LABEL,) * len(self.labelnames)
                child = self._children.get(key)
                if child is not None:
                    return child
            child = self._new_child()
            self._children[key] = child
            return child

    def samples(self):
        """``(labelvalues, child)`` pairs in deterministic label order."""
        with self._lock:
            items = list(self._children.items())
        return sorted(items, key=lambda item: item[0])

    def __len__(self) -> int:
        with self._lock:
            return len(self._children)


class MetricsRegistry:
    """Thread-safe family registry plus scrape-time collectors."""

    def __init__(self, *, max_series_per_metric: int = 256) -> None:
        self.max_series_per_metric = int(max_series_per_metric)
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}
        self._collectors: list[tuple[object, object]] = []
        self.collector_errors = 0

    # -- families --------------------------------------------------------------

    def _family(self, name: str, kind: str, help_text: str,
                labelnames, **kwargs) -> MetricFamily:
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}, not {kind}")
                if family.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{family.labelnames}, not {labelnames}")
                return family
            family = MetricFamily(name, kind, help_text, labelnames,
                                  max_series=self.max_series_per_metric,
                                  **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labelnames=()) -> MetricFamily:
        return self._family(name, "counter", help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames=()) -> MetricFamily:
        return self._family(name, "gauge", help_text, labelnames)

    def histogram(self, name: str, help_text: str = "", labelnames=(),
                  *, buckets=DEFAULT_BUCKETS,
                  window: int = 2048) -> MetricFamily:
        return self._family(name, "histogram", help_text, labelnames,
                            buckets=buckets, window=window)

    # -- collectors ------------------------------------------------------------

    def add_collector(self, callback, owner=None) -> None:
        """Register ``callback`` to run at scrape time.

        With ``owner`` the callback is invoked as ``callback(owner)``
        and is dropped automatically once ``owner`` is garbage
        collected (the registry holds only a weakref, so registration
        never extends the owner's lifetime).
        """
        ref = weakref.ref(owner) if owner is not None else None
        with self._lock:
            self._collectors.append((ref, callback))

    def remove_collector(self, callback) -> None:
        with self._lock:
            self._collectors = [entry for entry in self._collectors
                                if entry[1] is not callback]

    def run_collectors(self) -> None:
        with self._lock:
            entries = list(self._collectors)
        dead = []
        for ref, callback in entries:
            owner = None
            if ref is not None:
                owner = ref()
                if owner is None:
                    dead.append(callback)
                    continue
            try:
                callback(owner) if ref is not None else callback()
            except Exception:
                # A broken collector must never take down a scrape.
                self.collector_errors += 1
        if dead:
            with self._lock:
                self._collectors = [
                    entry for entry in self._collectors
                    if entry[1] not in dead]

    # -- reads -----------------------------------------------------------------

    def families(self, *, collect: bool = True) -> list[MetricFamily]:
        if collect:
            self.run_collectors()
        with self._lock:
            families = list(self._families.values())
        return sorted(families, key=lambda family: family.name)

    def get_value(self, name: str, **labels) -> float:
        """Test/CLI convenience: one child's current value (0 if absent)."""
        with self._lock:
            family = self._families.get(name)
        if family is None:
            return 0.0
        key = tuple(str(labels.get(label, "")) for label in family.labelnames)
        with family._lock:
            child = family._children.get(key)
        if child is None:
            return 0.0
        return child.value() if family.kind != "histogram" else (
            child.snapshot()["count"])


class DeltaTracker:
    """Turn monotone totals read from snapshots into counter increments.

    Collectors read *totals* (e.g. ``JoinStatistics.pairs_output``) but
    several instances may feed the same labeled series, so the totals
    cannot simply be written — each instance's growth since the last
    scrape is added instead.  A total that shrinks (instance restarted
    from zero) is treated as a fresh start and added whole.
    """

    __slots__ = ("_last",)

    def __init__(self) -> None:
        self._last: dict[object, float] = {}

    def export(self, child: Counter, key, total: float) -> None:
        total = float(total)
        last = self._last.get(key, 0.0)
        if total >= last:
            delta = total - last
        else:  # reset — count the new epoch from zero
            delta = total
        if delta > 0:
            child.inc(delta)
        self._last[key] = total
