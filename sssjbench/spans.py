"""In-memory span tracing around calls into each layer's public functions.

A span is ``(id, parent, name, start, end, item, cpu)``: the span that
caused it is ``parent`` (``-1`` at the root), ``item`` is the vector or chunk
id the work was for, inherited by child spans, and ``cpu`` is the CPU time
of the span's thread between start and end.  Spans stay in memory and are
written once, when the run ends.  A layer's self time is the duration of
its spans minus the part covered by their child spans; its self CPU time is
the same difference of CPU times, which is the one that adds up across the
threads of a server that share one interpreter lock.

The wrappers here live in the benchmark, not in the program: a delegating
kernel passed through the public ``backend=`` argument, a wrapper around
the framework's ``process``, and class-level wrappers installed by
``wrap_method``.  They read no timer of the program itself.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

from repro.backends import resolve_kernel
from repro.backends.base import ScoreAccumulator, SimilarityKernel

_clock = time.perf_counter
_cpu = time.thread_time


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, item=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent, inherited = stack[-1]
            item = inherited if item is None else item
        else:
            parent = -1
        stack.append((span_id, item))
        cpu = _cpu()
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            cpu = _cpu() - cpu
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, item, cpu))

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, item, cpu in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "workload": self.workload,
                    "item": item, "cpu": cpu}) + "\n")


def read_spans(path: str) -> list[tuple]:
    spans = []
    with open(path) as handle:
        for line in handle:
            row = json.loads(line)
            spans.append((row["id"], row["parent"], row["name"], row["start"],
                          row["end"], row["item"], row["cpu"]))
    return spans


def summarize(spans) -> dict:
    """Per span name: count, total and self seconds, self CPU seconds."""
    covered: dict[int, float] = defaultdict(float)
    covered_cpu: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _, cpu in spans:
        if parent >= 0:
            covered[parent] += end - start
            covered_cpu[parent] += cpu
    table: dict[str, dict] = {}
    for span_id, _, name, start, end, _, cpu in spans:
        row = table.setdefault(name, {"count": 0, "total_s": 0.0,
                                      "self_s": 0.0, "self_cpu_s": 0.0})
        row["count"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - covered.get(span_id, 0.0)
        row["self_cpu_s"] += cpu - covered_cpu.get(span_id, 0.0)
    return table


def root_seconds(spans) -> float:
    return sum(end - start for _, parent, _, start, end, _, _ in spans
               if parent < 0)


# -- the delegating kernel ----------------------------------------------------

_STAGES = {
    "scan": ("scan_inv_batch", "scan_inv_stream", "scan_prefix_batch",
             "scan_prefix_stream", "scan_query_batch", "scan_query_stream",
             "scan_query_inv_batch", "scan_query_inv_stream",
             "gather_scan_partials", "gather_inv_partials",
             "apply_scan_partials", "apply_inv_partials"),
    "verify": ("verify_batch", "verify_stream", "verify_inv_stream"),
    "maintenance": ("note_vector_indexed", "note_vector_updated",
                    "note_vector_evicted", "indexing_split",
                    "index_vector_postings", "begin_maintenance_cycle"),
}
_STAGE_OF = {method: f"backends.{stage}"
             for stage, methods in _STAGES.items() for method in methods}


class _TracedAccumulator(ScoreAccumulator):
    """Accumulator proxy whose ``finalize`` is the filter stage."""

    __slots__ = ("_inner", "_tracer")

    def __init__(self, inner: ScoreAccumulator, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def finalize(self):
        return self._tracer.call("backends.filter", self._inner.finalize)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _unwrap(value):
    return value._inner if isinstance(value, _TracedAccumulator) else value


class TracingKernel(SimilarityKernel):
    """Kernel that forwards every call to a real backend, timing the stages."""

    def __init__(self, tracer: Tracer, backend: str = "numpy") -> None:
        self._inner = resolve_kernel(backend)
        self._tracer = tracer
        self.name = self._inner.name

    def _traced(self, stage: str, method, *args, **kwargs):
        args = tuple(_unwrap(arg) for arg in args)
        kwargs = {key: _unwrap(value) for key, value in kwargs.items()}
        return self._tracer.call(stage, method, *args, **kwargs)

    def new_accumulator(self):
        return _TracedAccumulator(self._inner.new_accumulator(), self._tracer)

    def __getattr__(self, name):
        # Backend-specific methods (the shard replay, slot interning, ...).
        attr = getattr(self._inner, name)
        stage = _STAGE_OF.get(name)
        if stage is None or not callable(attr):
            return attr
        return functools.partial(self._traced, stage, attr)


def _delegate(name: str):
    stage = _STAGE_OF.get(name)
    if stage is None:
        def method(self, *args, **kwargs):
            return getattr(self._inner, name)(
                *(_unwrap(arg) for arg in args),
                **{key: _unwrap(value) for key, value in kwargs.items()})
    else:
        def method(self, *args, **kwargs):
            return self._traced(stage, getattr(self._inner, name),
                                *args, **kwargs)
    method.__name__ = name
    return method


# Every public kernel method of the base class is forwarded explicitly, so
# none falls back to a base-class default that the real backend overrides.
for _name, _value in vars(SimilarityKernel).items():
    if (_name.startswith("_") or _name in TracingKernel.__dict__
            or isinstance(_value, classmethod) or not callable(_value)):
        continue
    setattr(TracingKernel, _name, _delegate(_name))
TracingKernel.__abstractmethods__ = frozenset()


# -- class-level wrappers -------------------------------------------------------


def wrap_method(owner, attribute: str, tracer: Tracer, name: str,
                item_of=None) -> None:
    """Replace ``owner.attribute`` (on a class or module) by a traced version."""
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        item = item_of(*args, **kwargs) if item_of is not None else None
        return tracer.call(name, original, *args, item=item, **kwargs)

    setattr(owner, attribute, traced)
