"""Compiled (numba) twins of the NumPy backend's fused hot loops.

The functions in :mod:`repro.backends.kernels.scan` are the sequential,
loop-form versions of the NumPy backend's scan machinery — the
accumulate → bound-filter → prune → admit tri-state chain of
``_fused_prefix_segments`` (the NumPy backend's own scalar loop
:func:`repro.backends.numpy_backend.prefix_segments`, compiled here and
run over every segment of a query in one call), the INV accumulation
pass, the banded-sketch posting drop and the batched residual-dot
reduction.  They are written as *free functions over plain arrays* for
two reasons:

* **numba compiles free functions, not methods** — every argument is a
  contiguous ``int64``/``float64``/``bool`` array (the very buffers the
  NumPy backend reads: the posting arena gathers and the slot-indexed
  score/state/size-filter mirrors), so one ``@njit(cache=True)``
  decoration turns each loop into machine code with no data-layout work;
* **the same source runs without numba** — when numba is not installed
  the decorator below is the identity, leaving the functions as plain
  (slow) Python loops.  The compiled backend never routes production
  traffic through that interpreted form (it falls back to the NumPy
  kernels instead), but the equivalence tests exercise it so the loop
  *logic* is pinned against the reference backend on every machine, with
  or without numba.

Determinism contract: the loops perform the same IEEE-754 additions,
multiplications and comparisons in the same order as the NumPy backend's
vectorised/scalar twins (no fastmath, no reassociation), so candidate
sets, prune marks, operation counts and accumulated scores stay bitwise
identical.  See ``docs/ARCHITECTURE.md`` ("Compiled tier").

JIT warm-up: the first call of each compiled function pays its
compilation (``cache=True`` amortises it across processes via the
on-disk cache, honouring ``NUMBA_CACHE_DIR``).  :func:`warmup_jit`
triggers every compilation on tiny synthetic inputs and reports the
one-time cost, so drivers can keep compile time out of stage timings.
"""

from __future__ import annotations

import time

__all__ = [
    "NUMBA_AVAILABLE",
    "NUMBA_UNAVAILABLE_REASON",
    "jit",
    "warmup_jit",
]

try:  # numba is an optional dependency: gate, don't require.
    from numba import njit as _njit
except ImportError:  # pragma: no cover - exercised only without numba
    _njit = None
    #: True when the numba JIT is importable and the kernels are compiled.
    NUMBA_AVAILABLE = False
    #: Human-readable reason the compiled tier is off (``None`` when on).
    NUMBA_UNAVAILABLE_REASON = "numba is not installed"

    def jit(func):
        """Identity decorator: without numba the kernels stay plain Python."""
        return func
else:
    NUMBA_AVAILABLE = True
    NUMBA_UNAVAILABLE_REASON = None

    def jit(func):
        """``numba.njit(cache=True)``: nopython, on-disk compilation cache."""
        return _njit(cache=True)(func)


#: One-time JIT compilation cost, memoised per process (see warmup_jit).
_warmup_cost: float | None = None


def warmup_jit() -> float:
    """Compile every kernel on tiny synthetic inputs; return the cost.

    Idempotent per process: the first call triggers (or loads from the
    on-disk cache) every compilation and records the wall-clock cost;
    later calls return the recorded cost without recompiling.  The
    compiled functions are module-level, so one warm-up covers every
    kernel instance in the process.  Returns ``0.0`` when numba is
    absent (there is nothing to compile).
    """
    global _warmup_cost
    if _warmup_cost is not None:
        return _warmup_cost
    if not NUMBA_AVAILABLE:
        _warmup_cost = 0.0
        return _warmup_cost
    start = time.perf_counter()
    from repro.backends.kernels.scan import exercise_kernels

    exercise_kernels()
    _warmup_cost = time.perf_counter() - start
    return _warmup_cost
