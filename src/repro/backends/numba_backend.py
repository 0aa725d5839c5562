"""Compiled kernel tier: the NumPy backend with JIT-fused hot loops.

:class:`NumbaKernel` subclasses :class:`~repro.backends.numpy_backend.NumpyKernel`
and swaps exactly four routines for ``@njit(cache=True)``-compiled free
functions from :mod:`repro.backends.kernels.scan`, all reading the very
same contiguous buffers (the posting-arena gathers and the slot-indexed
score/state/size-filter mirrors):

* the hoisted leading run of ``_fused_prefix_segments`` — the per-segment
  accumulate → bound-filter → prune → admit tri-state chain, inherently
  sequential and therefore the part vectorisation cannot touch;
* ``_fused_inv_pass`` — the sequential INV accumulation with first-touch
  detection;
* the banded-sketch posting drop (``_sketch_drop``) — the per-posting
  verdict application (the dict-based verdict *construction* stays in
  NumPy; it runs once per query and its bucket semantics are the parity
  spec);
* the batched residual-dot reduction (``_segment_dots``).

Everything else — gathers, time filtering, admission resolution
(``math.exp``-exact, per segment), bound maintenance, verification
bounds, maintenance, checkpointing — is inherited from the NumPy kernel
unchanged, so pair/counter parity is bitwise by construction: the
compiled loops receive the same IEEE-754 inputs and perform the same
additions, multiplications and comparisons in the same order.

Fallback: when numba is not installed this module still imports cleanly
and the class constructs, but every override delegates straight to the
NumPy implementation (``available()`` reports the state; backend
*selection* never hands out this class without numba — see
:func:`repro.backends.get_backend`).  Passing ``use_kernels=True``
forces the kernel-function code path even without numba, running the
loops as plain Python — far too slow for production, but it lets the
equivalence suites pin the compiled tier's loop logic on machines
without numba.

Warm-up: the first call into each compiled function pays its JIT
compilation.  Call :meth:`NumbaKernel.warmup` before timing anything —
the profiling wrapper and the benchmark gates do — so the one-time cost
is reported separately and never pollutes stage timings.  The compiled
functions are module-level, so one warm-up covers every kernel instance
in the process.
"""

from __future__ import annotations

import numpy as np

from repro.backends import kernels
from repro.backends.kernels import scan as _scan
from repro.backends.numpy_backend import NumpyAccumulator, NumpyKernel

__all__ = ["NumbaKernel"]

_EMPTY_INT = np.empty(0, dtype=np.int64)
_EMPTY_FLOAT = np.empty(0, dtype=np.float64)


class NumbaKernel(NumpyKernel):
    """NumPy-backend layout with JIT-compiled scan/admission loops."""

    name = "numba"
    description = "JIT-compiled fused scan kernels (requires numba)"

    @classmethod
    def available(cls) -> bool:
        return kernels.NUMBA_AVAILABLE

    @classmethod
    def availability_reason(cls) -> str | None:
        return kernels.NUMBA_UNAVAILABLE_REASON

    def __init__(self, *, arena_allocator=None,
                 use_kernels: bool | None = None) -> None:
        super().__init__(arena_allocator=arena_allocator)
        # True → route through the kernel functions (compiled under
        # numba, plain Python otherwise); False → pure NumPy behaviour.
        self._use_kernels = (kernels.NUMBA_AVAILABLE if use_kernels is None
                             else use_kernels)
        self._warmup_seconds: float | None = None
        # Reusable first-touch output buffer shared by the prefix and INV
        # kernels (never both live within one query); contents are copied
        # out before reuse.
        self._touched_scratch = np.empty(len(self._slot_ids), dtype=np.int64)
        # First-occurrence scratch for the compiled INV pass: a fresh
        # stamp per call makes first-touch detection call-local, exactly
        # like the NumPy reversed-scatter (stale marks are never equal to
        # a new stamp, so no epoch management is needed).
        self._inv_mark = np.zeros(len(self._slot_ids), dtype=np.int64)
        self._inv_stamp = 0

    # -- warm-up --------------------------------------------------------------

    def warmup(self) -> float:
        """Trigger every JIT compilation now; return the one-time cost.

        Idempotent (the underlying compile is memoised per process and
        per machine via the on-disk cache); returns ``0.0`` when numba is
        absent.  Call before timing scans so compile time lands in this
        number instead of the first query's stage timings.
        """
        if self._warmup_seconds is None:
            self._warmup_seconds = kernels.warmup_jit()
        return self._warmup_seconds

    @property
    def warmup_seconds(self) -> float | None:
        """Recorded JIT warm-up cost, ``None`` until :meth:`warmup` ran."""
        return self._warmup_seconds

    # -- scratch management ---------------------------------------------------

    def _grow_slots(self, needed: int) -> None:
        super()._grow_slots(needed)
        capacity = len(self._slot_ids)
        if len(self._inv_mark) < capacity:
            fresh = np.zeros(capacity, dtype=np.int64)
            fresh[:len(self._inv_mark)] = self._inv_mark
            self._inv_mark = fresh

    def _touched_buffer(self, needed: int) -> np.ndarray:
        if len(self._touched_scratch) < needed:
            capacity = len(self._touched_scratch)
            while capacity < needed:
                capacity *= 2
            self._touched_scratch = np.empty(capacity, dtype=np.int64)
        return self._touched_scratch

    # -- compiled hot loops ---------------------------------------------------

    def _fused_prefix_segments(self, arena, idx, slots, contrib, tails,
                               decay_factors, tri, seg_values, seg_qpns,
                               seg_rs1, seg_rs2, offsets, hoisted, decay,
                               now, sz1, use_ap, use_l2, threshold,
                               acc: NumpyAccumulator) -> None:
        if not self._use_kernels:
            super()._fused_prefix_segments(
                arena, idx, slots, contrib, tails, decay_factors, tri,
                seg_values, seg_qpns, seg_rs1, seg_rs2, offsets, hoisted,
                decay, now, sz1, use_ap, use_l2, threshold, acc)
            return
        # The leading run — every segment whose entries live inside the
        # hoisted gather (its contrib/tails/decay factors are
        # precomputed) — goes through the compiled loop in one call; the
        # lazy tail segments keep the NumPy path, whose per-segment
        # ``np.exp`` re-gather is already minimal (they touch only
        # already-started candidates).
        nseg = len(tri)
        leading = 0
        while leading < nseg and int(offsets[leading]) < hoisted:
            leading += 1
        if leading:
            tri_arr = np.asarray(tri[:leading], dtype=np.int64)
            if seg_rs1:
                rs1_arr = np.asarray(seg_rs1[:leading], dtype=np.float64)
                rs2_arr = np.asarray(seg_rs2[:leading], dtype=np.float64)
            else:  # batch path: tri is ALL/NONE only, bounds never read
                rs1_arr = rs2_arr = np.zeros(leading, dtype=np.float64)
            fresh_out = self._touched_buffer(hoisted)
            fresh_count = _scan.prefix_segments(
                slots, contrib,
                tails if use_l2 else _EMPTY_FLOAT,
                decay_factors if decay_factors is not None else _EMPTY_FLOAT,
                tri_arr, rs1_arr, rs2_arr, offsets, leading,
                self._slot_state, self._slot_score, self._slot_sf,
                self._epoch, sz1, use_ap, use_l2, threshold, fresh_out)
            if fresh_count:
                acc._touched.append(fresh_out[:fresh_count].copy())
        if leading < nseg:
            super()._fused_prefix_segments(
                arena, idx, slots, contrib, tails, decay_factors,
                tri[leading:], seg_values[leading:], seg_qpns[leading:],
                seg_rs1[leading:], seg_rs2[leading:], offsets[leading:],
                hoisted, decay, now, sz1, use_ap, use_l2, threshold, acc)

    def _fused_inv_pass(self, slots: np.ndarray, contrib: np.ndarray,
                        timestamps: np.ndarray | None,
                        acc: NumpyAccumulator) -> None:
        if not self._use_kernels:
            super()._fused_inv_pass(slots, contrib, timestamps, acc)
            return
        first_out = self._touched_buffer(len(slots))
        self._inv_stamp += 1
        has_ts = timestamps is not None
        first_count = _scan.inv_pass(
            slots, contrib, timestamps if has_ts else _EMPTY_FLOAT, has_ts,
            self._slot_score, self._slot_state, self._slot_arrival,
            self._inv_mark, self._inv_stamp, self._epoch, first_out)
        acc._touched.append(first_out[:first_count].copy())

    def _sketch_drop(self, idx: np.ndarray, counts: np.ndarray,
                     offsets: np.ndarray, acc,
                     timestamps: np.ndarray | None = None,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray | None]:
        if not self._use_kernels:
            return super()._sketch_drop(idx, counts, offsets, acc, timestamps)
        verdict = self._sketch_verdict_now()
        total = len(idx)
        has_ts = timestamps is not None
        kept_idx = np.empty(total, dtype=np.int64)
        kept_ts = np.empty(total if has_ts else 0, dtype=np.float64)
        seg_counts = np.empty(len(counts), dtype=np.int64)
        kept = _scan.sketch_filter(
            self._arena.slots, idx, timestamps if has_ts else _EMPTY_FLOAT,
            has_ts, verdict, offsets, kept_idx, kept_ts, seg_counts)
        rejected = total - kept
        if not rejected:
            return idx, counts, offsets, timestamps
        acc.sketch_pruned += rejected  # type: ignore[attr-defined]
        new_offsets = np.empty(len(seg_counts) + 1, dtype=np.int64)
        new_offsets[0] = 0
        np.cumsum(seg_counts, out=new_offsets[1:])
        return (kept_idx[:kept], seg_counts, new_offsets,
                kept_ts[:kept] if has_ts else None)

    def _segment_dots(self, cat_dims: np.ndarray, cat_vals: np.ndarray,
                      part_counts: np.ndarray) -> np.ndarray:
        if not self._use_kernels:
            return super()._segment_dots(cat_dims, cat_vals, part_counts)
        dots = np.empty(len(part_counts), dtype=np.float64)
        _scan.segment_dots(cat_dims, cat_vals, part_counts, self._dense, dots)
        return dots
