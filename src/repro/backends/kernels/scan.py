"""Nopython scan/admission/verification loops over the posting arena buffers.

Each function here is the sequential twin of one fused NumPy-backend
routine; the docstrings name the exact counterpart whose decisions it
replays.  ``prefix_segments`` is not a twin: it is the NumPy backend's own
scalar replay loop, compiled.  All of them mutate the caller's
slot-indexed mirrors in place and communicate variable-length results
through preallocated ``*_out`` buffers (numba cannot return freshly grown
Python lists cheaply, and the NumPy backend reuses scratch the same way).

Bitwise-parity rules observed throughout (see the NumPy backend's module
docstring for the full contract):

* additions accumulate left to right from ``0.0``, exactly like the
  reference backend's per-entry loops and the NumPy backend's
  ``np.add.at`` scatters;
* the tri-state admission bound is applied per entry as
  ``min(rs1, rs2 * decay_factor) >= threshold`` — the decayed
  remaining-score test of Algorithm 7, with the ``exp`` factors
  precomputed by the (NumPy) driver so the compiled loop adds and
  multiplies only;
* prune marks (``state[slot] = -epoch``) and first-touch transitions
  (``state[slot] = epoch``) happen at the same program points as in the
  vectorised masks, so candidate insertion order is identical.
"""

from __future__ import annotations

import numpy as np

from repro.backends import numpy_backend as _numpy_backend
from repro.backends.arena import SLOT_DTYPE, VALUE_DTYPE
from repro.backends.kernels import jit

__all__ = [
    "exercise_kernels",
    "inv_pass",
    "prefix_segments",
    "segment_dots",
    "sketch_filter",
]

#: The scalar prefix-scan replay, compiled.  The function itself lives in
#: the NumPy backend, which runs it uncompiled on small gathers, so the
#: decision sequence is written once and the NumPy backend never imports
#: numba.
prefix_segments = jit(_numpy_backend.prefix_segments)


@jit
def inv_pass(slots, contrib, timestamps, has_ts, scores, state, arrival,
             mark, stamp, epoch, first_out):
    """Sequential twin of ``_fused_inv_pass`` (unfiltered INV accumulation).

    Accumulates ``contrib`` into ``scores`` in gather order (bitwise the
    ``np.add.at`` order) and detects each slot's *first occurrence within
    this gather* via the ``mark``/``stamp`` scratch — the same semantics
    as the NumPy backend's reversed-scatter trick, including repeated
    calls: first-touch is per call, not per epoch.  First occurrences get
    ``state[slot] = epoch`` and (``has_ts``) their arrival timestamp, and
    land in ``first_out`` in gather order; returns their count.
    """
    first_count = 0
    for p in range(slots.shape[0]):
        slot = slots[p]
        if mark[slot] != stamp:
            mark[slot] = stamp
            state[slot] = epoch
            if has_ts:
                arrival[slot] = timestamps[p]
            first_out[first_count] = slot
            first_count += 1
        scores[slot] = scores[slot] + contrib[p]
    return first_count


@jit
def sketch_filter(arena_slots, idx, timestamps, has_ts, verdict, offsets,
                  kept_idx, kept_ts, counts_out):
    """Drop sketch-rejected postings from a whole-query gather.

    One fused pass over the gathered arena indices replacing
    ``_sketch_drop``'s mask / cumsum / re-slice pipeline: a posting
    survives iff ``verdict[arena_slots[idx[p]]]`` (the per-query banding
    verdict built once by the NumPy-side bucket lookup — the dict-based
    verdict *construction* is not compiled, only its application).
    Surviving indices (and, ``has_ts``, their timestamps) compact into
    ``kept_idx``/``kept_ts`` preserving gather order; ``counts_out[j]``
    receives each segment's surviving count.  Returns the total kept.
    """
    kept = 0
    for j in range(offsets.shape[0] - 1):
        seg_kept = 0
        for p in range(offsets[j], offsets[j + 1]):
            i = idx[p]
            if verdict[arena_slots[i]]:
                kept_idx[kept] = i
                if has_ts:
                    kept_ts[kept] = timestamps[p]
                kept += 1
                seg_kept += 1
        counts_out[j] = seg_kept
    return kept


@jit
def segment_dots(cat_dims, cat_vals, part_counts, dense, dots_out):
    """Per-candidate residual dots over the concatenated prefix arrays.

    The compiled half of ``_batched_residual_dots``: for each candidate
    segment, multiply its residual prefix against the dense query scratch
    and reduce left to right from ``0.0`` — bit-for-bit the NumPy
    backend's elementwise product followed by the sequential
    ``np.add.at`` scatter, which is itself the reference reduction.
    """
    pos = 0
    for s in range(part_counts.shape[0]):
        total = 0.0
        for _ in range(part_counts[s]):
            total = total + cat_vals[pos] * dense[cat_dims[pos]]
            pos += 1
        dots_out[s] = total


def exercise_kernels() -> None:
    """Call every kernel once on tiny typed inputs (JIT warm-up).

    The argument dtypes match the production call sites exactly — the
    arena dtype contract (:data:`repro.backends.arena.SLOT_DTYPE` for
    indices/marks, :data:`~repro.backends.arena.VALUE_DTYPE` for
    scores/values, ``bool`` flags) — so each call compiles, or loads from
    the on-disk cache, the one specialisation the backend will use.
    """
    slots = np.array([0, 1, 0], dtype=SLOT_DTYPE)
    contrib = np.array([0.5, 0.25, 0.125], dtype=VALUE_DTYPE)
    tails = np.array([1.0, 1.0, 1.0], dtype=VALUE_DTYPE)
    factors = np.array([1.0, 1.0, 1.0], dtype=VALUE_DTYPE)
    tri = np.array([1, -1], dtype=SLOT_DTYPE)
    rs = np.array([1.0, 1.0], dtype=VALUE_DTYPE)
    offsets = np.array([0, 2, 3], dtype=SLOT_DTYPE)
    state = np.zeros(4, dtype=SLOT_DTYPE)
    scores = np.zeros(4, dtype=VALUE_DTYPE)
    sf = np.full(4, np.inf, dtype=VALUE_DTYPE)
    out = np.empty(4, dtype=SLOT_DTYPE)
    prefix_segments(slots, contrib, tails, factors, tri, rs, rs, offsets,
                    state, scores, sf, 1, 0.0, True, True, 0.1, out,
                    tails, factors, 1.0, 0.5, 1e-13)
    mark = np.zeros(4, dtype=SLOT_DTYPE)
    arrival = np.zeros(4, dtype=VALUE_DTYPE)
    inv_pass(slots, contrib, tails, True, scores, state, arrival, mark, 1,
             2, out)
    idx = np.array([0, 1, 2], dtype=SLOT_DTYPE)
    verdict = np.array([True, False, True, True], dtype=bool)
    kept_ts = np.empty(3, dtype=VALUE_DTYPE)
    counts_out = np.empty(2, dtype=SLOT_DTYPE)
    sketch_filter(slots, idx, tails, True, verdict, offsets, idx.copy(),
                  kept_ts, counts_out)
    dots_out = np.empty(2, dtype=VALUE_DTYPE)
    segment_dots(slots, contrib, np.array([2, 1], dtype=SLOT_DTYPE),
                 np.array([0.5, 0.25], dtype=VALUE_DTYPE), dots_out)
