"""The MiniBatch framework (MB-IDX, Algorithm 1 + Section 6.1).

MB adapts a *batch* indexing scheme to the stream by slicing time into
windows of length ``τ`` (the time horizon).  Following the refinement of
Section 6.1, two windows are kept at any time:

* the *current* window ``W_k`` accumulates arriving vectors (and their
  maximum vector ``m_k``),
* the *previous* window ``W_{k-1}`` is the one most recently closed.

When the current window ends, the framework

1. combines the maximum vectors of both windows (the AP-based indexes need
   ``m`` to cover the data that will query the index),
2. builds a fresh batch index over ``W_{k-1}``, which also reports the
   similar pairs *within* that window,
3. queries the new index with every vector of ``W_k``, reporting the pairs
   that *span* the two windows, and
4. rotates the windows (``W_{k-1}`` is dropped, ``W_k`` becomes previous).

Every reported pair is re-checked against the time-dependent similarity
(the ``ApplyDecay`` step of Algorithm 1), so MB produces exactly the same
pair set as STR — only later: pairs are reported at window boundaries,
which is the reporting delay the paper highlights as MB's drawback.  MB
also tests pairs up to ``2τ`` apart that time filtering alone would prune,
which is the extra work visible in Figure 2.
"""

from __future__ import annotations

import math

from repro.backends import SimilarityKernel, get_backend
from repro.core.frameworks.base import JoinFramework
from repro.core.results import JoinStatistics, SimilarPair
from repro.core.vector import SparseVector
from repro.exceptions import InvalidParameterError
from repro.indexes.base import BatchIndex, create_batch_index
from repro.indexes.maxvector import MaxVector

__all__ = ["MiniBatchFramework"]

_NEEDS_MAX_VECTOR = {"AP", "L2AP"}


class MiniBatchFramework(JoinFramework):
    """MB-IDX: pipeline of per-window batch indexes with time filtering."""

    name = "MB"

    def __init__(self, threshold: float, decay: float, *,
                 index: str = "L2", stats: JoinStatistics | None = None,
                 backend: str | None = None,
                 approx: str | None = None) -> None:
        super().__init__(threshold, decay, index=index, stats=stats,
                         backend=backend, approx=approx)
        if self.approx is not None and self.index_name == "INV":
            # Fail at construction, not at the first window close.
            raise InvalidParameterError(
                "the INV schemes accumulate exact dot products during the "
                "scan and have no prefilter stage; approx mode requires a "
                "prefix-filter scheme (AP, L2, L2AP)")
        if decay <= 0:
            raise InvalidParameterError(
                "the MiniBatch framework requires a strictly positive decay rate: "
                "with decay == 0 the window length τ is unbounded"
            )
        self._window_start: float | None = None
        self._current: list[SparseVector] = []
        self._current_max = MaxVector()
        self._previous: list[SparseVector] = []
        self._previous_max = MaxVector()

    @property
    def backend_name(self) -> str:
        """Name of the compute backend the window indexes run on."""
        if isinstance(self.backend, SimilarityKernel):
            return self.backend.name
        return get_backend(self.backend).name

    # -- window management -------------------------------------------------------

    @property
    def current_window(self) -> list[SparseVector]:
        """Vectors buffered in the current (open) window."""
        return list(self._current)

    @property
    def previous_window(self) -> list[SparseVector]:
        """Vectors of the most recently closed window."""
        return list(self._previous)

    def process(self, vector: SparseVector) -> list[SimilarPair]:
        pairs: list[SimilarPair] = []
        if self._window_start is None:
            self._window_start = vector.timestamp
        horizon = self.horizon
        if horizon > 0:
            # Close as many windows as needed so the vector falls in the
            # current one.
            while vector.timestamp >= self._window_start + horizon:
                if not self._previous and not self._current:
                    # Both windows are empty: fast-forward over the gap in
                    # one step (closing empty windows is a no-op), keeping
                    # the boundaries aligned to multiples of the horizon.
                    skipped = max(1, math.floor(
                        (vector.timestamp - self._window_start) / horizon))
                    self._window_start += skipped * horizon
                    if vector.timestamp < self._window_start + horizon:
                        break
                    continue
                pairs.extend(self._close_window())
                self._window_start += horizon
        elif vector.timestamp > self._window_start:
            # θ = 1 makes the horizon zero: a window can only hold items
            # that arrive simultaneously.  Close the open window and
            # re-anchor instead of advancing by zero forever.
            pairs.extend(self._close_window())
            self._window_start = vector.timestamp
        self._current.append(vector)
        self._current_max.update(vector)
        self.stats.vectors_processed += 1
        return pairs

    def flush(self) -> list[SimilarPair]:
        """Close the two outstanding windows at end-of-stream."""
        pairs = self._close_window()
        pairs.extend(self._close_window())
        return pairs

    def _close_window(self) -> list[SimilarPair]:
        """End the current window: index the previous one and query it (§6.1)."""
        pairs: list[SimilarPair] = []
        if self._previous:
            index = self._build_index(self._previous)
            pairs.extend(self._report_window_pairs(index, self._previous))
            pairs.extend(self._report_cross_pairs(index, self._current))
        elif self._current and not self._previous:
            # Nothing to index yet; the current window will be indexed (and its
            # internal pairs reported) when the *next* window closes.
            pass
        # Rotate the windows.
        self._previous = self._current
        self._previous_max = self._current_max
        self._current = []
        self._current_max = MaxVector()
        self.stats.pairs_output += len(pairs)
        return pairs

    # -- index construction and querying -------------------------------------------

    def _build_index(self, window: list[SparseVector]) -> BatchIndex:
        """Build a fresh batch index over ``window`` (IndConstr-IDX)."""
        self.stats.index_rebuilds += 1
        if self.index_name in _NEEDS_MAX_VECTOR:
            # The m vector must cover both the indexed window and the window
            # that will query it (Section 6.1).
            combined = self._previous_max.copy()
            combined.merge(self._current_max)
            index = create_batch_index(self.index_name, self.threshold,
                                       stats=self.stats, max_vector=combined,
                                       backend=self.backend,
                                       approx=self.approx)
        else:
            index = create_batch_index(self.index_name, self.threshold,
                                       stats=self.stats, backend=self.backend,
                                       approx=self.approx)
        return index

    def _report_window_pairs(self, index: BatchIndex,
                             window: list[SparseVector]) -> list[SimilarPair]:
        """Index ``window`` and report its internal similar pairs (decay applied)."""
        pairs: list[SimilarPair] = []
        report_time = self._window_end()
        for x, y, dot in index.index_dataset(window):
            pair = self._apply_decay(x, y, dot, report_time)
            if pair is not None:
                pairs.append(pair)
        return pairs

    def _report_cross_pairs(self, index: BatchIndex,
                            queries: list[SparseVector]) -> list[SimilarPair]:
        """Query the previous-window index with the current window's vectors."""
        pairs: list[SimilarPair] = []
        report_time = self._window_end()
        for x in queries:
            for y, dot in index.query(x):
                pair = self._apply_decay(x, y, dot, report_time)
                if pair is not None:
                    pairs.append(pair)
        return pairs

    def _apply_decay(self, x: SparseVector, y: SparseVector, dot: float,
                     report_time: float) -> SimilarPair | None:
        """The ApplyDecay step of Algorithm 1: keep only ``sim_Δt ≥ θ`` pairs."""
        delta = abs(x.timestamp - y.timestamp)
        similarity = dot * math.exp(-self.decay * delta)
        if similarity < self.threshold:
            return None
        return SimilarPair.make(
            x.vector_id, y.vector_id, similarity,
            time_delta=delta, dot=dot, reported_at=report_time,
        )

    def _window_end(self) -> float:
        if self._window_start is None:
            return 0.0
        return self._window_start + self.horizon
