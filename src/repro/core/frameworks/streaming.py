"""The Streaming framework (STR-IDX, Algorithm 5).

STR drives a streaming index directly: for every vector read from the
stream it performs candidate generation and verification against the
current index state and then folds the vector in, with time filtering
applied *inside* the index (Section 5).  Pairs are therefore reported as
soon as their second member arrives, with no delay.
"""

from __future__ import annotations

from repro.core.frameworks.base import JoinFramework
from repro.core.results import JoinStatistics, SimilarPair
from repro.core.vector import SparseVector
from repro.indexes.base import StreamingIndex, create_streaming_index

__all__ = ["StreamingFramework"]


class StreamingFramework(JoinFramework):
    """STR-IDX: one streaming index processes the stream vector by vector."""

    name = "STR"

    def __init__(self, threshold: float, decay: float, *,
                 index: str = "L2", stats: JoinStatistics | None = None,
                 backend: str | None = None,
                 approx: str | None = None) -> None:
        super().__init__(threshold, decay, index=index, stats=stats,
                         backend=backend, approx=approx)
        self._index: StreamingIndex = create_streaming_index(
            self.index_name, self.threshold, self.decay, stats=self.stats,
            backend=backend, approx=self.approx,
        )

    @property
    def index(self) -> StreamingIndex:
        """The underlying streaming index (exposed for inspection and tests)."""
        return self._index

    @property
    def backend_name(self) -> str:
        """Resolved name of the compute backend in use."""
        return self._index.backend_name

    @property
    def index_size(self) -> int:
        """Number of postings currently held by the index."""
        return self._index.size

    def process(self, vector: SparseVector) -> list[SimilarPair]:
        self._check_order(vector)
        return self._index.process(vector)
