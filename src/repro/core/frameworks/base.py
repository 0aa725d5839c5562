"""Common interface of the two algorithmic frameworks (MB and STR).

Both frameworks consume a stream of timestamped vectors and report the
pairs whose time-dependent similarity reaches the threshold.  They differ
in *when* pairs are reported (STR reports a pair as soon as its second
member arrives, MB defers to window boundaries) and in how they adapt the
underlying indexing scheme, but they share the same driver interface:

``process(vector)``
    feed one vector, get back the pairs that became reportable,
``flush()``
    signal end-of-stream and get back any still-buffered pairs (MB only),
``run(stream)``
    convenience generator over a whole stream.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator

from repro.core.results import JoinStatistics, SimilarPair
from repro.core.similarity import time_horizon, validate_decay, validate_threshold
from repro.core.vector import SparseVector
from repro.exceptions import StreamOrderError

__all__ = ["JoinFramework"]


class JoinFramework(ABC):
    """Base class of the MiniBatch (MB) and Streaming (STR) frameworks.

    ``backend`` selects the compute backend the underlying index(es) run
    their hot loops on — a name from
    :func:`repro.backends.available_backends` or ``None``/``"auto"``
    (adaptive for STR joins, :func:`repro.backends.default_backend` for
    MiniBatch ones; see :func:`repro.core.join.create_join`).
    """

    #: Framework name used in algorithm strings ("MB", "STR").
    name: str = "abstract"

    def __init__(self, threshold: float, decay: float, *,
                 index: str = "L2", stats: JoinStatistics | None = None,
                 backend: str | None = None,
                 approx: str | None = None) -> None:
        self.threshold = validate_threshold(threshold)
        self.decay = validate_decay(decay)
        self.index_name = index.upper()
        self.backend = backend
        self.stats = stats if stats is not None else JoinStatistics()
        # Arrival time of the last vector _check_order accepted.
        self._last_timestamp = -math.inf
        # Canonical approx spec string (or None when the join is exact):
        # a stable form that checkpoints embed and restore_join replays.
        if approx is not None:
            from repro.approx import parse_approx

            config = parse_approx(approx)
            self.approx = config.spec() if config is not None else None
        else:
            self.approx = None

    @property
    def horizon(self) -> float:
        """The time horizon ``τ`` implied by the parameters."""
        return time_horizon(self.threshold, self.decay)

    @property
    def algorithm(self) -> str:
        """Human-readable algorithm name, e.g. ``"STR-L2"``."""
        return f"{self.name}-{self.index_name}"

    @abstractmethod
    def process(self, vector: SparseVector) -> list[SimilarPair]:
        """Feed one vector; return the pairs that became reportable."""

    def _check_order(self, vector: SparseVector) -> None:
        """Raise :class:`StreamOrderError` if ``vector`` is older than the
        last vector accepted, before any state changes; else accept it.

        The STR indexes assume non-decreasing arrival times: their time
        filters truncate time-ordered lists from the head, and an older
        vector would be scored against postings from its future (decay
        factors above 1, similarities above 1).  Equal timestamps are
        legal.  Checkpoints do not carry the last timestamp, so a restored
        join is re-armed by its first vector.
        """
        if vector.timestamp < self._last_timestamp:
            raise StreamOrderError(
                f"vector {vector.vector_id} arrived at t={vector.timestamp} "
                f"after an item at t={self._last_timestamp}")
        self._last_timestamp = vector.timestamp

    def flush(self) -> list[SimilarPair]:
        """Signal end-of-stream; return any pairs still buffered."""
        return []

    def feed(self, vectors: Iterable[SparseVector]) -> list[SimilarPair]:
        """Process a finite chunk of the stream; return the reported pairs.

        Unlike :meth:`run`, ``feed`` does not flush: the join stays open
        for more chunks, which is what incremental callers (micro-batching
        services, tests that checkpoint mid-stream) need.  Feeding the
        concatenation of chunks is equivalent to feeding the whole stream.
        """
        pairs: list[SimilarPair] = []
        for vector in vectors:
            pairs.extend(self.process(vector))
        return pairs

    def run(self, stream: Iterable[SparseVector]) -> Iterator[SimilarPair]:
        """Process a whole stream, yielding pairs in reporting order."""
        for vector in stream:
            yield from self.process(vector)
        yield from self.flush()

    def run_to_list(self, stream: Iterable[SparseVector]) -> list[SimilarPair]:
        """Run over the stream and collect every reported pair."""
        return list(self.run(stream))
