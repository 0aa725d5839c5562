"""The Streaming framework (STR-IDX, Algorithm 5).

STR drives a streaming index directly: for every vector read from the
stream it performs candidate generation and verification against the
current index state and then folds the vector in, with time filtering
applied *inside* the index (Section 5).  Pairs are therefore reported as
soon as their second member arrives, with no delay.

The ``auto`` kernel rule
------------------------
A STR join built with ``backend=None``/``"auto"`` while ``SSSJ_BACKEND``
is unset (or ``auto``) is *adaptive*: it starts on the pure-Python
reference kernel, whose per-query cost is proportional to the postings it
traverses, and moves its index once, in memory, to
:func:`~repro.backends.default_backend`'s kernel the first time the mean
postings traversed per query over the last :data:`AUTO_SWITCH_WINDOW`
queries reaches :data:`AUTO_SWITCH_POSTINGS` — the measured gather size
above which the vectorised kernel's fixed per-query cost pays for itself
(docs/PERFORMANCE.md).  It never moves back.  The rule reads only
``JoinStatistics.entries_traversed``, so a stream switches at the same
query on every host; the kernels are bitwise equivalent, so the switch
changes speed and memory, never pairs or counters.  Joins pinned to a
backend (by name, by kernel instance, or by a concrete ``SSSJ_BACKEND``)
carry no rule.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Mapping
from typing import Any

from repro.backends import (
    auto_is_adaptive,
    default_backend,
    get_backend,
    resolve_kernel,
)
from repro.core.frameworks.base import JoinFramework
from repro.core.results import JoinStatistics, SimilarPair
from repro.core.vector import SparseVector
from repro.exceptions import UnknownBackendError
from repro.indexes.base import StreamingIndex, create_streaming_index
from repro.indexes.posting import PostingEntry

__all__ = ["StreamingFramework", "AUTO_SWITCH_POSTINGS", "AUTO_SWITCH_WINDOW"]

#: Mean postings traversed per query at which an adaptive join leaves the
#: reference kernel.  Set at the measured per-query CPU crossover of the
#: two kernels (docs/PERFORMANCE.md, "The auto kernel rule").
AUTO_SWITCH_POSTINGS = 192
#: Number of most recent queries the rule averages over.
AUTO_SWITCH_WINDOW = 64


class _KernelSwitch:
    """Sliding-window mean of postings traversed per query (integer-exact)."""

    __slots__ = ("target", "window", "total", "limit")

    def __init__(self, target: str, window: Iterable[int] = ()) -> None:
        self.target = target
        self.window: deque[int] = deque(window, maxlen=AUTO_SWITCH_WINDOW)
        self.total = sum(self.window)
        self.limit = AUTO_SWITCH_POSTINGS * AUTO_SWITCH_WINDOW

    def observe(self, traversed: int) -> bool:
        """Record one query; whether the window mean reached the constant."""
        window = self.window
        if len(window) == window.maxlen:
            self.total -= window[0]
        window.append(traversed)
        self.total += traversed
        return self.total >= self.limit and len(window) == window.maxlen


def _auto_rule(kernel: str, window: Iterable[int] = ()) -> _KernelSwitch | None:
    """The pending rule of an adaptive join running on ``kernel``."""
    target = default_backend()
    if kernel != "python" or target == "python":
        return None
    return _KernelSwitch(target, window)


def _is_auto(backend: Any) -> bool:
    return backend is None or (isinstance(backend, str)
                               and backend.lower() == "auto")


class StreamingFramework(JoinFramework):
    """STR-IDX: one streaming index processes the stream vector by vector."""

    name = "STR"

    def __init__(self, threshold: float, decay: float, *,
                 index: str = "L2", stats: JoinStatistics | None = None,
                 backend: str | None = None,
                 approx: str | None = None) -> None:
        super().__init__(threshold, decay, index=index, stats=stats,
                         backend=backend, approx=approx)
        #: Whether ``auto`` resolves adaptively for this join (see the
        #: module docstring); stays true after the switch.
        self.adaptive = _is_auto(backend) and auto_is_adaptive()
        self._switch = _auto_rule("python") if self.adaptive else None
        self._index: StreamingIndex = create_streaming_index(
            self.index_name, self.threshold, self.decay, stats=self.stats,
            backend="python" if self.adaptive else backend,
            approx=self.approx,
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
        switch = self._switch
        if switch is None:
            return self._index.process(vector)
        stats = self.stats
        before = stats.entries_traversed
        pairs = self._index.process(vector)
        if switch.observe(stats.entries_traversed - before):
            self._switch = None
            self._index.switch_kernel(resolve_kernel(switch.target))
        return pairs

    # -- checkpoint support ------------------------------------------------------

    def kernel_state(self) -> dict[str, Any]:
        """The snapshot fields naming the kernel (see :mod:`repro.core.checkpoint`).

        A pinned join records its backend; an adaptive one records
        ``"auto"``, the kernel it runs now and, before its switch, the
        rule's window, so a restored join switches at the same query.
        """
        if not self.adaptive:
            return {"backend": self.backend_name}
        state: dict[str, Any] = {"backend": "auto",
                                 "kernel": self.backend_name}
        if self._switch is not None:
            state["auto_window"] = list(self._switch.window)
        return state

    def restore_kernel_state(
            self, state: Mapping[str, Any],
            postings: Mapping[int, Iterable[PostingEntry]]) -> None:
        """Rebuild the index's kernel-owned state from a snapshot.

        An adaptive join resumes on the kernel ``state`` records (its
        rule re-armed with the recorded window until it has switched); a
        pinned one keeps the kernel it was built with.
        """
        kernel = self._index.kernel
        if self.adaptive:
            try:
                name = get_backend(state.get("kernel")).name
            except UnknownBackendError:
                name = "python"
            kernel = resolve_kernel(name)
            self._switch = _auto_rule(name, state.get("auto_window", ()))
        self._index.rebuild_kernel_state(kernel, postings)
