"""Abstract interfaces and registry for the indexing schemes.

The paper factors every indexing scheme into three phases (Section 4):

* **IC** — index construction: add (some coordinates of) a new vector to the
  inverted index,
* **CG** — candidate generation: use the index to find a superset of the
  vectors similar to a query,
* **CV** — candidate verification: compute exact similarities for the
  candidates and filter by the threshold.

:class:`BatchIndex` exposes these phases for a static dataset (the classic
all-pairs similarity search, used directly by :func:`repro.core.batch.all_pairs`
and as a black box by the MiniBatch framework).  :class:`StreamingIndex`
is the interface the STR framework drives: a single :meth:`StreamingIndex.process`
call performs CG + CV against the current index state and then folds the
new vector in (Algorithm 6), applying time filtering internally.

Concrete schemes register themselves in :data:`BATCH_INDEXES` and
:data:`STREAMING_INDEXES`, which power the string-based algorithm selection
of the public API (``"STR-L2"``, ``"MB-INV"``, ...).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping

from repro import obs
from repro.backends import CandidateSet, SimilarityKernel, resolve_kernel
from repro.core.results import JoinStatistics, SimilarPair
from repro.core.similarity import validate_decay, validate_threshold
from repro.core.vector import SparseVector
from repro.exceptions import UnknownAlgorithmError
from repro.indexes.posting import InvertedIndex, PostingEntry

__all__ = [
    "BatchIndex",
    "StreamingIndex",
    "BATCH_INDEXES",
    "STREAMING_INDEXES",
    "register_batch_index",
    "register_streaming_index",
    "create_batch_index",
    "create_streaming_index",
    "available_batch_indexes",
    "available_streaming_indexes",
]


class BatchIndex(ABC):
    """Index over a static dataset, built incrementally vector by vector.

    ``backend`` selects the compute backend for the hot loops — a name from
    :func:`repro.backends.available_backends`, ``"auto"``/``None`` for the
    default, or a ready kernel instance.
    """

    #: Scheme name used in the registry ("INV", "AP", "L2AP", "L2").
    name: str = "abstract"

    def __init__(self, threshold: float, *, stats: JoinStatistics | None = None,
                 backend: str | SimilarityKernel | None = None,
                 approx=None) -> None:
        self.threshold = validate_threshold(threshold)
        self.stats = stats if stats is not None else JoinStatistics()
        self.kernel = resolve_kernel(backend)
        self.approx = _configure_approx(self.kernel, approx)

    @property
    def backend_name(self) -> str:
        """Name of the compute backend running this index's hot loops."""
        return self.kernel.name

    # -- the three phases ------------------------------------------------------

    @abstractmethod
    def index_vector(self, vector: SparseVector) -> None:
        """IC: add (part of) ``vector`` to the index."""

    @abstractmethod
    def candidate_generation(self, vector: SparseVector) -> CandidateSet:
        """CG: return the accumulated score table ``C`` as a backend-native
        :class:`~repro.backends.CandidateSet` (use ``to_dict()`` for a plain
        dictionary view)."""

    @abstractmethod
    def candidate_verification(
        self, vector: SparseVector, candidates: CandidateSet
    ) -> list[tuple[SparseVector, float]]:
        """CV: return ``(candidate vector, exact dot product)`` for true matches."""

    # -- composite operations --------------------------------------------------

    def process(self, vector: SparseVector) -> list[tuple[SparseVector, float]]:
        """Find matches of ``vector`` against the current index, then index it."""
        candidates = self.candidate_generation(vector)
        matches = self.candidate_verification(vector, candidates)
        self.index_vector(vector)
        return matches

    def query(self, vector: SparseVector) -> list[tuple[SparseVector, float]]:
        """Find matches of ``vector`` against the current index without indexing it."""
        candidates = self.candidate_generation(vector)
        return self.candidate_verification(vector, candidates)

    def index_dataset(
        self, vectors: Iterable[SparseVector]
    ) -> list[tuple[SparseVector, SparseVector, float]]:
        """IndConstr: index a whole dataset and return its internal similar pairs."""
        pairs: list[tuple[SparseVector, SparseVector, float]] = []
        for vector in vectors:
            for candidate, score in self.process(vector):
                pairs.append((vector, candidate, score))
            self.stats.vectors_processed += 1
        return pairs

    # -- introspection ----------------------------------------------------------

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of postings currently stored."""


class StreamingIndex(ABC):
    """Index driven by the STR framework; applies time filtering internally.

    The index splits its state in two.  The *kernel-agnostic* part — the
    live postings as :class:`~repro.indexes.posting.PostingEntry` lists,
    the residual/Q store, the max vectors, the statistics — is what a
    checkpoint carries.  The *kernel-owned* part — the posting store's
    layout, the size-filter map, the kernel's slot mirrors and sketch
    tables — is derived from it by :meth:`rebuild_kernel_state`, the one
    path both a checkpoint restore and a live :meth:`switch_kernel` take.
    """

    name: str = "abstract"
    #: Whether posting lists stay sorted by time (enables backward-scan truncation).
    time_ordered: bool = True

    def __init__(self, threshold: float, decay: float, *,
                 stats: JoinStatistics | None = None,
                 backend: str | SimilarityKernel | None = None,
                 approx=None) -> None:
        self.threshold = validate_threshold(threshold)
        self.decay = validate_decay(decay)
        self.stats = stats if stats is not None else JoinStatistics()
        self.kernel = resolve_kernel(backend)
        self.approx = _configure_approx(self.kernel, approx)

    @property
    def backend_name(self) -> str:
        """Name of the compute backend running this index's hot loops."""
        return self.kernel.name

    @abstractmethod
    def process(self, vector: SparseVector) -> list[SimilarPair]:
        """Report pairs involving ``vector`` and fold it into the index."""

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of postings currently stored."""

    # -- kernel-owned state ---------------------------------------------------

    def _make_index(self) -> InvertedIndex:
        """The posting store; anything with the ``InvertedIndex`` counting
        interface (``__len__`` / ``note_added`` / ``note_removed``)."""
        return InvertedIndex(self.kernel.new_posting_list)

    def posting_entries(self) -> dict[int, list[PostingEntry]]:
        """The live postings of every non-empty list, in list (scan) order.

        The kernel-agnostic form of the posting store: every backend's
        lists iterate exactly the postings it has not yet reported
        removed, so rebuilding from this on any kernel scans, prunes and
        counts like the original store.
        """
        store = self._index
        entries = {}
        for dim in store.dimensions():
            postings = store.get(dim).to_list()
            if postings:
                entries[dim] = postings
        return entries

    def rebuild_kernel_state(
            self, kernel: SimilarityKernel,
            postings: Mapping[int, Iterable[PostingEntry]]) -> None:
        """Install ``kernel`` and rebuild everything it owns.

        ``postings`` (dimension → entries in list order, as
        :meth:`posting_entries` returns them) refills a fresh posting
        store; :meth:`_announce_vectors` then replays the stored vectors
        into the kernel's metadata hooks.  The residual store, the max
        vectors and the statistics are kernel-agnostic and stay as they
        are.  ``kernel`` must not have indexed anything yet.
        """
        self.kernel = kernel
        self.approx = _configure_approx(kernel, self.approx)
        store = self._make_index()
        for dim, entries in postings.items():
            for entry in entries:
                store.add(dim, entry)
        self._index = store
        self._announce_vectors()

    def _announce_vectors(self) -> None:
        """Feed the stored vectors to a fresh kernel's metadata hooks.

        Nothing to do for schemes without a residual store (INV).
        """

    def switch_kernel(self, kernel: SimilarityKernel) -> None:
        """Move the index onto ``kernel`` in memory, mid-stream.

        Pairs and counters continue exactly as on the old kernel (the
        backends are bitwise equivalent); only speed and memory change.
        """
        with obs.span("kernel_switch", size=len(self._index),
                      kernel=kernel.name):
            self.rebuild_kernel_state(kernel, self.posting_entries())


def _configure_approx(kernel: SimilarityKernel, approx):
    """Parse an approx spec and enable the kernel's sketch prefilter.

    Accepts anything :func:`repro.approx.parse_approx` does (a spec string
    or a ready :class:`~repro.approx.ApproxConfig`); returns the parsed
    config, or ``None`` when approximation is off.  Must run before the
    first vector is indexed, hence its place in the index constructors.
    """
    if approx is None:
        return None
    from repro.approx import parse_approx

    config = parse_approx(approx)
    if config is not None:
        kernel.configure_approx(config)
    return config


# --------------------------------------------------------------------------
# Registry


BATCH_INDEXES: dict[str, type[BatchIndex]] = {}
STREAMING_INDEXES: dict[str, type[StreamingIndex]] = {}


def register_batch_index(cls: type[BatchIndex]) -> type[BatchIndex]:
    """Class decorator adding a batch index to the registry."""
    BATCH_INDEXES[cls.name.upper()] = cls
    return cls


def register_streaming_index(cls: type[StreamingIndex]) -> type[StreamingIndex]:
    """Class decorator adding a streaming index to the registry."""
    STREAMING_INDEXES[cls.name.upper()] = cls
    return cls


def create_batch_index(name: str, threshold: float, *,
                       stats: JoinStatistics | None = None, **kwargs) -> BatchIndex:
    """Instantiate a registered batch index by name."""
    try:
        cls = BATCH_INDEXES[name.upper()]
    except KeyError:
        raise UnknownAlgorithmError(
            f"unknown batch index {name!r}; available: {sorted(BATCH_INDEXES)}"
        ) from None
    return cls(threshold, stats=stats, **kwargs)


def create_streaming_index(name: str, threshold: float, decay: float, *,
                           stats: JoinStatistics | None = None, **kwargs) -> StreamingIndex:
    """Instantiate a registered streaming index by name."""
    try:
        cls = STREAMING_INDEXES[name.upper()]
    except KeyError:
        raise UnknownAlgorithmError(
            f"unknown streaming index {name!r}; available: {sorted(STREAMING_INDEXES)}"
        ) from None
    return cls(threshold, decay, stats=stats, **kwargs)


def available_batch_indexes() -> list[str]:
    """Names of the registered batch indexes."""
    return sorted(BATCH_INDEXES)


def available_streaming_indexes() -> list[str]:
    """Names of the registered streaming indexes."""
    return sorted(STREAMING_INDEXES)
