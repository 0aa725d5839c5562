"""Stream abstractions for timestamped sparse vectors.

The paper's input is an unbounded stream ``S = ⟨(x_i, t(x_i)), ...⟩`` of
timestamped vectors arriving in non-decreasing time order.  This module
provides:

* :class:`VectorStream` — the minimal protocol every stream source follows
  (an iterable of :class:`~repro.core.vector.SparseVector`),
* :class:`ListStream` — an in-memory stream over a sequence of vectors,
* :class:`GeneratorStream` — wraps any iterator/generator of vectors,
* :class:`FileStream` — lazily reads the on-disk text/binary formats from
  :mod:`repro.datasets.io`,
* :func:`merge_streams` — a timestamp-ordered merge of several streams,
* :func:`enforce_order` — a guard that raises
  :class:`~repro.exceptions.StreamOrderError` on out-of-order items.

All streaming algorithms consume any iterable of vectors; these classes
exist mostly to attach metadata (name, length hints) and order checking.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator, Sequence
from typing import Callable

from repro.core.vector import SparseVector
from repro.exceptions import StreamOrderError

__all__ = [
    "VectorStream",
    "ListStream",
    "GeneratorStream",
    "FileStream",
    "merge_streams",
    "enforce_order",
]


def enforce_order(vectors: Iterable[SparseVector]) -> Iterator[SparseVector]:
    """Yield vectors, raising :class:`StreamOrderError` if timestamps decrease."""
    last = -float("inf")
    for vector in vectors:
        if vector.timestamp < last:
            raise StreamOrderError(
                f"vector {vector.vector_id} arrived at t={vector.timestamp} "
                f"after an item at t={last}"
            )
        last = vector.timestamp
        yield vector


class VectorStream:
    """Base class for vector stream sources.

    Subclasses implement :meth:`_iterate`; iteration always goes through
    the timestamp-order guard.
    """

    def __init__(self, name: str = "stream", *, check_order: bool = True) -> None:
        self.name = name
        self._check_order = check_order

    def _iterate(self) -> Iterator[SparseVector]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[SparseVector]:
        iterator = self._iterate()
        if self._check_order:
            return enforce_order(iterator)
        return iterator

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


class ListStream(VectorStream):
    """A stream backed by an in-memory sequence of vectors.

    The sequence is sorted by timestamp on construction unless
    ``presorted=True`` is given.
    """

    def __init__(self, vectors: Sequence[SparseVector], *, name: str = "list",
                 presorted: bool = False, check_order: bool = True) -> None:
        super().__init__(name, check_order=check_order)
        if presorted:
            self._vectors = list(vectors)
        else:
            self._vectors = sorted(vectors, key=lambda v: v.timestamp)

    def __len__(self) -> int:
        return len(self._vectors)

    def __getitem__(self, index: int) -> SparseVector:
        return self._vectors[index]

    @property
    def vectors(self) -> list[SparseVector]:
        """The underlying vectors in timestamp order."""
        return list(self._vectors)

    def _iterate(self) -> Iterator[SparseVector]:
        return iter(self._vectors)


class GeneratorStream(VectorStream):
    """A stream backed by a factory producing an iterator of vectors.

    The factory is invoked once per iteration so that the stream can be
    replayed (useful in benchmarks that repeat a run several times).
    """

    def __init__(self, factory: Callable[[], Iterable[SparseVector]], *,
                 name: str = "generator", check_order: bool = True) -> None:
        super().__init__(name, check_order=check_order)
        self._factory = factory

    def _iterate(self) -> Iterator[SparseVector]:
        return iter(self._factory())


class FileStream(VectorStream):
    """A stream lazily read from a dataset file.

    The path may point either to the text format or to the binary format
    produced by :mod:`repro.datasets.io`; the format is selected by file
    extension (``.txt`` / ``.bin``) or can be forced with ``fmt``.
    """

    def __init__(self, path: str, *, fmt: str | None = None, name: str | None = None,
                 check_order: bool = True) -> None:
        super().__init__(name or str(path), check_order=check_order)
        self.path = str(path)
        self.fmt = fmt

    def _iterate(self) -> Iterator[SparseVector]:
        # Imported lazily to avoid a circular import at package load time.
        from repro.datasets import io as dataset_io

        return dataset_io.read_vectors(self.path, fmt=self.fmt)


def merge_streams(*streams: Iterable[SparseVector],
                  name: str = "merged") -> GeneratorStream:
    """Merge several timestamp-ordered streams into one ordered stream.

    The merge is **stable**: vectors with equal timestamps are emitted in
    the order of the streams that supplied them (first stream wins), and
    two equal-timestamp vectors from the *same* stream keep their original
    relative order, so any consumer replaying a merged stream sees exactly
    the same vector sequence on every run.

    .. note::
       Earlier versions keyed the merge on ``(timestamp, stream, vector_id)``,
       which *reordered* equal-timestamp vectors of one stream by id (and
       fell back to comparing :class:`SparseVector` objects — a ``TypeError``
       — when even the ids tied).  Keying on the timestamp alone and relying
       on :func:`heapq.merge`'s stability fixes both.
    """

    def factory() -> Iterator[SparseVector]:
        # heapq.merge is stable: for equal keys it prefers earlier iterables
        # and preserves each iterable's own order.
        return iter(heapq.merge(*streams, key=lambda vector: vector.timestamp))

    return GeneratorStream(factory, name=name)
