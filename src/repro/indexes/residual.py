"""Residual direct index ``R``, the ``Q`` array and per-vector metadata.

The prefix-filtering schemes (AP, L2AP, L2) do not index every coordinate:
for each vector ``x`` the coordinates scanned before the indexing boundary
form the *residual prefix* ``x'`` which is kept in a direct index ``R`` so
that candidate verification can finish the dot product exactly.  Alongside
the residual, the schemes keep the ``Q[ι(x)] = pscore`` bound and the
per-vector statistics (``vm_x'``, ``Σx'``, ``|x'|``) that feed the ``ds1``
and ``sz2`` verification bounds, plus ``|x|·vm_x`` for the ``sz1`` size
filter applied while scanning posting lists.

Both structures are stored in one :class:`collections.OrderedDict` keyed
by vector id — CPython's linked hash-map, the structure Section 6.2
names — so that, in the streaming setting, entries can be popped from the
head, in arrival order, once they fall behind the time horizon.
A per-dimension reverse map over the residual coordinates supports the
re-indexing step of STR-L2AP without scanning every stored vector; it is
built on the first such lookup, so schemes that never re-index keep none.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.core.vector import SparseVector

__all__ = ["ResidualEntry", "ResidualIndex"]


@dataclass(slots=True)
class ResidualEntry:
    """Residual prefix and metadata for one indexed vector."""

    vector: SparseVector
    boundary: int
    pscore: float
    residual: dict[int, float] = field(default_factory=dict)
    #: Backend-owned cache of the residual coordinates in array form
    #: (built lazily by the vectorised kernels, invalidated on mutation).
    array_cache: object = field(default=None, repr=False, compare=False)
    #: Lazily computed ``(vm_{x'}, Σx')`` pair; candidate verification reads
    #: these once per candidate, so they must not be recomputed from the
    #: dictionary every time.  Mutate ``residual`` only through
    #: :meth:`shrink_to` / :meth:`set_residual`, which invalidate the cache.
    _stats_cache: tuple[float, float] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.residual and self.boundary > 0:
            self.residual = self.vector.prefix(self.boundary)

    # -- statistics used by the verification bounds ---------------------------

    @property
    def vector_id(self) -> int:
        return self.vector.vector_id

    @property
    def timestamp(self) -> float:
        return self.vector.timestamp

    def _stats(self) -> tuple[float, float]:
        cached = self._stats_cache
        if cached is None:
            cached = (max(self.residual.values(), default=0.0),
                      sum(self.residual.values()))
            self._stats_cache = cached
        return cached

    @property
    def residual_max(self) -> float:
        """``vm_{x'}`` — the largest residual coordinate (0 when empty)."""
        return self._stats()[0]

    @property
    def residual_sum(self) -> float:
        """``Σ x'`` — sum of the residual coordinates."""
        return self._stats()[1]

    @property
    def residual_size(self) -> int:
        """``|x'|`` — number of residual coordinates."""
        return len(self.residual)

    def set_residual(self, residual: dict[int, float]) -> None:
        """Replace the residual prefix, refreshing the cached statistics."""
        self.residual = residual
        self._stats_cache = None
        self.array_cache = None

    @property
    def size_filter_value(self) -> float:
        """``|x| · vm_x`` over the *full* vector, used by the sz1 size filter."""
        return len(self.vector) * self.vector.max_value

    def residual_dot(self, query: SparseVector) -> float:
        """Dot product of the query with the residual prefix ``dot(x, y')``."""
        if not self.residual:
            return 0.0
        return query.dot(self.residual)

    def shrink_to(self, new_boundary: int, new_pscore: float) -> list[int]:
        """Move the boundary earlier (re-indexing) and return the freed dimensions.

        The coordinates at positions ``[new_boundary, boundary)`` leave the
        residual — the caller is responsible for appending them to the
        posting lists.
        """
        if new_boundary >= self.boundary:
            return []
        freed = [
            self.vector.dims[position]
            for position in range(new_boundary, self.boundary)
        ]
        for dim in freed:
            self.residual.pop(dim, None)
        self.boundary = new_boundary
        self.pscore = new_pscore
        self.array_cache = None
        self._stats_cache = None
        return freed


class ResidualIndex:
    """The ``R``/``Q`` store with horizon-based eviction and a dimension map."""

    __slots__ = ("_entries", "_by_dimension", "_total_residual")

    def __init__(self) -> None:
        self._entries: OrderedDict[int, ResidualEntry] = OrderedDict()
        # dim -> set of vector ids whose residual has a non-zero value on
        # dim; None until candidates_for_dimensions first reads it.
        self._by_dimension: dict[int, set[int]] | None = None
        # Running total of residual coordinates; the streaming driver reads
        # it after every item, so it must not be recomputed by scanning.
        self._total_residual = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vector_id: int) -> bool:
        return vector_id in self._entries

    def get(self, vector_id: int) -> ResidualEntry | None:
        return self._entries.get(vector_id)

    def entries(self) -> Iterator[ResidualEntry]:
        return iter(self._entries.values())

    def total_residual_coordinates(self) -> int:
        """Total number of coordinates currently held in residual prefixes."""
        return self._total_residual

    def add(self, entry: ResidualEntry) -> None:
        """Register a newly indexed vector (insertion order = arrival order)."""
        self._entries[entry.vector_id] = entry
        self._total_residual += entry.residual_size
        if self._by_dimension is not None:
            self._link(entry)

    def _link(self, entry: ResidualEntry) -> None:
        by_dimension = self._by_dimension
        for dim in entry.residual:
            by_dimension.setdefault(dim, set()).add(entry.vector_id)

    def _reverse_map(self) -> dict[int, set[int]]:
        """The reverse map, built from the stored residuals on first use
        (the first re-indexing) and maintained from then on."""
        if self._by_dimension is None:
            self._by_dimension = {}
            for entry in self._entries.values():
                self._link(entry)
        return self._by_dimension

    def candidates_for_dimensions(self, dims: Iterator[int] | list[int]) -> set[int]:
        """Vector ids whose residual intersects any of ``dims`` (re-indexing scan)."""
        by_dimension = self._reverse_map()
        result: set[int] = set()
        for dim in dims:
            result.update(by_dimension.get(dim, ()))
        return result

    def forget_residual_dimension(self, vector_id: int,
                                  dims: Iterable[int]) -> None:
        """Drop reverse-map links after re-indexing moved ``dims`` to the index."""
        by_dimension = self._reverse_map()
        for dim in dims:
            bucket = by_dimension.get(dim)
            if bucket is not None:
                bucket.discard(vector_id)
                if not bucket:
                    del by_dimension[dim]

    def note_residual_shrunk(self, count: int) -> None:
        """Adjust the coordinate total after re-indexing shrank a residual."""
        self._total_residual -= count
        if self._total_residual < 0:  # defensive; should never happen
            self._total_residual = 0

    def evict_older_than(self, cutoff: float) -> list[ResidualEntry]:
        """Remove entries whose vector arrived before ``cutoff`` (time filtering)."""
        entries = self._entries
        removed_entries = []
        for entry in entries.values():
            if entry.timestamp >= cutoff:
                break
            removed_entries.append(entry)
        for entry in removed_entries:
            entries.popitem(last=False)
            self._total_residual -= entry.residual_size
            if self._by_dimension is not None:
                self.forget_residual_dimension(entry.vector_id, entry.residual)
        if self._total_residual < 0:  # defensive; should never happen
            self._total_residual = 0
        return removed_entries

    def clear(self) -> None:
        self._entries.clear()
        self._by_dimension = None
        self._total_residual = 0
