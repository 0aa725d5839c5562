"""Inverted-index posting lists.

The index ``I = {I_1, ..., I_d}`` of the paper is a collection of posting
lists, one per dimension.  A posting entry for vector ``x`` in list ``I_j``
is the triple ``(ι(x), x_j, ‖x'_j‖)`` (the prefix norm is only used by the
ℓ₂-based schemes); the streaming variants additionally need the arrival
time ``t(x)`` to apply time filtering, so entries carry four fields.

The *layout* of a posting list belongs to the compute backend: the
reference backend's :class:`PostingList` (defined here) is backed by
:class:`~repro.indexes.circular.CircularBuffer` (Section 6.2), while the
NumPy backend stores every dimension's postings in one shared posting
arena and hands out views of the rows of its list directory
(:class:`repro.backends.arena.ArenaPostingList`).  Outside its backend a
list is only measured (``len``, truthiness) and copied (``to_list``).
:class:`InvertedIndex` is layout-agnostic — it takes a posting-list
factory, usually a kernel's ``new_posting_list``.  Time-ordered lists
(INV, L2) support the backward scan with head truncation; unordered lists
(L2AP after re-indexing) are compacted by rewriting their content (the
arena layout defers that rewrite and amortises it across queries).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.indexes.circular import CircularBuffer

__all__ = ["PostingEntry", "PostingList", "InvertedIndex"]


@dataclass(frozen=True)
class PostingEntry:
    """One posting: ``(ι(x), x_j, ‖x'_j‖, t(x))``."""

    vector_id: int
    value: float
    prefix_norm: float
    timestamp: float


class PostingList:
    """A single posting list ``I_j``."""

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer: CircularBuffer[PostingEntry] = CircularBuffer()

    def __len__(self) -> int:
        return len(self._buffer)

    def __bool__(self) -> bool:
        return bool(self._buffer)

    def __iter__(self) -> Iterator[PostingEntry]:
        """Iterate oldest → newest."""
        return iter(self._buffer)

    def iter_newest_first(self) -> Iterator[PostingEntry]:
        """Iterate newest → oldest (backward CG scan)."""
        return self._buffer.iter_newest_first()

    def append(self, entry: PostingEntry) -> None:
        """Append a posting at the tail."""
        self._buffer.append(entry)

    def keep_newest(self, count: int) -> int:
        """Keep only the ``count`` newest postings (backward-scan truncation)."""
        return self._buffer.keep_newest(count)

    def replace_all_entries(self, entries: list[PostingEntry]) -> None:
        """Replace the whole content with ``entries`` (oldest first)."""
        self._buffer.replace_all(entries)

    def to_list(self) -> list[PostingEntry]:
        """Copy of the postings from oldest to newest."""
        return self._buffer.to_list()


class InvertedIndex:
    """Collection of posting lists keyed by dimension id.

    ``list_factory`` controls the posting-list layout; it defaults to the
    reference ring-buffer :class:`PostingList` and is normally a compute
    kernel's ``new_posting_list``.
    """

    __slots__ = ("_lists", "_total_entries", "_list_factory")

    def __init__(self, list_factory: Callable[[], "PostingList"] | None = None) -> None:
        self._lists: dict[int, PostingList] = {}
        self._total_entries = 0
        self._list_factory = list_factory if list_factory is not None else PostingList

    def __len__(self) -> int:
        """Total number of postings across every list."""
        return self._total_entries

    def __contains__(self, dim: int) -> bool:
        return dim in self._lists and bool(self._lists[dim])

    def dimensions(self) -> Iterator[int]:
        """Dimensions that currently have a (possibly empty) posting list."""
        return iter(self._lists)

    def get(self, dim: int) -> PostingList | None:
        """Posting list for ``dim`` or ``None`` when no posting was ever added."""
        return self._lists.get(dim)

    def list_for(self, dim: int) -> PostingList:
        """Posting list for ``dim``, creating it on first use."""
        posting_list = self._lists.get(dim)
        if posting_list is None:
            posting_list = self._list_factory()
            self._lists[dim] = posting_list
        return posting_list

    def add(self, dim: int, entry: PostingEntry) -> None:
        """Append ``entry`` to the list of ``dim``."""
        self.list_for(dim).append(entry)
        self._total_entries += 1

    def adopt(self, lists: dict[int, "PostingList"], count: int) -> None:
        """Install ready lists for new dimensions, holding ``count``
        postings in all (a kernel's bulk load)."""
        self._lists.update(lists)
        self._total_entries += count

    def note_added(self, count: int) -> None:
        """Adjust the global size after a kernel-level bulk append."""
        self._total_entries += count

    def note_removed(self, count: int) -> None:
        """Adjust the global size after a list-level prune."""
        self._total_entries -= count
        if self._total_entries < 0:  # defensive; should never happen
            self._total_entries = 0
