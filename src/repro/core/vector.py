"""Sparse vector model used throughout the SSSJ reproduction.

The paper represents data items as sparse vectors in a high-dimensional
Euclidean space, normalised to unit length so that the dot product equals
the cosine similarity.  :class:`SparseVector` is an immutable value object
carrying:

* a stable identifier ``vector_id`` (``ι(x)`` in the paper),
* an arrival ``timestamp`` ``t(x)``,
* the non-zero coordinates as parallel arrays of dimensions and values.

Dimensions are stored in ascending order, which lets the indexing schemes
scan coordinates forward during index construction and backward during
candidate generation, exactly as Algorithms 2 and 3 of the paper require.

The helper accessors expose the per-vector statistics used by the filtering
bounds: the maximum coordinate ``vm_x``, the coordinate sum ``Σx``, the
number of non-zero coordinates ``|x|``, and the ℓ₂ norms of prefixes
``‖x'_j‖``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from typing import Sequence

from repro.exceptions import InvalidVectorError

__all__ = ["SparseVector", "dot_product", "normalize_entries"]


def _validate_entries(dims: Sequence[int], values: Sequence[float]) -> None:
    """Check structural invariants of a coordinate list."""
    if len(dims) != len(values):
        raise InvalidVectorError(
            f"dimension/value length mismatch: {len(dims)} != {len(values)}"
        )
    previous = -1
    for dim, value in zip(dims, values):
        if dim < 0:
            raise InvalidVectorError(f"negative dimension id: {dim}")
        if dim <= previous:
            raise InvalidVectorError(
                f"dimensions must be strictly increasing, got {dim} after {previous}"
            )
        if not math.isfinite(value):
            raise InvalidVectorError(f"non-finite value {value!r} at dimension {dim}")
        if value < 0:
            raise InvalidVectorError(
                f"negative value {value!r} at dimension {dim}; the filtering bounds "
                "of the paper assume non-negative term weights"
            )
        previous = dim


def normalize_entries(entries: Mapping[int, float]) -> dict[int, float]:
    """Return a copy of ``entries`` scaled to unit ℓ₂ norm.

    Zero-valued coordinates are dropped.  Raises
    :class:`~repro.exceptions.InvalidVectorError` if all values are zero.
    """
    cleaned = {int(dim): float(value) for dim, value in entries.items() if value != 0.0}
    norm = math.sqrt(sum(value * value for value in cleaned.values()))
    if norm == 0.0:
        raise InvalidVectorError("cannot normalise an all-zero vector")
    return {dim: value / norm for dim, value in cleaned.items()}


class SparseVector:
    """An immutable, unit-normalisable sparse vector with a timestamp.

    Parameters
    ----------
    vector_id:
        Stable identifier of the item (``ι(x)``).
    timestamp:
        Arrival time ``t(x)``; any non-negative float.
    entries:
        Mapping from dimension id to value, or an iterable of
        ``(dimension, value)`` pairs.  Values must be non-negative and
        finite.  Zero values are dropped.
    normalize:
        When true (the default) the values are scaled to unit ℓ₂ norm,
        matching the paper's assumption ``‖x‖₂ = 1``.
    """

    __slots__ = ("_id", "_timestamp", "_dims", "_values", "_prefix_norms",
                 "_max_value", "_sum")

    def __init__(
        self,
        vector_id: int,
        timestamp: float,
        entries: Mapping[int, float] | Iterable[tuple[int, float]],
        *,
        normalize: bool = True,
    ) -> None:
        if timestamp < 0 or not math.isfinite(timestamp):
            raise InvalidVectorError(f"invalid timestamp: {timestamp!r}")
        if isinstance(entries, Mapping):
            items = entries.items()
        else:
            items = list(entries)
        pairs = sorted((int(dim), float(value)) for dim, value in items if value != 0.0)
        if not pairs:
            raise InvalidVectorError("a vector must have at least one non-zero coordinate")
        dims = tuple(dim for dim, _ in pairs)
        values = [value for _, value in pairs]
        _validate_entries(dims, values)
        if normalize:
            norm = math.sqrt(sum(value * value for value in values))
            values = [value / norm for value in values]
        self._id = int(vector_id)
        self._timestamp = float(timestamp)
        self._dims = dims
        self._values = tuple(values)
        self._prefix_norms = self._compute_prefix_norms(self._values)
        self._max_value = max(self._values)
        self._sum = sum(self._values)

    def __reduce__(self):
        # Field by field, without re-validation or re-normalisation: the
        # copy is bitwise the original (the sharded join ships every
        # vector to its worker processes this way).
        return (_restore_vector, (self._id, self._timestamp, self._dims,
                                  self._values, self._prefix_norms,
                                  self._max_value, self._sum))

    @staticmethod
    def _compute_prefix_norms(values: Sequence[float]) -> tuple[float, ...]:
        """Norms of the strict prefixes ``‖x'_j‖`` for every position.

        ``prefix_norms[k]`` is the ℓ₂ norm of the coordinates that appear
        *before* position ``k`` in the ascending-dimension order.  Position
        0 therefore has norm 0, and an extra final entry holds the norm of
        the whole vector.
        """
        norms = [0.0]
        acc = 0.0
        for value in values:
            acc += value * value
            norms.append(math.sqrt(acc))
        # The strict-prefix norm of position k is norms[k]; norms[-1] is ‖x‖.
        return tuple(norms)

    # -- basic accessors ---------------------------------------------------

    @property
    def vector_id(self) -> int:
        """Stable identifier of the vector (``ι(x)``)."""
        return self._id

    @property
    def timestamp(self) -> float:
        """Arrival time ``t(x)``."""
        return self._timestamp

    @property
    def dims(self) -> tuple[int, ...]:
        """Non-zero dimensions in ascending order."""
        return self._dims

    @property
    def values(self) -> tuple[float, ...]:
        """Values aligned with :attr:`dims`."""
        return self._values

    @property
    def max_value(self) -> float:
        """Maximum coordinate value ``vm_x``."""
        return self._max_value

    @property
    def value_sum(self) -> float:
        """Sum of the coordinate values ``Σx``."""
        return self._sum

    @property
    def norm(self) -> float:
        """ℓ₂ norm of the vector (1.0 for normalised vectors)."""
        return self._prefix_norms[-1]

    def __len__(self) -> int:
        """Number of non-zero coordinates ``|x|``."""
        return len(self._dims)

    def __iter__(self) -> Iterator[tuple[int, float]]:
        return iter(zip(self._dims, self._values))

    def __contains__(self, dim: int) -> bool:
        return self.get(dim) != 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        head = ", ".join(f"{d}:{v:.3f}" for d, v in list(self)[:4])
        suffix = ", ..." if len(self) > 4 else ""
        return (f"SparseVector(id={self._id}, t={self._timestamp:g}, "
                f"nnz={len(self)}, [{head}{suffix}])")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return (self._id == other._id and self._timestamp == other._timestamp
                and self._dims == other._dims and self._values == other._values)

    def __hash__(self) -> int:
        return hash((self._id, self._timestamp, self._dims))

    # -- coordinate access -------------------------------------------------

    def get(self, dim: int, default: float = 0.0) -> float:
        """Value at ``dim`` or ``default`` when the coordinate is zero."""
        index = self._position_of(dim)
        if index is None:
            return default
        return self._values[index]

    def _position_of(self, dim: int) -> int | None:
        """Binary search for the position of ``dim`` in :attr:`dims`."""
        lo, hi = 0, len(self._dims)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._dims[mid] < dim:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(self._dims) and self._dims[lo] == dim:
            return lo
        return None

    def to_dict(self) -> dict[int, float]:
        """Return the coordinates as a plain dictionary."""
        return dict(zip(self._dims, self._values))

    # -- prefix statistics used by the filtering bounds ---------------------

    def prefix_norm_before(self, position: int) -> float:
        """ℓ₂ norm of the strict prefix that ends before ``position``.

        ``position`` indexes into :attr:`dims`; the prefix contains the
        coordinates at positions ``0 .. position-1``.  This is the quantity
        ``‖x'_j‖`` stored in the L2AP/L2 posting entries.
        """
        return self._prefix_norms[position]

    def prefix_norm_before_dim(self, dim: int) -> float:
        """ℓ₂ norm of the coordinates with dimension id strictly below ``dim``."""
        lo, hi = 0, len(self._dims)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._dims[mid] < dim:
                lo = mid + 1
            else:
                hi = mid
        return self._prefix_norms[lo]

    def prefix(self, end_position: int) -> dict[int, float]:
        """Coordinates of the strict prefix ``x'`` ending before ``end_position``."""
        return {
            self._dims[k]: self._values[k] for k in range(min(end_position, len(self)))
        }

    def suffix(self, start_position: int) -> dict[int, float]:
        """Coordinates from ``start_position`` (inclusive) to the end."""
        return {
            self._dims[k]: self._values[k]
            for k in range(max(start_position, 0), len(self))
        }

    # -- arithmetic ---------------------------------------------------------

    def dot(self, other: "SparseVector | Mapping[int, float]") -> float:
        """Dot product with another sparse vector or a dimension→value mapping."""
        if isinstance(other, SparseVector):
            return _dot_sorted(self._dims, self._values, other._dims, other._values)
        total = 0.0
        for dim, value in zip(self._dims, self._values):
            total += value * other.get(dim, 0.0)
        return total

    def is_normalized(self, *, tolerance: float = 1e-9) -> bool:
        """Whether the ℓ₂ norm is 1 within ``tolerance``."""
        return abs(self.norm - 1.0) <= tolerance


def _restore_vector(vector_id, timestamp, dims, values, prefix_norms,
                    max_value, value_sum) -> SparseVector:
    """Unpickle a :class:`SparseVector` from its fields."""
    vector = SparseVector.__new__(SparseVector)
    vector._id = vector_id
    vector._timestamp = timestamp
    vector._dims = dims
    vector._values = values
    vector._prefix_norms = prefix_norms
    vector._max_value = max_value
    vector._sum = value_sum
    return vector


def _dot_sorted(dims_a: Sequence[int], values_a: Sequence[float],
                dims_b: Sequence[int], values_b: Sequence[float]) -> float:
    """Dot product of two coordinate lists sorted by dimension."""
    total = 0.0
    i, j = 0, 0
    len_a, len_b = len(dims_a), len(dims_b)
    while i < len_a and j < len_b:
        da, db = dims_a[i], dims_b[j]
        if da == db:
            total += values_a[i] * values_b[j]
            i += 1
            j += 1
        elif da < db:
            i += 1
        else:
            j += 1
    return total


def dot_product(x: SparseVector, y: SparseVector) -> float:
    """Dot product of two sparse vectors (cosine similarity if normalised)."""
    return x.dot(y)
