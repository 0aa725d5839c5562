"""Filtering bounds shared by the AP, L2AP and L2 indexing schemes.

The paper (Section 5) combines two families of bounds:

* **AP bounds** (Bayardo et al.): ``b1`` during index construction, the
  ``sz1`` size filter and the ``rs1`` remaining-score bound during candidate
  generation, and the ``ds1``/``sz2`` bounds during verification.  These
  depend on dataset statistics (the max vector ``m`` / ``m̂``).
* **ℓ₂ bounds** (Anastasiu & Karypis): ``b2`` during index construction and
  ``rs2``/``l2bound`` during candidate generation.  These depend only on the
  vector being processed, which is why the L2 index needs no re-indexing in
  the streaming setting.

This module holds the pieces that are naturally expressed as standalone
functions: the index-construction split (which coordinates go to the
residual and which are indexed, together with the stored ``pscore``), the
remaining-score bounds the accelerated scans admit candidates with, and
the candidate-verification bounds.  The reference backend keeps its
candidate-generation bounds interleaved with its per-term scan.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.vector import SparseVector
from repro.indexes.maxvector import MaxVector
from repro.indexes.residual import ResidualEntry

__all__ = [
    "IndexingSplit",
    "compute_indexing_split",
    "remaining_score_bounds",
    "size_filter_threshold",
    "verification_bounds",
]

_INF = math.inf


@dataclass(frozen=True)
class IndexingSplit:
    """Outcome of the index-construction scan for one vector.

    Attributes
    ----------
    boundary:
        Position (into the vector's ascending-dimension coordinate list) of
        the first indexed coordinate.  Coordinates before the boundary form
        the residual prefix ``x'``; coordinates at or after it are added to
        the posting lists.  ``boundary == len(x)`` means nothing is indexed
        (the vector cannot exceed the threshold against any other vector).
    pscore:
        The ``min(b1, b2)`` bound at the boundary — an upper bound on the
        similarity between the residual prefix and any other vector.  This
        is the value stored in the ``Q`` array.
    """

    boundary: int
    pscore: float


def compute_indexing_split(
    vector: SparseVector,
    threshold: float,
    *,
    max_vector: MaxVector | None,
    use_ap: bool,
    use_l2: bool,
    limit: int | None = None,
) -> IndexingSplit:
    """Run the index-construction bound loop of Algorithm 2.

    Scans the coordinates in ascending dimension order, maintaining the AP
    bound ``b1`` (when ``use_ap``) and the ℓ₂ bound ``b2`` (when ``use_l2``),
    and returns the position at which ``min(b1, b2)`` first reaches the
    threshold, together with the ``pscore`` value to store in ``Q``.

    Parameters
    ----------
    vector:
        The vector being indexed.
    threshold:
        Similarity threshold ``θ``.
    max_vector:
        The ``m`` vector (maximum value per dimension over the data that may
        query the index).  Required when ``use_ap`` is true.
    use_ap, use_l2:
        Which bound families to apply.  At least one must be enabled.
    limit:
        Only scan the first ``limit`` coordinates.  Used by re-indexing,
        which recomputes the boundary of an existing residual prefix.
    """
    if not use_ap and not use_l2:
        raise ValueError("at least one bound family must be enabled")
    if use_ap and max_vector is None:
        raise ValueError("the AP b1 bound requires the max vector m")

    # NOTE on the b1 increment: the paper (Algorithm 2, line 10) uses
    # ``x_j * min(m_j, vm_x)``, inheriting Bayardo et al.'s refinement that is
    # only sound when vectors are processed in decreasing order of their
    # maximum weight.  A data stream cannot be reordered, so we use the
    # unconditional bound ``x_j * m_j`` (slightly looser, never misses a
    # pair).  See DESIGN.md, "Key algorithmic decisions".
    b1 = 0.0
    bt = 0.0
    end = len(vector) if limit is None else min(limit, len(vector))
    for position in range(end):
        dim = vector.dims[position]
        value = vector.values[position]
        b1_bound = b1 if use_ap else _INF
        b2_bound = math.sqrt(bt) if use_l2 else _INF
        pscore = min(b1_bound, b2_bound)
        if use_ap:
            b1 += value * max_vector.get(dim)  # type: ignore[union-attr]
        bt += value * value
        b1_bound = b1 if use_ap else _INF
        b2_bound = math.sqrt(bt) if use_l2 else _INF
        if min(b1_bound, b2_bound) >= threshold:
            return IndexingSplit(boundary=position, pscore=pscore)
    return IndexingSplit(boundary=end, pscore=min(b1 if use_ap else _INF,
                                                  math.sqrt(bt) if use_l2 else _INF))


def remaining_score_bounds(vector: SparseVector, rs1: float,
                           maxima: Sequence[float] | None, *, use_ap: bool,
                           use_l2: bool) -> tuple[list[float], list[float]]:
    """``(rs1, rs2)`` by query position, as the backward scan reaches it.

    Entry ``j`` of each list holds the bound in force while position
    ``j``'s posting list is scanned: ``rs1`` has lost ``x_k · maxima[k]``
    and ``rs2`` is ``sqrt(‖x‖² − Σ x_k²)``, both over the positions
    ``k > j`` scanned before it.  ``maxima`` is ``m`` for batch scans and
    ``m̂^λ`` for streaming ones; a disabled family stays at its seed
    (``rs2 = inf``).  The subtractions run one position at a time, in the
    reference backend's order, so the values are bitwise the ones its
    per-term loop uses, whichever posting lists the caller scans.
    """
    values = vector.values
    count = len(values)
    rs1_at = [rs1] * count
    if use_ap:
        for position in range(count - 1, -1, -1):
            rs1_at[position] = rs1
            rs1 -= values[position] * maxima[position]  # type: ignore[index]
    if not use_l2:
        return rs1_at, [_INF] * count
    rst = vector.norm * vector.norm
    rs2 = math.sqrt(rst)
    rs2_at = [rs2] * count
    sqrt = math.sqrt
    for position in range(count - 1, 0, -1):
        value = values[position]
        rst -= value * value
        # sqrt(max(rst, 0.0)), spelled without the call.
        rs2 = sqrt(rst if rst >= 0.0 else 0.0)
        rs2_at[position - 1] = rs2
    return rs1_at, rs2_at


def size_filter_threshold(threshold: float, query_max_value: float) -> float:
    """The ``sz1 = θ / vm_x`` size-filter threshold of Algorithm 3 (AP bound).

    A candidate ``y`` can be ``θ``-similar to the query only when
    ``|y| · vm_y ≥ sz1``.
    """
    if query_max_value <= 0:
        return _INF
    return threshold / query_max_value


def verification_bounds(
    accumulated: float,
    query: SparseVector,
    candidate: ResidualEntry,
) -> tuple[float, float, float]:
    """The candidate-verification bounds ``(ps1, ds1, sz2)`` of Algorithm 4.

    The returned values are *undecayed*; the streaming variants multiply
    them by ``exp(-λ Δt)`` before comparing against the threshold
    (Algorithm 8, lines 3–5).

    ``accumulated`` is ``C[ι(y)]`` — the partial dot product over the indexed
    coordinates of the candidate — and ``candidate`` provides the residual
    prefix statistics of ``y'``.
    """
    ps1 = accumulated + candidate.pscore
    residual_max = candidate.residual_max
    ds1 = accumulated + min(
        query.max_value * candidate.residual_sum,
        residual_max * query.value_sum,
    )
    sz2 = accumulated + (
        min(len(query), candidate.residual_size) * query.max_value * residual_max
    )
    return ps1, ds1, sz2
