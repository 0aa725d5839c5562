"""Independent exact reference for the time-decayed similarity self-join.

Nothing here imports the code under test.  A pair ``(i, j)``, ``i < j``,
is similar when ``dot(x_i, x_j) * exp(-decay * (t_j - t_i)) >= theta``.
Because ``dot <= 1`` for unit vectors, ``x_i`` can only pair with vectors
that arrive within the horizon ``ln(1/theta) / decay`` of it, so the
reference multiplies each block of rows by the rows inside the horizon
window before it (a horizon-limited blocked sparse product) rather than
forming the full O(n^2) product.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from common import out_dir

#: Pairs whose reference similarity is this close to theta are left out of
#: the comparison: float summation order may put them on either side.
BORDER = 1e-9
#: Largest accepted difference between a reported and a reference similarity.
SIM_TOLERANCE = 1e-6


@dataclass
class PairSet:
    """Reference pairs ``a < b`` with similarity ``>= theta - BORDER``."""

    a: np.ndarray
    b: np.ndarray
    sim: np.ndarray


def compute(stream, theta: float, decay: float, lo: int, hi: int,
            block: int = 512) -> PairSet:
    """Exact pairs among vectors ``lo..hi-1`` of ``stream``."""
    ts = stream.ts
    matrix = sparse.csr_matrix(
        (stream.vals, stream.dims, stream.indptr),
        shape=(len(stream), int(stream.dims.max()) + 1 if len(stream.dims) else 1))
    horizon = math.inf if decay == 0 else math.log(1.0 / theta) / decay
    found_a, found_b, found_sim = [], [], []
    for b0 in range(lo, hi, block):
        b1 = min(b0 + block, hi)
        w0 = lo
        if math.isfinite(horizon):
            w0 = max(lo, int(np.searchsorted(ts, ts[b0] - horizon * (1 + 1e-9),
                                             side="left")))
        product = (matrix[b0:b1] @ matrix[w0:b1].T).tocoo()
        rows = product.row.astype(np.int64) + b0
        cols = product.col.astype(np.int64) + w0
        earlier = cols < rows
        rows, cols, dots = rows[earlier], cols[earlier], product.data[earlier]
        sims = dots * np.exp(-decay * (ts[rows] - ts[cols]))
        keep = sims >= theta - BORDER
        found_a.append(cols[keep])
        found_b.append(rows[keep])
        found_sim.append(sims[keep])
    if not found_a:
        empty = np.zeros(0)
        return PairSet(empty.astype(np.int64), empty.astype(np.int64), empty)
    return PairSet(np.concatenate(found_a), np.concatenate(found_b),
                   np.concatenate(found_sim))


def cached(stream, digest: str, theta: float, decay: float, lo: int,
           hi: int) -> PairSet:
    """:func:`compute`, cached per input digest and parameters."""
    name = f"{digest}-t{theta!r}-d{decay!r}-{lo}-{hi}.npz"
    path = os.path.join(out_dir("reference"), name)
    if os.path.exists(path):
        with np.load(path) as data:
            return PairSet(data["a"], data["b"], data["sim"])
    pairs = compute(stream, theta, decay, lo, hi)
    tmp = f"{path}.{os.getpid()}.tmp.npz"
    np.savez(tmp, a=pairs.a, b=pairs.b, sim=pairs.sim)
    os.replace(tmp, path)
    return pairs


@dataclass
class Verdict:
    expected: int        # reference pairs compared (borderline ones left out)
    found: int           # of those, reported with the right similarity
    missing: list
    extra: list          # reported, but not similar in the reference
    wrong_similarity: list

    @property
    def recall(self) -> float:
        return self.found / self.expected if self.expected else 1.0

    def ok(self, exact: bool) -> bool:
        return not self.extra and not self.wrong_similarity and (
            not exact or not self.missing)

    def summary(self) -> dict:
        return {"expected": self.expected, "found": self.found,
                "missing": len(self.missing), "extra": len(self.extra),
                "wrong_similarity": len(self.wrong_similarity),
                "examples": (self.extra + self.wrong_similarity
                             + self.missing)[:3]}


def check(reported: dict, reference: PairSet, theta: float,
          upto: int | None = None) -> Verdict:
    """Compare reported ``{(a, b): similarity}`` with the reference.

    ``upto`` restricts the reference to pairs whose later vector id is below
    it (the prefix of the stream that was actually processed).
    """
    mask = np.ones(len(reference.a), dtype=bool)
    if upto is not None:
        mask &= reference.b < upto
    a, b, sim = reference.a[mask], reference.b[mask], reference.sim[mask]
    border = np.abs(sim - theta) <= BORDER
    borderline = set(zip(a[border].tolist(), b[border].tolist()))
    solid = dict(zip(zip(a[~border].tolist(), b[~border].tolist()),
                     sim[~border].tolist()))
    missing, extra, wrong = [], [], []
    for key, value in reported.items():
        if key in solid:
            if abs(value - solid[key]) > SIM_TOLERANCE:
                wrong.append(key)
        elif key not in borderline:
            extra.append(key)
    for key in solid:
        if key not in reported:
            missing.append(key)
    return Verdict(expected=len(solid),
                   found=len(solid) - len(missing) - len(wrong),
                   missing=missing, extra=extra, wrong_similarity=wrong)
