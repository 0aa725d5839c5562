"""Frozen workload inputs: generated from the seed, digested, checked.

Inputs come from the library's own synthetic profiles (``repro.datasets``)
and are stored as flat arrays (CSR layout), so the reference, the engine
child and the load generator all read the very same numbers.  Two guards
keep a workload from changing quietly:

* ``check_canaries`` regenerates a short prefix of every input kind at a
  fixed seed and compares its digest with the value frozen below.  A change
  to ``repro.datasets`` that alters a workload's inputs stops the benchmark
  instead of moving its numbers; re-freeze the digests in a change of its
  own, which then also re-measures the baseline.
* every run prints the digest of its full inputs; ``compare.py`` refuses to
  compare runs of one workload and seed whose digests differ.

Timestamps must never decrease within a stream.  ``build`` checks this and
fails loudly rather than sorting (see NOTES.md, "Bursty arrivals").
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

import numpy as np

from common import out_dir

#: Input kinds: a library profile, optionally with another arrival process.
KINDS = {
    "hashtags": ("hashtags", None),
    "tweets_poisson": ("tweets", "poisson"),
}

#: sha256[:16] of the first CANARY_VECTORS vectors of each kind at seed 0.
CANARY_VECTORS = 64
CANARY_DIGESTS = {
    "hashtags": "cb9ab0f6af51aca7",
    "tweets_poisson": "a4600228fb94edc4",
}


class InputError(RuntimeError):
    """The inputs are not what the benchmark was defined on."""


@dataclasses.dataclass
class Stream:
    """``n`` sparse vectors in CSR layout, ids ``0..n-1`` in arrival order."""

    ts: np.ndarray       # float64 timestamps
    indptr: np.ndarray   # int64, length n + 1
    dims: np.ndarray     # int64 dimension ids
    vals: np.ndarray     # float64 unit-normalised values

    def __len__(self) -> int:
        return len(self.ts)

    def digest(self) -> str:
        sha = hashlib.sha256()
        for array in (self.ts, self.indptr, self.dims, self.vals):
            sha.update(np.ascontiguousarray(array).tobytes())
        return sha.hexdigest()[:16]

    def vectors(self, lo: int = 0, hi: int | None = None) -> list:
        """``SparseVector`` objects for ids ``lo..hi-1`` (values used as is)."""
        from repro.core.vector import SparseVector

        hi = len(self) if hi is None else hi
        indptr, dims, vals, ts = self.indptr, self.dims, self.vals, self.ts
        return [SparseVector(i, float(ts[i]),
                             zip(dims[indptr[i]:indptr[i + 1]].tolist(),
                                 vals[indptr[i]:indptr[i + 1]].tolist()),
                             normalize=False)
                for i in range(lo, hi)]


def generate(kind: str, seed: int, count: int) -> Stream:
    """Draw ``count`` vectors of ``kind`` from the library's generator."""
    from repro.datasets import SyntheticCorpusGenerator, get_profile

    profile_name, arrival = KINDS[kind]
    profile = get_profile(profile_name)
    if arrival is not None:
        profile = dataclasses.replace(profile, arrival_process=arrival)
    ts, indptr, dims, vals = [], [0], [], []
    for vector in SyntheticCorpusGenerator(profile, seed=seed).stream(count):
        ts.append(vector.timestamp)
        dims.extend(vector.dims)
        vals.extend(vector.values)
        indptr.append(len(dims))
    stream = Stream(np.asarray(ts, dtype=np.float64),
                    np.asarray(indptr, dtype=np.int64),
                    np.asarray(dims, dtype=np.int64),
                    np.asarray(vals, dtype=np.float64))
    check_order(stream, f"{kind} seed {seed}")
    return stream


def check_order(stream: Stream, label: str) -> None:
    """Raise when a timestamp decreases; inputs are never sorted to hide it."""
    steps = np.diff(stream.ts)
    bad = np.flatnonzero(steps < 0)
    if len(bad):
        first = int(bad[0]) + 1
        raise InputError(
            f"{label}: {len(bad)} timestamp inversion(s); vector {first} "
            f"arrives at t={stream.ts[first]!r} after t={stream.ts[first - 1]!r}")


def check_canaries() -> None:
    """Stop when ``repro.datasets`` no longer yields the frozen inputs."""
    for kind, frozen in CANARY_DIGESTS.items():
        digest = generate(kind, 0, CANARY_VECTORS).digest()
        if digest != frozen:
            raise InputError(
                f"input kind {kind!r} changed: canary digest {digest} != "
                f"frozen {frozen}.  repro.datasets no longer produces this "
                "benchmark's inputs; re-freeze them in a benchmark-only change")


def build(kind: str, seed: int, count: int) -> tuple[Stream, str]:
    """The inputs for one run, and the file the engine subprocess reads.

    The file is rewritten by every run rather than kept per seed: at about
    8 MB per input, a cache over many seeds would fill the checkout.
    """
    path = os.path.join(out_dir("inputs"), f"{kind}-n{count}.npz")
    stream = generate(kind, seed, count)
    tmp = f"{path}.{os.getpid()}.tmp.npz"
    np.savez(tmp, ts=stream.ts, indptr=stream.indptr, dims=stream.dims,
             vals=stream.vals)
    os.replace(tmp, path)
    return stream, path


def load(path: str) -> Stream:
    with np.load(path) as data:
        return Stream(data["ts"], data["indptr"], data["dims"], data["vals"])
