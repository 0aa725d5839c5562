"""Approximate prefilter tier: sketch signatures and banding-based rejection.

The exact engine verifies every candidate that survives the prefix-filter
bounds.  The *approximate* tier (opt-in via ``JoinParameters(approx=...)``,
``create_join(approx=...)``, ``sssj run --approx ...`` or the
``SSSJ_APPROX`` environment variable) inserts one more filter between
candidate generation and verification: every indexed vector carries a
compact **sketch signature**, and a candidate whose signature shares no
band with the query's is rejected before it can start accumulating.

Two signature families are provided:

* ``minhash`` (the default) — classic MinHash over the vector's
  *dimension set* (weights ignored): lane ``i`` holds the minimum of a
  lane-salted 64-bit hash over the dimensions.  Two vectors agree on a
  lane with probability equal to their Jaccard similarity, so a band of
  ``rows`` consecutive lanes matches with probability ``J^rows`` and the
  banded OR over ``bands`` bands yields the usual LSH S-curve.
* ``wminhash`` — weighted MinHash by consistent sampling: in each lane
  every dimension draws the *same* lane-salted 64-bit uniform in both
  vectors and races with key ``uniform / weight²``; the lane value is
  the dim-hash of the winning dimension.  Two vectors agree on a lane
  with (approximately) the generalized Jaccard similarity of their
  squared-weight distributions, which for unit-norm vectors is a much
  sharper function of the dot product than the set-Jaccard ``minhash``
  uses — this is the family the benchmark recall gate runs.

Both are built on the splitmix64 mixer, evaluated in exact 64-bit wrap
arithmetic (NumPy ``uint64``), so a signature is a pure function of
``(vector dims/values, config)`` — the reference and NumPy backends share
one :class:`SignatureScheme` implementation and therefore take
bit-identical keep/reject decisions, which is what makes the
cross-backend parity tests of the approximate tier possible.

The filter is **one-sided**: a rejected candidate is never verified (this
is where recall can be lost), but every *surviving* pair still goes
through the exact verification bounds and dot products — an emitted pair
is always a true pair.  With ``approx=None`` (the default) nothing in the
engine changes and output stays bitwise identical to the exact engine
(pinned by ``tests/test_approx.py``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from repro.core.vector import SparseVector
from repro.exceptions import InvalidParameterError

__all__ = [
    "APPROX_METHODS",
    "APPROX_ENV_VAR",
    "ApproxConfig",
    "SignatureScheme",
    "parse_approx",
]

#: Supported sketch families.
APPROX_METHODS = ("minhash", "wminhash")

#: Environment variable consulted by the CLI when ``--approx`` is absent.
APPROX_ENV_VAR = "SSSJ_APPROX"

_DEFAULT_BANDS = 16
_DEFAULT_ROWS = 2
_DEFAULT_SEED = 0x53535341  # "SSSA"

_MASK64 = (1 << 64) - 1

#: Dimensions whose hashes one :class:`SignatureScheme` keeps (about
#: 2.4 MB at 72 lanes); the table is cleared when it is full.
_LANE_TABLE_ROWS = 4096

# splitmix64's constants as uint64 scalars, so the array form mixes in
# place with no per-call conversion.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT1, _SHIFT2, _SHIFT3 = np.uint64(30), np.uint64(27), np.uint64(31)


def _splitmix64(value: int) -> int:
    """One splitmix64 mixing step in exact 64-bit wrap arithmetic."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _splitmix64_inplace(value: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` over a ``uint64`` array, in place (array
    arithmetic wraps silently)."""
    value += _GOLDEN
    value ^= value >> _SHIFT1
    value *= _MIX1
    value ^= value >> _SHIFT2
    value *= _MIX2
    value ^= value >> _SHIFT3
    return value


@dataclass(frozen=True)
class ApproxConfig:
    """One approximate-tier configuration (validated, checkpoint-friendly).

    ``bands × rows`` consecutive signature lanes form the banded-LSH
    layout; a candidate passes the prefilter when at least one band of
    its signature equals the query's.  The canonical string form
    (:meth:`spec`) is what travels through checkpoints, session
    envelopes and the CLI.
    """

    method: str = "minhash"
    bands: int = _DEFAULT_BANDS
    rows: int = _DEFAULT_ROWS
    seed: int = _DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.method not in APPROX_METHODS:
            raise InvalidParameterError(
                f"unknown approx method {self.method!r}; "
                f"expected one of {APPROX_METHODS}")
        if self.bands < 1:
            raise InvalidParameterError(
                f"approx bands must be >= 1, got {self.bands}")
        if self.rows < 1:
            raise InvalidParameterError(
                f"approx rows must be >= 1, got {self.rows}")
        if self.bands * self.rows > 256:
            raise InvalidParameterError(
                f"signature too long: bands × rows = "
                f"{self.bands * self.rows} lanes (max 256); "
                "reduce --approx-bands or --approx-rows")

    @property
    def signature_length(self) -> int:
        """Number of 64-bit lanes in one signature (``bands × rows``)."""
        return self.bands * self.rows

    def spec(self) -> str:
        """Canonical string form, accepted back by :func:`parse_approx`."""
        text = f"{self.method}:{self.bands}x{self.rows}"
        if self.seed != _DEFAULT_SEED:
            text += f":{self.seed}"
        return text

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ApproxConfig":
        fields = {name for name in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{key: value for key, value in payload.items()
                      if key in fields})


def parse_approx(value: "str | ApproxConfig | None", *,
                 bands: int | None = None,
                 rows: int | None = None,
                 seed: int | None = None) -> ApproxConfig | None:
    """Normalise an approx specification into an :class:`ApproxConfig`.

    Accepts ``None`` (approximation disabled), an existing config, or a
    spec string ``"method[:BANDSxROWS[:SEED]]"`` (e.g. ``"minhash"``,
    ``"minhash:16x2"``, ``"wminhash:8x4:7"``).  The keyword overrides let
    the CLI's separate ``--approx-bands`` / ``--approx-rows`` flags
    refine a bare method name.
    """
    if value is None:
        if bands is not None or rows is not None:
            raise InvalidParameterError(
                "--approx-bands/--approx-rows require --approx "
                "(or SSSJ_APPROX) to select a sketch method")
        return None
    if isinstance(value, ApproxConfig):
        config = value
    else:
        text = str(value).strip().lower()
        if not text:
            return None
        parts = text.split(":")
        if len(parts) > 3:
            raise InvalidParameterError(
                f"cannot parse approx spec {value!r}; expected "
                "'method[:BANDSxROWS[:SEED]]'")
        kwargs: dict[str, Any] = {"method": parts[0]}
        if len(parts) >= 2 and parts[1]:
            geometry = parts[1].split("x")
            if len(geometry) != 2:
                raise InvalidParameterError(
                    f"cannot parse approx geometry {parts[1]!r} in {value!r}; "
                    "expected 'BANDSxROWS' (e.g. '16x2')")
            try:
                kwargs["bands"] = int(geometry[0])
                kwargs["rows"] = int(geometry[1])
            except ValueError as error:
                raise InvalidParameterError(
                    f"cannot parse approx geometry {parts[1]!r} in "
                    f"{value!r}: {error}") from None
        if len(parts) == 3 and parts[2]:
            try:
                kwargs["seed"] = int(parts[2])
            except ValueError as error:
                raise InvalidParameterError(
                    f"cannot parse approx seed {parts[2]!r} in "
                    f"{value!r}: {error}") from None
        config = ApproxConfig(**kwargs)
    overrides: dict[str, Any] = {}
    if bands is not None:
        overrides["bands"] = bands
    if rows is not None:
        overrides["rows"] = rows
    if seed is not None:
        overrides["seed"] = seed
    if overrides:
        config = ApproxConfig(**{**config.as_dict(), **overrides})
    return config


class SignatureScheme:
    """Computes signatures and their folded band keys.

    One instance is shared per kernel; a signature is ``signature_length``
    64-bit lane values, deterministic in ``(vector, config)``, so both
    backends — and a checkpoint-restored kernel replaying
    ``note_vector_indexed`` — regenerate identical signatures and
    identical decisions.

    A dimension's splitmix64 hash and its salted lane hashes are computed
    once, the first time the dimension is seen, into a table of at most
    ``_LANE_TABLE_ROWS`` rows that is cleared when full and allocated on
    the first signature.  :meth:`band_keys`, the query path of both
    backends, folds the keys straight from the gathered lanes.
    """

    __slots__ = ("config", "_salts", "_rows", "_dim_hashes", "_lane_hashes")

    def __init__(self, config: ApproxConfig) -> None:
        self.config = config
        base = _splitmix64(config.seed & _MASK64)
        self._salts = np.asarray(
            [_splitmix64(base + lane * 0x9E3779B97F4A7C15)
             for lane in range(config.signature_length)], dtype=np.uint64)
        # dim -> its row in the two tables below.
        self._rows: dict[int, int] = {}
        self._dim_hashes: np.ndarray | None = None
        # (row, lane) hashes: uint64 for minhash; for wminhash their
        # float64 casts, the numerators of the race.
        self._lane_hashes: np.ndarray | None = None

    # -- signature computation -------------------------------------------------

    def band_keys(self, vector: SparseVector) -> np.ndarray:
        """``vector``'s band keys as a ``(bands,)`` uint64 array: one
        folded 64-bit key per band (splitmix64 over its lanes).

        Key equality is band equality up to splitmix collisions (~2⁻⁶⁴ per
        comparison); both engine backends take their keep/reject decisions
        on these keys, so even a collision cannot break cross-backend
        parity — the two data paths agree bit for bit either way.
        """
        return self._fold(self.lanes(vector))

    def _compute(self, dims: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The dim-hashes ``(n,)`` of ``dims`` and, for every lane at once,
        splitmix64 over (dim-hash ^ lane-salt) ``(n, L)``."""
        mixed = _splitmix64_inplace(np.array(dims, dtype=np.uint64))
        lanes = _splitmix64_inplace(mixed[:, None] ^ self._salts)
        if self.config.method == "wminhash":
            lanes = lanes.astype(np.float64)
        return mixed, lanes

    def _hashes(self, dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_compute` of ``dims`` (fresh arrays), read from the table
        and filling the rows of dimensions it lacks."""
        rows_of = self._rows
        rows = list(map(rows_of.get, dims))
        if None in rows:
            missing = [dim for dim, row in zip(dims, rows) if row is None]
            if self._dim_hashes is None:
                self._dim_hashes = np.empty(_LANE_TABLE_ROWS, dtype=np.uint64)
                self._lane_hashes = np.empty(
                    (_LANE_TABLE_ROWS, self.config.signature_length),
                    dtype=np.float64 if self.config.method == "wminhash"
                    else np.uint64)
            capacity = len(self._dim_hashes)
            if len(dims) > capacity:
                return self._compute(dims)
            start = len(rows_of)
            if start + len(missing) > capacity:
                rows_of.clear()
                start, missing = 0, dims
            stop = start + len(missing)
            mixed, lanes = self._compute(missing)
            self._dim_hashes[start:stop] = mixed
            self._lane_hashes[start:stop] = lanes
            rows_of.update(zip(missing, range(start, stop)))
            rows = list(map(rows_of.__getitem__, dims))
        rows = np.array(rows, dtype=np.intp)
        return self._dim_hashes.take(rows), self._lane_hashes.take(rows, axis=0)

    def lanes(self, vector: SparseVector) -> np.ndarray:
        """The vector's sketch signature: ``signature_length`` 64-bit lane
        values as a ``(L,)`` uint64 array."""
        mixed, lanes = self._hashes(vector.dims)
        if self.config.method == "minhash":
            return lanes.min(axis=0)
        # Consistent weighted sampling: dimension d races in lane i with
        # key hash(d, i) / w_d² — the *same* 64-bit "uniform" for every
        # vector containing d — and the lane records the dim-hash of the
        # winner.  P(two vectors pick the same winner) tracks the
        # generalized Jaccard of the squared-weight distributions.  The
        # uint64→float64 casts, the float64 division and argmin's
        # first-minimum tiebreak are deterministic, so signatures are
        # bit-identical across backends.  A weight whose square underflows
        # to zero, or is small enough for the quotient to overflow, gives
        # inf keys; the errstate keeps those quiet.
        squared = np.array(vector.values, dtype=np.float64)
        squared *= squared
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lanes /= squared[:, None]
        return mixed[lanes.argmin(axis=0)]

    def _fold(self, lanes: np.ndarray) -> np.ndarray:
        """Band keys of a ``(L,)`` uint64 lane array, repeating
        :func:`_splitmix64` lane by lane: band ``b``'s key is its first
        lane, mixed with each further lane in turn."""
        rows = self.config.rows
        keys = lanes[::rows].copy()
        for row in range(1, rows):
            keys ^= lanes[row::rows]
            _splitmix64_inplace(keys)
        return keys
