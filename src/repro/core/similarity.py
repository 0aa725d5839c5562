"""Time-dependent similarity, horizon computation and parameter setting.

This module implements Section 3 of the paper:

* the standard cosine / dot-product similarity of unit-normalised vectors,
* the *time-dependent similarity*
  ``sim_Δt(x, y) = dot(x, y) · exp(-λ |t(x) − t(y)|)``,
* the *time horizon* ``τ = λ⁻¹ ln θ⁻¹`` beyond which no pair can reach the
  threshold, and
* the parameter-setting methodology the paper suggests (choose ``θ`` and
  ``τ`` from application requirements, derive ``λ``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.vector import SparseVector
from repro.exceptions import InvalidParameterError

__all__ = [
    "cosine_similarity",
    "decay_factor",
    "time_dependent_similarity",
    "time_horizon",
    "decay_for_horizon",
    "JoinParameters",
]


def validate_threshold(threshold: float) -> float:
    """Validate a similarity threshold ``θ ∈ (0, 1]`` and return it."""
    if not (0.0 < threshold <= 1.0):
        raise InvalidParameterError(
            f"similarity threshold must be in (0, 1], got {threshold!r}"
        )
    return float(threshold)


def validate_decay(decay: float) -> float:
    """Validate a decay rate ``λ ≥ 0`` and return it."""
    if decay < 0 or not math.isfinite(decay):
        raise InvalidParameterError(f"decay rate must be non-negative, got {decay!r}")
    return float(decay)


def cosine_similarity(x: SparseVector, y: SparseVector) -> float:
    """Content similarity of two unit-normalised vectors (their dot product)."""
    return x.dot(y)


def decay_factor(decay: float, time_delta: float) -> float:
    """Exponential decay multiplier ``exp(-λ·Δt)`` for a time gap ``Δt ≥ 0``."""
    if time_delta < 0:
        raise InvalidParameterError(f"time delta must be non-negative, got {time_delta!r}")
    return math.exp(-decay * time_delta)


def time_dependent_similarity(x: SparseVector, y: SparseVector, decay: float) -> float:
    """The paper's ``sim_Δt``: cosine similarity damped by arrival-time distance."""
    delta = abs(x.timestamp - y.timestamp)
    return x.dot(y) * decay_factor(decay, delta)


def time_horizon(threshold: float, decay: float) -> float:
    """Time horizon ``τ = λ⁻¹ ln θ⁻¹``.

    A vector older than ``τ`` cannot be ``θ``-similar to any newly arrived
    vector, because ``dot(x, y) ≤ 1`` implies
    ``sim_Δt(x, y) ≤ exp(-λ·Δt) < θ`` whenever ``Δt > τ``.

    When ``λ = 0`` (no forgetting) the horizon is infinite; when ``θ = 1``
    the horizon is 0 (only simultaneous exact duplicates qualify).
    """
    threshold = validate_threshold(threshold)
    decay = validate_decay(decay)
    if decay == 0.0:
        return math.inf
    return math.log(1.0 / threshold) / decay


def decay_for_horizon(threshold: float, horizon: float) -> float:
    """Decay rate ``λ = τ⁻¹ ln θ⁻¹`` that yields the requested horizon.

    This is step 3 of the parameter-setting methodology in Section 3 of the
    paper: pick the threshold and the horizon from the application, derive
    the decay rate.
    """
    threshold = validate_threshold(threshold)
    if horizon <= 0 or not math.isfinite(horizon):
        raise InvalidParameterError(f"horizon must be positive and finite, got {horizon!r}")
    return math.log(1.0 / threshold) / horizon


@dataclass(frozen=True)
class JoinParameters:
    """Validated parameter bundle for a streaming similarity self-join.

    Attributes
    ----------
    threshold:
        Similarity threshold ``θ`` in ``(0, 1]``.
    decay:
        Time-decay rate ``λ ≥ 0``.
    backend:
        Compute backend for the hot loops (``"python"``, ``"numpy"`` or
        ``None``/``"auto"``; the retired ``"numba"`` runs ``"numpy"``).
        For a STR join ``auto`` starts on ``"python"`` and moves once to
        the vectorised kernel when the gathers grow past the measured
        crossover; MiniBatch and sharded joins run
        :func:`~repro.backends.default_backend`.  See
        :func:`~repro.core.join.create_join`.
    approx:
        Optional approximate-tier spec (:mod:`repro.approx`), e.g.
        ``"minhash"`` or ``"wminhash:24x3"``; normalised to its canonical
        spec string.  ``None`` keeps the join exact.
    """

    threshold: float
    decay: float
    backend: str | None = None
    approx: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "threshold", validate_threshold(self.threshold))
        object.__setattr__(self, "decay", validate_decay(self.decay))
        if self.backend is not None:
            object.__setattr__(self, "backend", str(self.backend).lower())
        if self.approx is not None:
            from repro.approx import parse_approx

            config = parse_approx(self.approx)
            object.__setattr__(self, "approx",
                               config.spec() if config is not None else None)

    @property
    def horizon(self) -> float:
        """Time horizon ``τ`` implied by the parameters."""
        return time_horizon(self.threshold, self.decay)

    @classmethod
    def from_horizon(cls, threshold: float, horizon: float, *,
                     backend: str | None = None,
                     approx: str | None = None) -> "JoinParameters":
        """Build parameters from ``(θ, τ)`` following the paper's methodology."""
        return cls(threshold=threshold,
                   decay=decay_for_horizon(threshold, horizon),
                   backend=backend, approx=approx)

    def create_join(self, algorithm: str = "STR-L2", *, stats=None):
        """Instantiate a join framework configured with these parameters.

        Convenience wrapper around :func:`repro.core.join.create_join` that
        carries the threshold, decay and backend choice in one object.
        """
        from repro.core.join import create_join

        return create_join(algorithm, self.threshold, self.decay,
                           stats=stats, backend=self.backend,
                           approx=self.approx)

    def similarity(self, x: SparseVector, y: SparseVector) -> float:
        """Time-dependent similarity of two vectors under these parameters."""
        return time_dependent_similarity(x, y, self.decay)

    def is_similar(self, x: SparseVector, y: SparseVector) -> bool:
        """Whether ``sim_Δt(x, y) ≥ θ``."""
        return self.similarity(x, y) >= self.threshold

    def within_horizon(self, time_delta: float) -> bool:
        """Whether a pair with arrival gap ``time_delta`` can still be similar."""
        return time_delta <= self.horizon
