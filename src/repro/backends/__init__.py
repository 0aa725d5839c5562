"""Pluggable compute backends for the similarity-join hot loops.

Every index (and both baselines) routes its posting-list scans, decay/time
filtering and verification dot products through a
:class:`~repro.backends.base.SimilarityKernel`.  Two backends ship with
the library:

``python``
    The pure-Python reference implementation — dependency-free, the
    semantic ground truth every other backend is equivalence-tested
    against (:mod:`repro.backends.reference`).
``numpy``
    Contiguous-array posting lists and vectorised scan kernels
    (:mod:`repro.backends.numpy_backend`).

``numba`` is a retired name: the compiled tier was removed, and a join,
checkpoint, session or ``SSSJ_BACKEND`` that names it runs on ``numpy``
after one warning (see :func:`get_backend`).

Selection
---------
The backend is chosen per join via ``backend=`` on the public entry points
(:func:`repro.create_join`, :func:`repro.streaming_self_join`,
:func:`repro.all_pairs`, the index constructors, the ``sssj`` CLI) or the
``backend`` field of :class:`repro.JoinParameters`.  ``None`` or ``"auto"``
means one of two things:

* for a single-process STR join, an *adaptive* kernel: the join starts on
  ``python`` and moves once, mid-stream, to :func:`default_backend`'s
  kernel when its queries' mean gather size reaches the measured
  crossover (:mod:`repro.core.frameworks.streaming`);
* for everything else — MiniBatch joins, sharded joins, indexes built
  directly — :func:`default_backend`: ``numpy``.

Setting the ``SSSJ_BACKEND`` environment variable to a backend name pins
every ``auto`` join to it, STR joins included (:func:`auto_is_adaptive`).

>>> from repro.backends import available_backends, resolve_kernel
>>> "python" in available_backends()
True
>>> resolve_kernel("python").name
'python'
"""

from __future__ import annotations

import os
import warnings

from repro.backends.base import (
    CandidateSet,
    ScoreAccumulator,
    SimilarityKernel,
    SizeFilterMap,
)
from repro.backends.numpy_backend import NumpyKernel
from repro.backends.reference import ReferenceKernel
from repro.exceptions import UnknownBackendError

__all__ = [
    "CandidateSet",
    "ScoreAccumulator",
    "SimilarityKernel",
    "SizeFilterMap",
    "ReferenceKernel",
    "auto_is_adaptive",
    "available_backends",
    "backend_availability",
    "default_backend",
    "get_backend",
    "known_backends",
    "probe_backends",
    "register_backend",
    "resolve_kernel",
]

#: Environment variable overriding the ``"auto"`` backend resolution.
BACKEND_ENV_VAR = "SSSJ_BACKEND"

_BACKENDS: dict[str, type[SimilarityKernel]] = {}

#: Backend names the library knows but cannot run here:
#: ``name -> (reason, description)``.  ``get_backend`` falls back to the
#: default for these instead of raising, and the CLI probe reports them.
_UNAVAILABLE: dict[str, tuple[str, str]] = {}

#: Names already warned about (one fallback warning per process & name).
_FALLBACK_WARNED: set[str] = set()


def register_backend(cls: type[SimilarityKernel]) -> type[SimilarityKernel]:
    """Add a kernel class to the backend registry (keyed by ``cls.name``)."""
    _BACKENDS[cls.name.lower()] = cls
    return cls


register_backend(ReferenceKernel)
register_backend(NumpyKernel)

# The compiled tier is gone; its name stays known so that whatever still
# names it resumes on the fallback below instead of raising.
_UNAVAILABLE["numba"] = (
    "the compiled tier was removed; it runs on numpy",
    "retired compiled tier (resolves to numpy)")


def available_backends() -> list[str]:
    """Names of the registered (usable) backends, reference backend first."""
    return sorted(_BACKENDS, key=lambda name: (name != "python", name))


def known_backends() -> list[str]:
    """Every backend name the library knows, usable here or not."""
    return sorted(set(_BACKENDS) | set(_UNAVAILABLE),
                  key=lambda name: (name != "python", name))


def backend_availability(name: str) -> tuple[bool, str | None]:
    """``(available, reason)`` for a backend name (reason when not)."""
    key = name.lower()
    if key in ("auto", ""):
        return True, None
    if key in _BACKENDS:
        return True, None
    if key in _UNAVAILABLE:
        return False, _UNAVAILABLE[key][0]
    return False, f"unknown backend {name!r}"


def probe_backends() -> list[dict]:
    """Availability report for every known backend (CLI ``sssj backends``).

    One dict per backend: ``name``, ``available``, ``reason`` (``None``
    when available) and ``description``.
    """
    report = []
    for name in known_backends():
        cls = _BACKENDS.get(name)
        if cls is not None:
            report.append({"name": name, "available": True, "reason": None,
                           "description": cls.description})
        else:
            reason, description = _UNAVAILABLE[name]
            report.append({"name": name, "available": False,
                           "reason": reason, "description": description})
    return report


def _fallback_for(name: str) -> type[SimilarityKernel]:
    """Degrade an unavailable-but-known backend to NumPy."""
    if name not in _FALLBACK_WARNED:
        _FALLBACK_WARNED.add(name)
        warnings.warn(
            f"backend {name!r} is unavailable ({_UNAVAILABLE[name][0]}); "
            "falling back to 'numpy'",
            RuntimeWarning, stacklevel=3)
    return NumpyKernel


def auto_is_adaptive() -> bool:
    """Whether ``"auto"`` STR joins choose their kernel adaptively.

    True unless ``SSSJ_BACKEND`` names a concrete backend, which pins
    every ``auto`` join to :func:`default_backend`.
    """
    return os.environ.get(BACKEND_ENV_VAR, "").strip().lower() in ("", "auto")


def default_backend() -> str:
    """The backend ``"auto"`` resolves to when it resolves to one kernel.

    The ``SSSJ_BACKEND`` environment variable wins when set to a registered
    backend name; otherwise the vectorised backend, ``numpy``, is picked.
    That is what MiniBatch joins, sharded joins and directly built indexes
    run, and the kernel an adaptive STR join moves to once its gathers
    grow past the measured crossover; below it the ``python`` kernel is
    faster (:mod:`repro.core.frameworks.streaming`).  Setting it to the
    retired ``numba`` degrades to ``numpy`` with a warning instead of
    failing.
    """
    override = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    if override and override != "auto":
        if override in _BACKENDS:
            return override
        if override in _UNAVAILABLE:
            return _fallback_for(override).name
        raise UnknownBackendError(
            f"{BACKEND_ENV_VAR}={override!r} is not a registered backend; "
            f"available: {available_backends()}"
        )
    return "numpy"


def get_backend(name: str | None = None) -> type[SimilarityKernel]:
    """Kernel class registered under ``name`` (``None``/``"auto"`` → default).

    ``None``/``"auto"`` resolve to :func:`default_backend`; the adaptive
    STR rule is the framework's, not this function's, so a caller that
    needs one kernel class always gets one.

    A *known* backend that cannot run here (the retired ``numba``)
    resolves to ``numpy`` with a one-time warning, so sessions, shard
    workers and restored checkpoints that name it keep working.  Unknown
    names still raise :class:`~repro.exceptions.UnknownBackendError`; the
    CLI additionally fails fast (exit 2) when an unavailable backend is
    requested explicitly.
    """
    if name is None or name.lower() == "auto":
        name = default_backend()
    key = name.lower()
    try:
        return _BACKENDS[key]
    except KeyError:
        if key in _UNAVAILABLE:
            return _fallback_for(key)
        raise UnknownBackendError(
            f"unknown compute backend {name!r}; available: {available_backends()}"
        ) from None


def resolve_kernel(backend: str | SimilarityKernel | None) -> SimilarityKernel:
    """Materialise a kernel instance from a backend spec.

    ``backend`` may be a registered name, ``"auto"``/``None`` for the
    default, or an existing :class:`SimilarityKernel` instance (used by
    tests; a kernel holds per-index state, so never share one instance
    between indexes).
    """
    if isinstance(backend, SimilarityKernel):
        return backend
    return get_backend(backend)()

