"""High-level public API for the streaming similarity self-join.

Most users interact with the library through this module:

* :class:`StreamingSimilarityJoin` — the STR framework with a streaming
  index (``STR-L2`` by default, the configuration the paper recommends),
* :class:`MiniBatchSimilarityJoin` — the MB framework over a batch index,
* :func:`streaming_self_join` — one-shot convenience function,
* :func:`create_join` — build either framework from an algorithm string
  such as ``"STR-L2"`` or ``"MB-INV"``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.core.frameworks.base import JoinFramework
from repro.core.frameworks.minibatch import MiniBatchFramework
from repro.core.frameworks.streaming import StreamingFramework
from repro.core.results import JoinStatistics, SimilarPair
from repro.core.vector import SparseVector
from repro.exceptions import UnknownAlgorithmError

__all__ = [
    "StreamingSimilarityJoin",
    "MiniBatchSimilarityJoin",
    "create_join",
    "streaming_self_join",
    "parse_algorithm",
]

_FRAMEWORKS: dict[str, type[JoinFramework]] = {
    "STR": StreamingFramework,
    "MB": MiniBatchFramework,
}


class StreamingSimilarityJoin(StreamingFramework):
    """The recommended configuration: the STR framework (default index L2).

    Example
    -------
    >>> from repro import SparseVector, StreamingSimilarityJoin
    >>> join = StreamingSimilarityJoin(threshold=0.7, decay=0.1)
    >>> a = SparseVector(1, 0.0, {0: 1.0, 1: 1.0})
    >>> b = SparseVector(2, 1.0, {0: 1.0, 1: 1.0})
    >>> [pair.key for pair in join.run([a, b])]
    [(1, 2)]
    """


class MiniBatchSimilarityJoin(MiniBatchFramework):
    """The MiniBatch framework exposed under a user-facing name."""


def parse_algorithm(algorithm: str) -> tuple[str, str]:
    """Split an algorithm string like ``"STR-L2"`` into (framework, index)."""
    parts = algorithm.upper().replace("_", "-").split("-", maxsplit=1)
    if len(parts) != 2 or parts[0] not in _FRAMEWORKS:
        raise UnknownAlgorithmError(
            f"cannot parse algorithm {algorithm!r}; expected '<framework>-<index>' "
            f"with framework in {sorted(_FRAMEWORKS)} (e.g. 'STR-L2', 'MB-INV')"
        )
    return parts[0], parts[1]


def create_join(algorithm: str, threshold: float, decay: float, *,
                stats: JoinStatistics | None = None,
                backend: str | None = None,
                workers: int | None = None,
                approx: str | None = None,
                fault_plan=None) -> JoinFramework:
    """Instantiate a join framework from an algorithm string.

    ``algorithm`` combines a framework and an index name, separated by a
    dash: ``"STR-L2"``, ``"STR-L2AP"``, ``"STR-INV"``, ``"MB-L2"``,
    ``"MB-L2AP"``, ``"MB-INV"``, ...

    ``backend`` selects the compute backend for the hot loops (``"python"``,
    ``"numpy"``, ``"numba"``, or a kernel instance).  ``None``/``"auto"``
    depends on the framework: a single-process STR join starts on
    ``"python"`` and moves once to the vectorised kernel when its
    queries' gathers grow past the measured crossover
    (:mod:`repro.core.frameworks.streaming`); MiniBatch and sharded joins
    run :func:`~repro.backends.default_backend` throughout.  A concrete
    ``SSSJ_BACKEND`` pins every ``auto`` join to that backend.

    ``workers`` switches construction to the sharded parallel engine
    (:mod:`repro.shard`) with that many candidate partitions, each
    storing every ``workers``-th vector — STR only.  Partition 0 runs in
    this process and every other partition in a forked worker process, so
    ``close()`` the returned join (or use it as a context manager).

    ``approx`` opts into the approximate sketch-prefilter tier
    (:mod:`repro.approx`): a spec string such as ``"minhash"`` or
    ``"wminhash:24x3"`` (or a ready :class:`~repro.approx.ApproxConfig`).
    Prefix-filter schemes only, incompatible with ``workers``.

    ``fault_plan`` injects worker-process faults into the sharded engine
    (:mod:`repro.faults`): a spec string, :class:`~repro.faults.FaultPlan`
    or :class:`~repro.faults.FaultInjector`.  Requires ``workers``.
    """
    if workers is not None:
        if approx is not None:
            from repro.exceptions import InvalidParameterError

            raise InvalidParameterError(
                "approx mode is not supported by the sharded engine; "
                "drop either --approx or --workers")
        from repro.shard import create_sharded_join

        return create_sharded_join(algorithm, threshold, decay,
                                   workers=workers, stats=stats,
                                   backend=backend, fault_plan=fault_plan)
    if fault_plan is not None:
        from repro.exceptions import InvalidParameterError

        raise InvalidParameterError(
            "fault plans with worker events require the sharded engine; "
            "pass workers=N (CLI: --workers)")
    framework_name, index_name = parse_algorithm(algorithm)
    framework_cls = _FRAMEWORKS[framework_name]
    return framework_cls(threshold, decay, index=index_name, stats=stats,
                         backend=backend, approx=approx)


def streaming_self_join(
    stream: Iterable[SparseVector],
    threshold: float,
    decay: float,
    *,
    algorithm: str = "STR-L2",
    stats: JoinStatistics | None = None,
    backend: str | None = None,
    approx: str | None = None,
) -> Iterator[SimilarPair]:
    """Run a streaming similarity self-join over ``stream`` and yield pairs.

    This is the one-shot form of the API; for incremental use (feeding
    vectors one at a time, inspecting statistics mid-run) instantiate
    :class:`StreamingSimilarityJoin` or :class:`MiniBatchSimilarityJoin`
    directly.
    """
    join = create_join(algorithm, threshold, decay, stats=stats,
                       backend=backend, approx=approx)
    return join.run(stream)
