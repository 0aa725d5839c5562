"""Exception hierarchy for the SSSJ reproduction.

All library-specific errors derive from :class:`SSSJError` so that callers
can catch a single base class when they do not care about the precise
failure mode.
"""

from __future__ import annotations


class SSSJError(Exception):
    """Base class for every error raised by this library."""


class InvalidVectorError(SSSJError):
    """Raised when a sparse vector is malformed.

    Typical causes: negative or non-finite coordinate values, duplicate
    dimensions, or an empty vector where a non-empty one is required.
    """


class InvalidParameterError(SSSJError):
    """Raised when an algorithm parameter is out of its valid range.

    Examples: a similarity threshold outside ``(0, 1]`` or a negative
    decay rate.
    """


class StreamOrderError(SSSJError):
    """Raised when stream items arrive with decreasing timestamps.

    Every streaming algorithm in this library assumes that items are
    observed in non-decreasing timestamp order, as in the paper.
    """


class UnknownAlgorithmError(SSSJError):
    """Raised when an algorithm or index name cannot be resolved."""


class UnknownBackendError(SSSJError):
    """Raised when a compute-backend name is not registered.

    The retired ``numba`` name is known and resolves to NumPy instead.
    """


class DatasetFormatError(SSSJError):
    """Raised when an on-disk dataset file cannot be parsed."""


class ShardWorkerError(SSSJError):
    """Raised when a shard worker process died, hung past its recv
    deadline, or could not be recovered by respawn-and-replay.

    The multiprocess executor raises this internally to route a dead or
    unresponsive worker into the recovery path; it only escapes to the
    caller when recovery itself is disabled or exhausted (at which point
    the executor has already degraded to in-process execution, so an
    escaping ``ShardWorkerError`` means the run truly cannot continue).
    """

    def __init__(self, message: str, *, shard: int | None = None,
                 attempts: int | None = None) -> None:
        super().__init__(message)
        self.shard = shard
        self.attempts = attempts


class BudgetExceededError(SSSJError):
    """Raised when a run exceeds its operation or wall-clock budget.

    The benchmark harness uses this to reproduce the paper's Table 2,
    where configurations that do not finish within the allowed budget
    are reported as failures.
    """

    def __init__(self, message: str, *, operations: int | None = None,
                 elapsed: float | None = None) -> None:
        super().__init__(message)
        self.operations = operations
        self.elapsed = elapsed
