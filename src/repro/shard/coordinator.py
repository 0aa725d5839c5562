"""Coordinator of the sharded streaming join.

One join, W candidate partitions (:mod:`repro.shard.partition`).  Every
partition runs every vector as a query; partition ``k`` stores only the
vectors of arrival steps ``k mod W``.  Per arriving vector the
coordinator checks arrival order, hands the vector to the executor — which
sends it to the forked partitions and runs partition 0 itself, on the
join's own kernel — and merges what comes back:

* **pairs** — each partition reports its pairs in its own candidate
  order, each with a merge key (the query position of the candidate's
  first posting, and that posting's append step); sorting the union by
  key restores the single-process report order;
* **counters** — summed across partitions, except ``reindexings`` (OR-ed
  per step: one re-indexing event may touch vectors of several
  partitions) and ``max_index_size``/``max_residual_size`` (maxima over
  steps of the per-step sums).

Determinism contract
--------------------
A sharded run is **bitwise identical** to the single-process run on the
same kernel — same pairs in the same order, same similarities, same
operation counters — for every worker count.  A candidate's admission,
accumulation, pruning and verification read only its own postings and
residual, plus query-side state (``m``, ``m̂^λ``) that every partition
keeps for the whole stream; so each partition takes the single-process
decisions for the candidates it owns.  ``tests/test_shard.py`` pins this
down.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import itemgetter

from repro import obs
from repro.backends import SimilarityKernel, resolve_kernel
from repro.core.frameworks.base import JoinFramework
from repro.core.results import JoinStatistics, ShardCounters, SimilarPair
from repro.core.vector import SparseVector
from repro.exceptions import UnknownAlgorithmError
from repro.indexes.base import STREAMING_INDEXES
from repro.shard.executor import ProcessShardExecutor
from repro.shard.partition import SUMMED_COUNTERS, PartitionSpec

__all__ = ["ShardedStreamingJoin", "create_sharded_join"]


def _collect_shard_join(join: "ShardedStreamingJoin") -> None:
    """Scrape-time collector: executor health.

    Deliberately does NOT call :meth:`shard_counters` — that talks to the
    workers over their pipes, and a scrape must never perturb the stream.
    Per-partition counters stay on the ``stats`` endpoint.
    """
    registry = obs.get_registry()
    registry.gauge("sssj_shard_workers",
                   "Candidate partitions of the sharded join.").labels().set(
        join.workers)
    registry.gauge("sssj_shard_degraded",
                   "1 when a partition fell back to in-process "
                   "execution.").labels().set(1 if join.degraded else 0)
    join._obs_tracker.export(registry.counter(
        "sssj_shard_respawns_total",
        "Successful shard worker respawns.").labels(), "respawns",
        join.executor.respawns)


def _backend_name(kernel: SimilarityKernel) -> str:
    """The registered backend under wrapping kernels (tracing, profiling)."""
    while hasattr(kernel, "_inner"):
        kernel = kernel._inner
    return kernel.name


class ShardedStreamingJoin(JoinFramework):
    """The STR framework over W candidate partitions.

    Drop-in for :class:`repro.core.join.StreamingSimilarityJoin` plus the
    sharding knobs; close (or use as a context manager) to shut the
    worker processes down.  A closed join raises
    :class:`~repro.exceptions.SSSJError` on every call that would reach a
    partition.

    Parameters
    ----------
    workers:
        Number of partitions.  ``1`` is a single partition that owns
        every vector (the parity anchor).
    executor:
        ``"process"`` (partition 0 in this process, one child process per
        other partition) or ``"serial"`` (every partition in this
        process — deterministic, no parallelism; the parity suites' seam).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` (or spec string, or an
        already-built :class:`~repro.faults.FaultInjector`) injecting
        real worker faults — see :mod:`repro.faults`.
    """

    name = "STR"

    #: Vectors per exchange in :meth:`feed` and :meth:`run`.
    FEED_CHUNK = 64

    def __init__(self, threshold: float, decay: float, *,
                 index: str = "L2", workers: int = 2,
                 executor: str = "process",
                 stats: JoinStatistics | None = None,
                 backend: str | SimilarityKernel | None = None,
                 fault_plan=None) -> None:
        # "auto" (and the SSSJ_BACKEND default) resolve to NumPy here: the
        # partitions' scans grow with the stream, past the adaptive rule's
        # crossover; an explicit backend is used as given.
        if backend is None or (isinstance(backend, str)
                               and backend.lower() == "auto"):
            backend = "numpy"
        super().__init__(threshold, decay, index=index, stats=stats,
                         backend=backend)
        if self.index_name not in STREAMING_INDEXES:
            raise UnknownAlgorithmError(
                f"no streaming index {index!r}; "
                f"available: {sorted(STREAMING_INDEXES)}")
        if workers < 1:
            raise ValueError(f"need at least one partition, got {workers}")
        if executor not in ("process", "serial"):
            raise ValueError(f"unknown shard executor {executor!r}; "
                             f"expected 'serial' or 'process'")
        self.workers = workers
        self._kernel = kernel = resolve_kernel(backend)
        spec = PartitionSpec(self.index_name, self.threshold, self.decay,
                             workers, _backend_name(kernel))
        #: The partitions; the join drives them one exchange per call.
        self.executor = ProcessShardExecutor(
            spec, kernel, fork=executor == "process",
            faults=_coerce_injector(fault_plan))
        #: Arrival steps exchanged so far (the next vector's step).
        self._steps = 0
        self._obs_tracker = obs.DeltaTracker()
        if obs.enabled():
            obs.get_registry().add_collector(_collect_shard_join, owner=self)

    # -- introspection ---------------------------------------------------------

    @property
    def backend_name(self) -> str:
        return self._kernel.name

    def shard_counters(self) -> list[ShardCounters]:
        """Per-partition traffic/balance counters (see ShardCounters)."""
        return self.executor.counters()

    @property
    def degraded(self) -> bool:
        """Has a partition fallen back to in-process execution?"""
        return self.executor.degraded

    @property
    def recovery_events(self) -> list[dict]:
        """Respawn/degrade events recorded by the executor (chronological)."""
        return list(self.executor.recovery_events)

    # -- driving ---------------------------------------------------------------

    def process(self, vector: SparseVector) -> list[SimilarPair]:
        self._check_order(vector)
        return self._exchange([vector])[0]

    def feed(self, vectors: Iterable[SparseVector]) -> list[SimilarPair]:
        """Like :meth:`process` over ``vectors``, ``FEED_CHUNK`` at a time.

        A chunk costs one round trip per forked partition instead of one
        per vector, so the partitions work in parallel for longer.
        """
        pairs: list[SimilarPair] = []
        for chunk in self._chunks(vectors):
            for found in self._exchange(chunk):
                pairs.extend(found)
        return pairs

    def run(self, stream: Iterable[SparseVector]) -> Iterator[SimilarPair]:
        """Process a whole stream, ``FEED_CHUNK`` vectors per exchange.

        Pairs come in the same order as from :meth:`process`, but a
        chunk's pairs are yielded only once the whole chunk (or the
        stream) has been read and processed.
        """
        for chunk in self._chunks(stream):
            for found in self._exchange(chunk):
                yield from found
        yield from self.flush()

    def _chunks(self, vectors: Iterable[SparseVector],
                ) -> Iterator[list[SparseVector]]:
        """``vectors`` in order-checked chunks of up to ``FEED_CHUNK``.

        When reading or checking a vector raises, the vectors accepted
        before it still form a last chunk, so they are processed as
        :meth:`process` would have processed them; the error follows.
        """
        chunk: list[SparseVector] = []
        try:
            for vector in vectors:
                self._check_order(vector)
                chunk.append(vector)
                if len(chunk) == self.FEED_CHUNK:
                    yield chunk
                    chunk = []
        except Exception:
            if chunk:
                yield chunk
            raise
        if chunk:
            yield chunk

    def _exchange(self, vectors: list[SparseVector],
                  ) -> list[list[SimilarPair]]:
        """Run the stream's next vectors; their pairs, vector by vector."""
        with obs.span("shard_exchange"):
            replies = self.executor.exchange(vectors, self._steps)
        self._steps += len(vectors)
        return [self._merge([partition[i] for partition in replies])
                for i in range(len(vectors))]

    def _merge(self, replies: list[tuple]) -> list[SimilarPair]:
        """One step's pairs in single-process order; its counters."""
        stats = self.stats
        counts = [reply[2] for reply in replies]
        for name, *deltas in zip(SUMMED_COUNTERS,
                                 *(count[3] for count in counts)):
            total = sum(deltas)
            if total:
                setattr(stats, name, getattr(stats, name) + total)
        if any(count[0] for count in counts):
            stats.reindexings += 1
        stats.max_index_size = max(stats.max_index_size,
                                   sum(count[1] for count in counts))
        stats.max_residual_size = max(stats.max_residual_size,
                                      sum(count[2] for count in counts))
        if len(replies) == 1:
            pairs = replies[0][0]
        else:
            keyed = [item for found, keys, _ in replies
                     for item in zip(keys, found)]
            keyed.sort(key=itemgetter(0))
            pairs = [pair for _, pair in keyed]
        stats.vectors_processed += 1
        stats.pairs_output += len(pairs)
        return pairs

    def close(self) -> None:
        """Shut the shard workers down (idempotent)."""
        self.executor.close()

    def __enter__(self) -> "ShardedStreamingJoin":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()


def _coerce_injector(fault_plan):
    """Accept a spec string, a FaultPlan, an injector, or ``None``."""
    if fault_plan is None:
        return None
    from repro.faults import FaultInjector, parse_fault_plan

    if isinstance(fault_plan, FaultInjector):
        return fault_plan
    return FaultInjector(parse_fault_plan(fault_plan))


def create_sharded_join(algorithm: str, threshold: float, decay: float, *,
                        workers: int, stats: JoinStatistics | None = None,
                        backend: str | SimilarityKernel | None = None,
                        executor: str = "process",
                        fault_plan=None) -> ShardedStreamingJoin:
    """Build a sharded streaming join from an ``"STR-<INDEX>"`` string.

    The sharded engine parallelises the STR framework only (MB rebuilds
    batch indexes per window; sharding those is future work).
    """
    from repro.core.join import parse_algorithm

    framework, index = parse_algorithm(algorithm)
    if framework != "STR":
        raise UnknownAlgorithmError(
            f"the sharded engine supports the STR framework only, "
            f"got {algorithm!r}")
    return ShardedStreamingJoin(threshold, decay, index=index, workers=workers,
                                executor=executor, stats=stats, backend=backend,
                                fault_plan=fault_plan)
