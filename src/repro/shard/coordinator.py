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

from repro import obs
from repro.backends import SimilarityKernel, resolve_kernel
from repro.core.frameworks.base import JoinFramework
from repro.core.results import JoinStatistics, ShardCounters, SimilarPair
from repro.core.vector import SparseVector
from repro.exceptions import UnknownAlgorithmError
from repro.indexes.base import STREAMING_INDEXES
from repro.shard.executor import create_executor
from repro.shard.partition import SUMMED_COUNTERS, PartitionSpec, ShardPlan

__all__ = ["ShardedStreamingJoin", "PartitionedIndex", "create_sharded_join"]


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
    respawns = getattr(join._index._executor, "respawns", 0)
    join._obs_tracker.export(registry.counter(
        "sssj_shard_respawns_total",
        "Successful shard worker respawns.").labels(), "respawns", respawns)


def _backend_name(kernel: SimilarityKernel) -> str:
    """The registered backend under wrapping kernels (tracing, profiling)."""
    while hasattr(kernel, "_inner"):
        kernel = kernel._inner
    return kernel.name


class PartitionedIndex:
    """The join's view of its partitions: one exchange and merge per vector."""

    def __init__(self, kernel: SimilarityKernel, executor,
                 stats: JoinStatistics) -> None:
        self.kernel = kernel
        self.stats = stats
        self._executor = executor
        self.steps = 0

    @property
    def backend_name(self) -> str:
        return self.kernel.name

    def process(self, vector: SparseVector) -> list[SimilarPair]:
        return self.process_batch([vector])[0]

    def process_batch(self, vectors: list[SparseVector],
                      ) -> list[list[SimilarPair]]:
        """Run the stream's next vectors; their pairs, vector by vector."""
        with obs.span("shard_exchange"):
            replies = self._executor.exchange(vectors, self.steps)
        self.steps += len(vectors)
        return [self._merge([partition[i] for partition in replies])
                for i in range(len(vectors))]

    def _merge(self, replies: list) -> list[SimilarPair]:
        """One step's pairs in single-process order; its counters."""
        stats = self.stats
        counts = [reply.counts for reply in replies]
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
            pairs = replies[0].pairs
        else:
            keyed = [(key, pair) for reply in replies
                     for key, pair in zip(reply.keys, reply.pairs)]
            keyed.sort(key=lambda item: item[0])
            pairs = [pair for _, pair in keyed]
        stats.vectors_processed += 1
        stats.pairs_output += len(pairs)
        return pairs


class ShardedStreamingJoin(JoinFramework):
    """The STR framework over W candidate partitions.

    Drop-in for :class:`repro.core.join.StreamingSimilarityJoin` plus the
    sharding knobs; close (or use as a context manager) to shut the
    worker processes down.

    Parameters
    ----------
    workers:
        Number of partitions.  ``1`` is a single partition that owns
        every vector (the parity anchor).
    executor:
        ``"process"`` (partition 0 in this process, one child process per
        other partition) or ``"serial"`` (every partition in this
        process — deterministic, CI-safe, no parallelism).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` (or spec string, or an
        already-built :class:`~repro.faults.FaultInjector`) injecting
        real worker faults — see :mod:`repro.faults`.
    recv_timeout / max_respawns / recovery:
        Crash-tolerance knobs of the process executor: the per-reply
        deadline, the respawn budget before a partition degrades to
        in-process execution, and whether the input is retained for
        replay at all.
    """

    name = "STR"

    def __init__(self, threshold: float, decay: float, *,
                 index: str = "L2AP", workers: int = 2,
                 executor: str = "process",
                 stats: JoinStatistics | None = None,
                 backend: str | SimilarityKernel | None = None,
                 fault_plan=None,
                 recv_timeout: float = 10.0,
                 max_respawns: int = 3,
                 recovery: bool = True) -> None:
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
        plan = ShardPlan(workers)
        kernel = resolve_kernel(backend)
        spec = PartitionSpec(self.index_name, self.threshold, self.decay,
                             plan.workers, _backend_name(kernel))
        faults = _coerce_injector(fault_plan)
        self.fault_injector = faults
        self.plan = plan
        self._index = PartitionedIndex(
            kernel,
            create_executor(spec, kernel, executor,
                            recv_timeout=recv_timeout,
                            max_respawns=max_respawns, recovery=recovery,
                            faults=faults),
            self.stats)
        self._closed = False
        self._obs_tracker = obs.DeltaTracker()
        if obs.enabled():
            obs.get_registry().add_collector(_collect_shard_join, owner=self)

    # -- introspection ---------------------------------------------------------

    @property
    def index(self) -> PartitionedIndex:
        """The partitioned index behind the join."""
        return self._index

    @property
    def backend_name(self) -> str:
        return self._index.backend_name

    @property
    def workers(self) -> int:
        return self.plan.workers

    def shard_counters(self) -> list[ShardCounters]:
        """Per-partition traffic/balance counters (see ShardCounters)."""
        return self._index._executor.counters()

    @property
    def degraded(self) -> bool:
        """Has a partition fallen back to in-process execution?"""
        return bool(getattr(self._index._executor, "degraded", False))

    @property
    def recovery_events(self) -> list[dict]:
        """Respawn/degrade events recorded by the executor (chronological)."""
        return list(getattr(self._index._executor, "recovery_events", ()))

    # -- driving ---------------------------------------------------------------

    #: Vectors per exchange in :meth:`feed` and :meth:`run`.
    FEED_CHUNK = 64

    def process(self, vector: SparseVector) -> list[SimilarPair]:
        self._check_order(vector)
        return self._index.process(vector)

    def feed(self, vectors: Iterable[SparseVector]) -> list[SimilarPair]:
        """Like :meth:`process` over ``vectors``, ``FEED_CHUNK`` at a time.

        A chunk costs one round trip per forked partition instead of one
        per vector, so the partitions work in parallel for longer.
        """
        pairs: list[SimilarPair] = []
        for chunk in self._chunks(vectors):
            for found in self._index.process_batch(chunk):
                pairs.extend(found)
        return pairs

    def run(self, stream: Iterable[SparseVector]) -> Iterator[SimilarPair]:
        """Process a whole stream, ``FEED_CHUNK`` vectors per exchange.

        Pairs come in the same order as from :meth:`process`, but a
        chunk's pairs are yielded only once the whole chunk (or the
        stream) has been read and processed.
        """
        for chunk in self._chunks(stream):
            for found in self._index.process_batch(chunk):
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

    def close(self) -> None:
        """Shut the shard workers down (idempotent)."""
        if not self._closed:
            self._closed = True
            self._index._executor.close()

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
                        fault_plan=None,
                        recv_timeout: float = 10.0,
                        max_respawns: int = 3,
                        recovery: bool = True) -> ShardedStreamingJoin:
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
                                fault_plan=fault_plan,
                                recv_timeout=recv_timeout,
                                max_respawns=max_respawns, recovery=recovery)
