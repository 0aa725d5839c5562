"""Coordinator of the sharded streaming join.

One join, N shard workers.  The coordinator is the *single-process driver
with the posting lists removed*: it keeps everything whose decisions are
globally sequential — the residual/``Q`` store, the maximum vectors and
re-indexing, the remaining-score bound maintenance, candidate
verification, the operation counters — and it farms out the per-dimension
posting state to the shards.  Per arriving vector:

1. **fan-out** — split the query's terms by owning shard and ship one scan
   request per shard (buffered posting appends of the previous vector and
   of this vector's re-indexing ride along, so one vector costs one
   message per shard);
2. **gather** — each worker time-filters and gathers its terms' postings
   into :class:`~repro.backends.base.SegmentPartial` arrays, stopping
   before global admission;
3. **merge + replay** — the coordinator reorders the partials into the
   global scan order (descending query position), recomputes the
   remaining-score bounds at each segment, and replays the exact fused
   admission/pruning/accumulation pass of the single-process NumPy kernel
   (:meth:`~repro.backends.numpy_backend.NumpyKernel.apply_scan_partials`)
   over them;
4. **verify + index** — verification and indexing run unchanged through
   the :class:`~repro.indexes.prefix.PrefixFilterStreamingIndex` driver;
   the new vector's postings are routed to their owning shards with the
   coordinator's interned slot.

Determinism contract
--------------------
A sharded run is **bitwise identical** to the single-process NumPy run —
same pairs, same similarities, same operation counters — for every worker
count.  This holds because (a) whole dimensions are assigned to single
shards, so every posting list's content and order is identical to the
single-process list; (b) workers only precompute elementwise products
(``x_j·y_j``, decay factors, ``l2bound`` tails) that the fused kernel
computes identically; and (c) every *decision* — admission tri-state,
``sz1``, ``l2bound`` pruning, verification bounds, the final
similarities — is taken by the coordinator in the single-process order.
``tests/test_shard.py`` pins this down property-by-property.
"""

from __future__ import annotations

import time

from repro import obs
from repro.core.frameworks.base import JoinFramework
from repro.core.results import JoinStatistics, ShardCounters, SimilarPair
from repro.core.vector import SparseVector
from repro.exceptions import InvalidParameterError, UnknownAlgorithmError
from repro.indexes.bounds import remaining_score_bounds
from repro.indexes.inverted import InvertedStreamingIndex
from repro.indexes.l2 import L2StreamingIndex
from repro.indexes.l2ap import L2APStreamingIndex
from repro.indexes.allpairs import APStreamingIndex
from repro.shard.executor import create_executor
from repro.shard.plan import ShardPlan

__all__ = [
    "ShardedStreamingJoin",
    "create_sharded_join",
    "ShardedL2APStreamingIndex",
    "ShardedL2StreamingIndex",
    "ShardedAPStreamingIndex",
    "ShardedInvStreamingIndex",
]


def _collect_shard_join(join: "ShardedStreamingJoin") -> None:
    """Scrape-time collector: coordinator stage timings and executor health.

    Deliberately does NOT call :meth:`shard_counters` — that flushes
    buffered appends over the worker pipes, and a scrape must never
    perturb the stream.  Per-shard counters stay on the ``stats``
    endpoint; only coordinator-side accumulators are exported here.
    """
    registry = obs.get_registry()
    tracker = join._obs_tracker
    stages = registry.counter(
        "sssj_shard_stage_seconds_total",
        "Coordinator wall-clock per sharded-join stage.", ("stage",))
    for stage, seconds in join.stage_seconds.items():
        tracker.export(stages.labels(stage=stage), ("stage", stage), seconds)
    registry.gauge("sssj_shard_workers",
                   "Shard workers in the current plan.").labels().set(
        join.workers)
    registry.gauge("sssj_shard_degraded",
                   "1 when the executor fell back to in-process "
                   "execution.").labels().set(1 if join.degraded else 0)
    respawns = getattr(join._executor, "respawns", 0)
    tracker.export(registry.counter(
        "sssj_shard_respawns_total",
        "Successful shard worker respawns.").labels(), "respawns", respawns)


class _ShardPostingStub:
    """Counting-only stand-in for the coordinator's inverted index.

    The coordinator never stores postings — the shards do — but the driver
    tracks the global posting count (``max_index_size``, eviction
    bookkeeping) through the ``InvertedIndex`` counting interface.
    """

    __slots__ = ("_total",)

    def __init__(self) -> None:
        self._total = 0

    def __len__(self) -> int:
        return self._total

    def note_added(self, count: int) -> None:
        self._total += count

    def note_removed(self, count: int) -> None:
        self._total -= count
        if self._total < 0:  # defensive; should never happen
            self._total = 0


class _ShardedMixinBase:
    """State and append routing shared by the prefix and INV coordinators."""

    _plan: ShardPlan | None = None
    _executor = None

    def check_coordinator_kernel(self) -> None:
        """Fail fast when the kernel cannot replay partial accumulations.

        Called by :class:`ShardedStreamingJoin` *before* any worker is
        spawned, and again by :meth:`attach_executor` for direct users.
        """
        if not hasattr(self.kernel, "apply_scan_partials"):
            raise InvalidParameterError(
                "the sharded coordinator requires a backend with partial-"
                "accumulation replay (the NumPy backend); "
                f"got {self.kernel.name!r}")

    def attach_executor(self, plan: ShardPlan, executor) -> None:
        """Wire the coordinator to its shard executor (post-construction)."""
        self.check_coordinator_kernel()
        self._plan = plan
        self._executor = executor
        #: Wall-clock per coordinator stage (fan-out+gather / replay /
        #: verify), for the benchmark artifact's stage breakdown.
        self.stage_seconds = {"exchange": 0.0, "replay": 0.0, "verify": 0.0}

    def shard_counters(self) -> list[ShardCounters]:
        """Per-shard observability counters (balance, compactions, traffic).

        Flushes buffered appends first so the snapshot covers every vector
        processed so far.
        """
        self._executor.flush()
        return self._executor.counters()

    def _make_index(self) -> _ShardPostingStub:
        return _ShardPostingStub()

    def _route_postings(self, vector: SparseVector, start: int,
                        end: int | None) -> int:
        """Buffer ``vector``'s coordinates ``[start, end)`` to their shards."""
        stop = len(vector) if end is None else end
        count = stop - start
        if count <= 0:
            return 0
        # Interning here matches the single-process kernel: the id was
        # already interned by the size-filter/metadata hooks this driver
        # ran just before appending.
        slot = self.kernel._intern(vector.vector_id)
        dims = vector.dims
        values = vector.values
        prefix_norms = vector._prefix_norms
        timestamp = vector.timestamp
        plan = self._plan
        queue_append = self._executor.queue_append
        if plan.workers == 1:
            queue_append(0, slot, list(dims[start:stop]),
                         list(values[start:stop]),
                         list(prefix_norms[start:stop]), timestamp)
        else:
            for shard, positions in enumerate(
                    plan.split_positions(vector, start, stop)):
                if positions:
                    queue_append(shard, slot,
                                 [dims[p] for p in positions],
                                 [values[p] for p in positions],
                                 [prefix_norms[p] for p in positions],
                                 timestamp)
        self._index.note_added(count)
        return count


class ShardedPrefixScanMixin(_ShardedMixinBase):
    """Sharded overrides of the prefix-filter driver's storage/scan hooks."""

    def _append_postings(self, vector: SparseVector, start: int = 0,
                         end: int | None = None) -> int:
        return self._route_postings(vector, start, end)

    def _scan_query(self, vector: SparseVector, now: float, cutoff: float,
                    rs1: float, decayed_maxima: list[float] | None,
                    sz1: float, accumulator) -> tuple[int, int]:
        plan = self._plan
        dims = vector.dims
        values = vector.values
        prefix_norms = vector._prefix_norms
        requests: list[list[tuple]] = [[] for _ in range(plan.workers)]
        for position in range(len(dims) - 1, -1, -1):
            dim = dims[position]
            requests[plan.shard_of(dim)].append(
                (position, dim, values[position], prefix_norms[position]))
        params = {"kind": "prefix", "now": now, "cutoff": cutoff,
                  "decay": self.decay, "use_l2": self.use_l2,
                  "time_ordered": self.time_ordered}
        stage = self.stage_seconds
        started = time.perf_counter()
        with obs.span("shard_exchange"):
            replies = self._executor.exchange(requests, params)
        stage["exchange"] += time.perf_counter() - started
        partials = [partial for reply in replies for partial in reply[0]]
        traversed = sum(reply[1] for reply in replies)
        removed = sum(reply[2] for reply in replies)
        if not partials:
            return traversed, removed
        started = time.perf_counter()
        # Global scan order: descending query position (positions are
        # unique, so the sort fully determines the merge).
        partials.sort(key=lambda partial: -partial.position)
        rs1_at, rs2_at = remaining_score_bounds(
            vector, rs1, decayed_maxima, use_ap=self.use_ap,
            use_l2=self.use_l2)
        self.kernel.apply_scan_partials(
            partials, [rs1_at[partial.position] for partial in partials],
            [rs2_at[partial.position] for partial in partials],
            sz1=sz1, threshold=self.threshold,
            decay=self.decay, now=now, use_ap=self.use_ap,
            use_l2=self.use_l2, acc=accumulator)
        stage["replay"] += time.perf_counter() - started
        return traversed, removed

    def _candidate_verification(self, vector: SparseVector,
                                candidates) -> list[SimilarPair]:
        started = time.perf_counter()
        pairs = super()._candidate_verification(vector, candidates)
        self.stage_seconds["verify"] += time.perf_counter() - started
        return pairs


class ShardedInvScanMixin(_ShardedMixinBase):
    """Sharded overrides of the STR-INV driver's storage/scan hooks."""

    def _append_postings(self, vector: SparseVector) -> int:
        return self._route_postings(vector, 0, None)

    def _scan_query(self, vector: SparseVector, cutoff: float,
                    accumulator) -> tuple[int, int]:
        plan = self._plan
        requests: list[list[tuple]] = [[] for _ in range(plan.workers)]
        for position, (dim, value) in enumerate(vector):
            requests[plan.shard_of(dim)].append((position, dim, value))
        params = {"kind": "inv", "cutoff": cutoff}
        stage = self.stage_seconds
        started = time.perf_counter()
        with obs.span("shard_exchange"):
            replies = self._executor.exchange(requests, params)
        stage["exchange"] += time.perf_counter() - started
        partials = [partial for reply in replies for partial in reply[0]]
        traversed = sum(reply[1] for reply in replies)
        removed = sum(reply[2] for reply in replies)
        if not partials:
            return traversed, removed
        started = time.perf_counter()
        partials.sort(key=lambda partial: partial.position)  # query order
        self.kernel.apply_inv_partials(partials, accumulator)
        stage["replay"] += time.perf_counter() - started
        return traversed, removed


class ShardedL2APStreamingIndex(ShardedPrefixScanMixin, L2APStreamingIndex):
    """STR-L2AP with dimension-sharded posting state."""


class ShardedL2StreamingIndex(ShardedPrefixScanMixin, L2StreamingIndex):
    """STR-L2 with dimension-sharded posting state."""


class ShardedAPStreamingIndex(ShardedPrefixScanMixin, APStreamingIndex):
    """Streaming AP with dimension-sharded posting state (ablations)."""


class ShardedInvStreamingIndex(ShardedInvScanMixin, InvertedStreamingIndex):
    """STR-INV with dimension-sharded posting state."""


_SHARDED_INDEXES = {
    "L2AP": ShardedL2APStreamingIndex,
    "L2": ShardedL2StreamingIndex,
    "AP": ShardedAPStreamingIndex,
    "INV": ShardedInvStreamingIndex,
}


class ShardedStreamingJoin(JoinFramework):
    """The STR framework over a dimension-sharded streaming index.

    Drop-in for :class:`repro.core.join.StreamingSimilarityJoin` plus the
    sharding knobs; close (or use as a context manager) to shut the
    worker processes down.

    Parameters
    ----------
    workers:
        Number of shards.  ``1`` is the degenerate single-shard
        configuration (useful as the parity anchor).
    executor:
        ``"process"`` (one child process per shard) or ``"serial"``
        (all shards in-process — deterministic, CI-safe, no parallelism).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` (or spec string, or an
        already-built :class:`~repro.faults.FaultInjector`) injecting
        real worker faults — see :mod:`repro.faults`.
    recv_timeout / max_respawns / recovery:
        Crash-tolerance knobs of the process executor: the per-reply
        deadline, the respawn budget before degrading to in-process
        execution, and whether the replay history is kept at all.
    """

    name = "STR"

    def __init__(self, threshold: float, decay: float, *,
                 index: str = "L2AP", workers: int = 2,
                 executor: str = "process",
                 stats: JoinStatistics | None = None,
                 backend: str | None = None,
                 fault_plan=None,
                 recv_timeout: float = 10.0,
                 max_respawns: int = 3,
                 recovery: bool = True) -> None:
        # The coordinator's replay runs on the NumPy kernel's slot arrays,
        # so "auto" (and the SSSJ_BACKEND default) resolve to numpy here
        # regardless of the single-process default; an explicit
        # incompatible backend still fails loudly in attach_executor.
        if backend is None or (isinstance(backend, str)
                               and backend.lower() == "auto"):
            backend = "numpy"
        super().__init__(threshold, decay, index=index, stats=stats,
                         backend=backend)
        try:
            index_cls = _SHARDED_INDEXES[self.index_name]
        except KeyError:
            raise UnknownAlgorithmError(
                f"no sharded variant of streaming index {index!r}; "
                f"available: {sorted(_SHARDED_INDEXES)}") from None
        self._index = index_cls(threshold, decay, stats=self.stats,
                                backend=backend)
        # Validate the coordinator kernel and the plan BEFORE spawning
        # anything: a failed construction must not leak worker processes.
        self._index.check_coordinator_kernel()
        plan = ShardPlan(workers)
        faults = _coerce_injector(fault_plan)
        self.fault_injector = faults
        self._executor = create_executor(
            plan, executor, recv_timeout=recv_timeout,
            max_respawns=max_respawns, recovery=recovery, faults=faults)
        try:
            self._index.attach_executor(plan, self._executor)
        except BaseException:  # pragma: no cover - defensive
            self._executor.close()
            raise
        self.plan = plan
        self._closed = False
        self._obs_tracker = obs.DeltaTracker()
        if obs.enabled():
            obs.get_registry().add_collector(_collect_shard_join, owner=self)

    # -- introspection ---------------------------------------------------------

    @property
    def index(self):
        """The underlying sharded streaming index."""
        return self._index

    @property
    def backend_name(self) -> str:
        return self._index.backend_name

    @property
    def workers(self) -> int:
        return self.plan.workers

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Coordinator-side wall-clock per stage (exchange/replay/verify)."""
        return self._index.stage_seconds

    def shard_counters(self) -> list[ShardCounters]:
        """Per-shard traffic/balance counters (see ShardCounters)."""
        return self._index.shard_counters()

    @property
    def degraded(self) -> bool:
        """Has the executor fallen back to in-process execution?"""
        return bool(getattr(self._executor, "degraded", False))

    @property
    def recovery_events(self) -> list[dict]:
        """Respawn/degrade events recorded by the executor (chronological)."""
        return list(getattr(self._executor, "recovery_events", ()))

    # -- driving ---------------------------------------------------------------

    def process(self, vector: SparseVector) -> list[SimilarPair]:
        self._check_order(vector)
        return self._index.process(vector)

    def flush(self) -> list[SimilarPair]:
        self._executor.flush()
        return []

    def close(self) -> None:
        """Shut the shard workers down (idempotent)."""
        if not self._closed:
            self._closed = True
            self._executor.close()

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
                        backend: str | None = None,
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
