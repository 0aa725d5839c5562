"""Sharded parallel join engine: multiprocess dimension-sharded SSSJ.

The streaming similarity self-join partitions along the dimension axis —
each arriving vector probes only the posting lists of its own non-zero
dimensions — so the engine splits the posting state over N shard workers
(:class:`ShardPlan`), keeps the globally sequential decisions (admission,
pruning, verification, counters) in a coordinator, and exchanges
slot-space partial accumulations between the two
(:class:`~repro.backends.base.SegmentPartial`).

Entry points:

* :func:`create_sharded_join` / :class:`ShardedStreamingJoin` — the STR
  framework over a sharded index (``workers`` and ``executor`` knobs);
* :class:`ShardPlan` / :func:`plan_report` — the dimension partition and
  its posting-mass balance report (``sssj shards``);
* :class:`SerialShardExecutor` / :class:`ProcessShardExecutor` — the
  in-process (CI-safe, deterministic) and multiprocess (parallel)
  execution backends.

Sharded runs are bitwise identical to single-process NumPy runs — same
pairs, similarities and operation counters — at every worker count; see
:mod:`repro.shard.coordinator` for the determinism contract.
"""

from repro.shard.coordinator import (
    ShardedInvStreamingIndex,
    ShardedL2APStreamingIndex,
    ShardedL2StreamingIndex,
    ShardedStreamingJoin,
    create_sharded_join,
)
from repro.shard.executor import (
    ProcessShardExecutor,
    SerialShardExecutor,
    create_executor,
)
from repro.shard.plan import ShardBalance, ShardPlan, plan_report
from repro.shard.worker import ShardWorker, shard_worker_main

__all__ = [
    "ShardPlan",
    "ShardBalance",
    "plan_report",
    "ShardWorker",
    "shard_worker_main",
    "SerialShardExecutor",
    "ProcessShardExecutor",
    "create_executor",
    "ShardedStreamingJoin",
    "ShardedL2APStreamingIndex",
    "ShardedL2StreamingIndex",
    "ShardedInvStreamingIndex",
    "create_sharded_join",
]
