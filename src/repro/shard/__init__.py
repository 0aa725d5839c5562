"""Sharded parallel join engine: the STR join over candidate partitions.

Partition ``k`` of ``W`` is a plain STR index that runs every vector as a
query but stores only the vectors of arrival steps ``k mod W``.  A
candidate's decisions read only its own data, so each partition reports
exactly the single-process pairs of its own candidates; the coordinator
merges them back into single-process report order.  Only input vectors
and reported pairs cross process boundaries.

Entry points:

* :func:`create_sharded_join` / :class:`ShardedStreamingJoin` — the STR
  framework over W partitions (``workers`` and ``executor`` knobs);
* :class:`ProcessShardExecutor` — partition 0 in the coordinator and one
  forked child per other partition (or, for the parity suites, every
  partition in-process), with crash recovery.

Sharded runs are bitwise identical to single-process runs on the same
kernel — same pairs, order, similarities and operation counters — at
every worker count; see :mod:`repro.shard.coordinator`.
"""

from repro.shard.coordinator import ShardedStreamingJoin, create_sharded_join
from repro.shard.executor import ProcessShardExecutor
from repro.shard.partition import Partition, PartitionSpec, partition_worker_main

__all__ = [
    "Partition",
    "PartitionSpec",
    "partition_worker_main",
    "ProcessShardExecutor",
    "ShardedStreamingJoin",
    "create_sharded_join",
]
