"""Long-running streaming join service.

The batch CLI answers "join this finite file"; this package answers
"keep joining whatever arrives, indefinitely".  It layers on the
existing engine without changing it:

* :class:`JoinSession` — one live join (any algorithm/backend, optionally
  sharded via ``workers``) behind a bounded queue with micro-batching,
  explicit backpressure (``block`` / ``drop`` / ``error``) and periodic
  atomic checkpoints, run in quanta by a worker pool;
* sinks (:class:`MemorySink`, :class:`JsonlSink`, :class:`CallbackSink`)
  — where matched pairs stream out as they are found;
* :class:`JoinService` / :func:`serve` — many named sessions over a
  bounded worker pool with per-tenant quotas, DRR fairness and
  checkpoint-evict / lazy restore, behind a selector-based single-loop
  line-delimited-JSON socket server (``sssj serve``), with crash
  recovery from the checkpoint directory;
* :class:`ServiceClient` — the protocol client behind ``sssj ingest`` /
  ``sssj results`` / ``sssj drain``;
* :mod:`repro.service.scheduler` — the pieces the service schedules
  with: worker pool, DRR ready queue, tenant quotas and the selector
  transport.

Determinism contract: for the same accepted vectors, a session emits
exactly the pairs of :func:`repro.core.join.streaming_self_join` — in
the same order, with the same similarities — whatever the batching or
backpressure configuration, and across a checkpoint/crash/resume cycle.
"""

from repro.service.client import (
    RETRYABLE_OPS,
    ServiceClient,
    ServiceClientError,
)
from repro.service.protocol import (
    ServiceProtocolError,
    decode_vector,
    encode_vector,
    pair_from_wire,
    pair_to_wire,
)
from repro.service.scheduler import (
    QUOTA_CODES,
    QuotaError,
    SelectorServiceServer,
    TenantQuota,
)
from repro.service.server import JoinService, serve
from repro.service.session import (
    BACKPRESSURE_POLICIES,
    BackpressureError,
    JoinSession,
    SessionConfig,
    SessionError,
)
from repro.service.sinks import (
    CallbackSink,
    JsonlSink,
    MemorySink,
    ResultSink,
    SinkError,
    create_sink,
    read_jsonl_pairs,
)

__all__ = [
    "BACKPRESSURE_POLICIES",
    "QUOTA_CODES",
    "RETRYABLE_OPS",
    "BackpressureError",
    "CallbackSink",
    "JoinService",
    "JoinSession",
    "JsonlSink",
    "MemorySink",
    "QuotaError",
    "ResultSink",
    "SelectorServiceServer",
    "ServiceClient",
    "ServiceClientError",
    "ServiceProtocolError",
    "SessionConfig",
    "SessionError",
    "SinkError",
    "TenantQuota",
    "create_sink",
    "decode_vector",
    "encode_vector",
    "pair_from_wire",
    "pair_to_wire",
    "read_jsonl_pairs",
    "serve",
]
