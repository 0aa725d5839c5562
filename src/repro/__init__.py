"""Streaming Similarity Self-Join (SSSJ).

A complete reproduction of *"Streaming Similarity Self-Join"* (De Francisci
Morales & Gionis, VLDB 2016): the time-dependent similarity model, the
MiniBatch (MB) and Streaming (STR) frameworks, the INV / AP / L2AP / L2
indexing schemes, exact baselines, synthetic dataset generators shaped like
the paper's corpora, and a benchmark harness that regenerates every table
and figure of the evaluation.

The filtering hot loops run on a pluggable compute backend
(:mod:`repro.backends`): a pure-Python reference implementation or
NumPy-vectorised array kernels, selected per join via ``backend=`` /
``--backend`` / ``SSSJ_BACKEND``.  By default a STR join starts on the
reference kernel and moves to NumPy once its queries gather enough
postings for the vectorised scan to pay.  Both produce identical output,
pair for pair.

Quickstart
----------
>>> from repro import SparseVector, StreamingSimilarityJoin
>>> join = StreamingSimilarityJoin(threshold=0.7, decay=0.1)
>>> stream = [
...     SparseVector(0, 0.0, {1: 1.0, 2: 1.0}),
...     SparseVector(1, 1.0, {1: 1.0, 2: 1.0}),
... ]
>>> [pair.key for pair in join.run(stream)]
[(0, 1)]
"""

from repro.applications import (
    DuplicateFilter,
    FilterDecision,
    TopKPairsMonitor,
    Trend,
    TrendDetector,
)
from repro.backends import (
    available_backends,
    default_backend,
    get_backend,
)
from repro.baselines import (
    SlidingWindowJoin,
    brute_force_all_pairs,
    brute_force_time_dependent,
    sliding_window_join,
)
from repro.core import (
    CallbackCollector,
    CheckpointError,
    CountingCollector,
    FileStream,
    load_checkpoint,
    restore_join,
    save_checkpoint,
    snapshot_join,
    GeneratorStream,
    JoinFramework,
    JoinParameters,
    JoinStatistics,
    ListCollector,
    ListStream,
    MiniBatchFramework,
    MiniBatchSimilarityJoin,
    SimilarPair,
    SparseVector,
    StreamingFramework,
    StreamingSimilarityJoin,
    TopKCollector,
    VectorStream,
    all_pairs,
    cosine_similarity,
    create_join,
    decay_factor,
    decay_for_horizon,
    dot_product,
    merge_streams,
    normalize_entries,
    parse_algorithm,
    streaming_self_join,
    time_dependent_similarity,
    time_horizon,
)
from repro.datasets import (
    DatasetProfile,
    SyntheticCorpusGenerator,
    TextVectorizer,
    Tokenizer,
    available_profiles,
    dataset_statistics,
    generate_corpus,
    generate_profile_corpus,
    get_profile,
)
from repro.exceptions import (
    BudgetExceededError,
    DatasetFormatError,
    InvalidParameterError,
    InvalidVectorError,
    SSSJError,
    ShardWorkerError,
    StreamOrderError,
    UnknownAlgorithmError,
    UnknownBackendError,
)
from repro.faults import FaultEvent, FaultInjector, FaultPlan, parse_fault_plan
from repro.indexes import (
    DimensionOrdering,
    available_batch_indexes,
    available_streaming_indexes,
    create_batch_index,
    create_streaming_index,
)
from repro.service import (
    JoinService,
    JoinSession,
    ServiceClient,
    SessionConfig,
)
from repro.shard import ShardedStreamingJoin, create_sharded_join

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core model
    "SparseVector",
    "dot_product",
    "normalize_entries",
    "JoinParameters",
    "cosine_similarity",
    "decay_factor",
    "decay_for_horizon",
    "time_dependent_similarity",
    "time_horizon",
    # streams
    "VectorStream",
    "ListStream",
    "GeneratorStream",
    "FileStream",
    "merge_streams",
    # results
    "SimilarPair",
    "JoinStatistics",
    "ListCollector",
    "CountingCollector",
    "CallbackCollector",
    "TopKCollector",
    # compute backends
    "available_backends",
    "default_backend",
    "get_backend",
    # joins
    "JoinFramework",
    "StreamingFramework",
    "MiniBatchFramework",
    "StreamingSimilarityJoin",
    "MiniBatchSimilarityJoin",
    "create_join",
    "parse_algorithm",
    "streaming_self_join",
    "all_pairs",
    # sharded parallel engine
    "ShardedStreamingJoin",
    "create_sharded_join",
    # fault injection (chaos testing)
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "parse_fault_plan",
    # streaming join service
    "JoinSession",
    "SessionConfig",
    "JoinService",
    "ServiceClient",
    # checkpointing
    "CheckpointError",
    "snapshot_join",
    "restore_join",
    "save_checkpoint",
    "load_checkpoint",
    # baselines
    "brute_force_all_pairs",
    "brute_force_time_dependent",
    "SlidingWindowJoin",
    "sliding_window_join",
    # applications
    "TrendDetector",
    "Trend",
    "DuplicateFilter",
    "FilterDecision",
    "TopKPairsMonitor",
    # indexes
    "available_batch_indexes",
    "available_streaming_indexes",
    "create_batch_index",
    "create_streaming_index",
    "DimensionOrdering",
    # datasets
    "DatasetProfile",
    "SyntheticCorpusGenerator",
    "Tokenizer",
    "TextVectorizer",
    "generate_corpus",
    "generate_profile_corpus",
    "get_profile",
    "available_profiles",
    "dataset_statistics",
    # exceptions
    "SSSJError",
    "InvalidVectorError",
    "InvalidParameterError",
    "StreamOrderError",
    "UnknownAlgorithmError",
    "UnknownBackendError",
    "DatasetFormatError",
    "BudgetExceededError",
    "ShardWorkerError",
]
