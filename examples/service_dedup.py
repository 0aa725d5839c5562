"""Near-duplicate detection as a long-running service session.

The other examples run a join over a finite list and exit.  This one
uses :mod:`repro.service` the way a serving process would:

* a :class:`repro.service.JoinSession` fed incrementally (micro-batched,
  bounded queue, backpressure),
* a callback sink that reacts to each duplicate pair the moment it is
  reported,
* a JSONL sink as the durable audit log,
* a mid-stream atomic checkpoint, a simulated ``kill -9``, and recovery
  that finishes the stream with exactly the pairs an uninterrupted run
  would have produced.

Run with::

    python examples/service_dedup.py [--num-vectors 400]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro.core.join import streaming_self_join
from repro.datasets import generate_profile_corpus
from repro.service import CallbackSink, JoinSession, JsonlSink, SessionConfig
from repro.service.sinks import read_jsonl_pairs

THETA, DECAY = 0.6, 0.0001


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-vectors", type=int, default=400)
    args = parser.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix="sssj-service-example-"))
    checkpoint = workdir / "dedup.ckpt"
    audit_log = workdir / "pairs.jsonl"
    vectors = generate_profile_corpus("hashtags",
                                      num_vectors=args.num_vectors, seed=7)
    half = len(vectors) // 2

    flagged = []
    config = SessionConfig(name="dedup", threshold=THETA, decay=DECAY,
                           batch_max_items=32, queue_max=256, backpressure="block",
                           checkpoint_every_items=100)
    session = JoinSession(config,
                          sinks=[JsonlSink(audit_log),
                                 CallbackSink(flagged.append)],
                          checkpoint_path=checkpoint)

    print(f"streaming {half} of {len(vectors)} hashtag vectors into the "
          f"session (θ={THETA}, λ={DECAY}) ...")
    session.ingest(vectors[:half])
    session.checkpoint_now()
    print(f"checkpointed at {session.processed} vectors, "
          f"{session.pairs_emitted} duplicate pairs so far")

    # Crash. Everything after the checkpoint is lost (here: nothing).
    session.kill()
    print("session killed (simulated kill -9)")

    resumed = JoinSession.resume(checkpoint,
                                 extra_sinks=[CallbackSink(flagged.append)])
    print(f"recovered from {checkpoint.name}: covers {resumed.processed} "
          "vectors; feeding the rest ...")
    resumed.ingest(vectors[resumed.processed:])
    summary = resumed.drain()

    stats = resumed.stats()
    print(f"\ndrained: {summary['processed']} vectors, "
          f"{summary['pairs_emitted']} pairs in the audit log")
    print("ingest latency p50/p95/p99: "
          f"{stats['latency']['p50_ms']:.2f}/"
          f"{stats['latency']['p95_ms']:.2f}/"
          f"{stats['latency']['p99_ms']:.2f} ms")

    expected = list(streaming_self_join(vectors, THETA, DECAY))
    audited = read_jsonl_pairs(audit_log)
    assert audited == expected, "service output diverged from the direct join"
    print(f"audit log identical to an uninterrupted run "
          f"({len(expected)} pairs) — recovery lost nothing, duplicated "
          "nothing")
    for pair in audited[:5]:
        print(f"  duplicate: {pair.id_a} ~ {pair.id_b} "
              f"sim={pair.similarity:.3f} Δt={pair.time_delta:.1f}")
    resumed.close()


if __name__ == "__main__":
    main()
