"""Traced launcher for the ``service_mt`` workload's server process.

Equivalent to ``python -m repro serve --port 0 --pool-workers N`` with
class-level span wrappers installed first, around:

* the protocol's decode functions (request lines and ingested vectors),
* ``JoinService.handle`` (one span per request, the parent of the above),
* ``JoinSession.ingest`` (admission into the session queue),
* ``JoinSession.run_quantum`` (one scheduler quantum on a pool worker),
* ``StreamingFramework.process`` and ``MemorySink.emit`` inside quanta.

Queue wait per vector is the start of the quantum that ran it minus the
return of the ingest call that enqueued it.  Spans and waits stay in memory
and are written to ``--span-out`` when the server stops.  Usage::

    python3 sssjbench/traced_server.py --span-out PATH --pool-workers 2
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def install(tracer: spans.Tracer, waits: list) -> None:
    from repro.core.frameworks.streaming import StreamingFramework
    from repro.service import server as server_module
    from repro.service.scheduler import aserver
    from repro.service.server import JoinService
    from repro.service.session import JoinSession
    from repro.service.sinks import MemorySink

    spans.wrap_method(aserver, "parse_line", tracer, "service.decode")
    spans.wrap_method(server_module, "decode_vector", tracer, "service.decode")
    spans.wrap_method(JoinService, "handle", tracer, "service.request",
                      item_of=lambda self, request: request.get("session"))
    spans.wrap_method(StreamingFramework, "process", tracer, "core.process")
    spans.wrap_method(MemorySink, "emit", tracer, "service.emit")

    enqueued: dict[str, collections.deque] = collections.defaultdict(
        collections.deque)
    ingest = JoinSession.ingest
    run_quantum = JoinSession.run_quantum

    def traced_ingest(self, vectors, **kwargs):
        accepted, dropped = tracer.call("service.admit", ingest, self,
                                        vectors, item=self.config.name,
                                        **kwargs)
        enqueued[self.config.name].extend([time.perf_counter()] * accepted)
        return accepted, dropped

    def traced_quantum(self, **kwargs):
        started = time.perf_counter()
        more, processed = tracer.call("scheduler.quantum", run_quantum, self,
                                      item=self.config.name, **kwargs)
        queue = enqueued[self.config.name]
        for _ in range(min(processed, len(queue))):
            waits.append((started, max(0.0, started - queue.popleft())))
        return more, processed

    JoinSession.ingest = traced_ingest
    JoinSession.run_quantum = traced_quantum


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--span-out", required=True)
    parser.add_argument("--pool-workers", type=int, required=True)
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args()
    tracer = spans.Tracer("service_mt")
    waits: list = []
    install(tracer, waits)
    from repro.service import serve

    server, _ = serve(port=args.port, pool_workers=args.pool_workers,
                      read_timeout=30.0)
    host, port = server.address
    print(f"sssj service listening on {host}:{port}", flush=True)
    try:
        server.serve_until_shutdown()
    finally:
        tracer.write(args.span_out)
        with open(args.span_out + ".waits.json", "w") as handle:
            json.dump(waits, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
