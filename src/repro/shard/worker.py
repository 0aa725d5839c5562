"""Shard worker: owner of one shard's posting-list state.

A :class:`ShardWorker` holds the posting lists (and the posting arena
behind them) of the dimensions its shard owns, plus the compute kernel
that scans them.  It executes exactly two operations, both issued by the
coordinator in a strict per-shard order:

``apply_appends``
    Append postings shipped by the coordinator — indexing of a new vector
    and re-indexing moves alike.  The coordinator sends the *global* slot
    it interned for the vector, so the slots stored in every shard's arena
    live in one shared id space and partials merge without translation.
``scan``
    Gather the scan partials of the query terms this shard owns (time
    filtering + per-posting products, **no** global admission — see
    :class:`repro.backends.base.SegmentPartial`) and report the logical
    ``traversed``/``removed`` counts.

The same class backs both execution modes: the serial in-process executor
calls it directly (making the whole subsystem testable without spawning
anything), and :func:`shard_worker_main` wraps it in a child-process
message loop for the multiprocess executor, with the arena allocated from
``multiprocessing.shared_memory`` segments.
"""

from __future__ import annotations

from typing import Any

from repro import obs
from repro.backends.base import SegmentPartial
from repro.core.results import ShardCounters
from repro.indexes.posting import InvertedIndex

__all__ = ["ShardWorker", "apply_step", "make_worker_kernel",
           "shard_worker_main", "pack_partials", "unpack_partials"]


def pack_partials(partials: list[SegmentPartial]):
    """Flatten a scan reply's partials into one set of concatenated arrays.

    Pickling one array per field instead of four per *segment* cuts the
    serialisation cost of a reply by an order of magnitude on skewed
    vocabularies (dozens of small segments per query).  Values are
    byte-identical — :func:`unpack_partials` re-slices the concatenation at
    the recorded segment boundaries.
    """
    if not partials:
        return None
    import numpy as np

    metadata = [(partial.position, partial.value, partial.query_prefix_norm,
                 partial.min_ts, partial.max_ts, partial.traversed,
                 partial.removed, len(partial.slots))
                for partial in partials]

    def concatenate(field: str):
        arrays = [getattr(partial, field) for partial in partials]
        if arrays[0] is None:
            return None
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    return (metadata, concatenate("slots"), concatenate("contrib"),
            concatenate("tails"), concatenate("decay_factors"),
            concatenate("timestamps"))


def unpack_partials(packed) -> list[SegmentPartial]:
    """Inverse of :func:`pack_partials` (returns views into the buffers)."""
    if packed is None:
        return []
    metadata, slots, contrib, tails, decay_factors, timestamps = packed
    partials: list[SegmentPartial] = []
    offset = 0
    for (position, value, query_prefix_norm, min_ts, max_ts, traversed,
         removed, count) in metadata:
        upper = offset + count
        partials.append(SegmentPartial(
            position=position, value=value,
            query_prefix_norm=query_prefix_norm,
            slots=slots[offset:upper], contrib=contrib[offset:upper],
            tails=tails[offset:upper] if tails is not None else None,
            decay_factors=(decay_factors[offset:upper]
                           if decay_factors is not None else None),
            timestamps=(timestamps[offset:upper]
                        if timestamps is not None else None),
            min_ts=min_ts, max_ts=max_ts, traversed=traversed,
            removed=removed,
        ))
        offset = upper
    return partials


def make_worker_kernel(*, allocator=None):
    """Build a worker's NumPy kernel, shared-memory backed if requested.

    Workers always run the NumPy kernel: the partial gathers
    (``gather_*_partials``) live on its posting arena.
    """
    from repro.backends.numpy_backend import NumpyKernel

    return NumpyKernel(arena_allocator=allocator)


class ShardWorker:
    """One shard's posting state plus the gather half of the scans."""

    def __init__(self, shard: int, kernel) -> None:
        self.shard = shard
        self.kernel = kernel
        self.index = InvertedIndex(kernel.new_posting_list)
        self.counters = ShardCounters(shard=shard)

    # -- index construction ---------------------------------------------------

    def apply_appends(self, appends: list[tuple]) -> None:
        """Apply coordinator-shipped posting appends, in shipping order.

        Each append is ``(slot, dims, values, prefix_norms, timestamp)``
        with parallel per-coordinate lists restricted to this shard's
        dimensions.
        """
        index = self.index
        appended = 0
        for slot, dims, values, prefix_norms, timestamp in appends:
            for offset, dim in enumerate(dims):
                index.list_for(dim)._append_fast(
                    slot, values[offset], prefix_norms[offset], timestamp)
            index.note_added(len(dims))
            appended += len(dims)
        self.counters.entries_indexed += appended

    # -- candidate generation (gather half) -----------------------------------

    def scan(self, terms: list[tuple], params: dict[str, Any]) -> tuple[list, int, int]:
        """Gather the partials of this shard's query terms.

        ``terms`` is ``(position, dim, value, query_prefix_norm)`` per
        owned prefix-scheme term (descending position) or
        ``(position, dim, value)`` per INV term (ascending position);
        ``params`` carries the scan parameters including ``kind``.
        Returns ``(partials, entries_traversed, entries_removed)``.
        """
        kernel = self.kernel
        kernel.begin_maintenance_cycle()
        self.counters.scans += 1
        index_get = self.index.get
        if params["kind"] == "inv":
            inv_segments = []
            for position, dim, value in terms:
                plist = index_get(dim)
                if plist is not None and len(plist):
                    inv_segments.append((position, value, plist))
            partials, traversed, removed = kernel.gather_inv_partials(
                inv_segments, cutoff=params["cutoff"])
        else:
            segments = []
            for position, dim, value, query_prefix_norm in terms:
                plist = index_get(dim)
                if plist is not None and len(plist):
                    segments.append((position, value, query_prefix_norm, plist))
            partials, traversed, removed = kernel.gather_scan_partials(
                segments, now=params["now"], cutoff=params["cutoff"],
                decay=params["decay"], use_l2=params["use_l2"],
                time_ordered=params["time_ordered"])
        self.counters.entries_traversed += traversed
        self.counters.entries_removed += removed
        if removed:
            self.index.note_removed(removed)
        return partials, traversed, removed

    # -- observability ---------------------------------------------------------

    def snapshot_counters(self) -> ShardCounters:
        """Current counters, with the dimension count and arena stats filled in."""
        self.counters.dimensions = sum(1 for _ in self.index.dimensions())
        arena = getattr(self.kernel, "_arena", None)
        if arena is not None:
            self.counters.arena_compactions = arena.compactions
        self._export_counters()
        return self.counters

    def _export_counters(self) -> None:
        """Mirror the snapshot onto the metrics registry (serial executor).

        In the multiprocess executor this runs in the child, where the
        registry is per-process and never scraped — harmless.  Counter
        totals are monotone, so ``set_total`` is the right export.
        """
        if not obs.enabled():
            return
        registry = obs.get_registry()
        label = str(self.shard)
        counters = self.counters
        registry.counter(
            "sssj_shard_entries_traversed_total",
            "Posting entries traversed by shard scans.",
            ("shard",)).labels(shard=label).set_total(
            counters.entries_traversed)
        registry.counter(
            "sssj_shard_entries_indexed_total",
            "Posting entries appended per shard.",
            ("shard",)).labels(shard=label).set_total(
            counters.entries_indexed)
        registry.gauge(
            "sssj_shard_dimensions",
            "Dimensions owned by each shard.",
            ("shard",)).labels(shard=label).set(counters.dimensions)


def apply_step(worker: ShardWorker, message: tuple):
    """Apply one coordinator ``("step", ...)`` message to ``worker``.

    Returns the scan result ``(partials, traversed, removed)``, or
    ``None`` for a flush-only step.  This is the single definition of
    "what a step does to shard state" — the live message loop, the
    crash-recovery replay and the executor's degraded in-process mode
    all route through it, which is what makes a rebuilt shard bitwise
    identical to the one that died.
    """
    _, appends, scan_terms, scan_params = message
    if appends:
        worker.apply_appends(appends)
    if scan_terms is None:
        return None
    return worker.scan(scan_terms, scan_params)


def shard_worker_main(conn, shard: int, use_shared_memory: bool = True,
                      faults=None) -> None:
    """Child-process message loop of one shard (multiprocess executor).

    Protocol (requests over ``conn``):

    * ``("step", appends, scan_terms, scan_params)`` — apply the appends,
      then scan; replies ``("partials", partials, traversed, removed)``,
      or ``("ok",)`` when ``scan_terms`` is ``None`` (flush-only step).
    * ``("replay", steps)`` — crash recovery: re-apply a chunk of step
      messages, discarding their scan output (the coordinator already
      consumed the original replies); replies ``("replayed", count)``.
    * ``("counters",)`` — replies ``("counters", ShardCounters)``.
    * ``("stop",)`` — replies ``("bye",)`` and exits.

    ``faults`` is an optional list of ``(kind, after_step, ms)`` tuples
    from :meth:`repro.faults.FaultInjector.worker_events_for` — faults
    this worker fires *on itself* (self-SIGKILL mid-step, dropped or
    delayed replies) so chaos tests exercise real partial failures.
    Replay messages do not advance the fault step counter, and respawned
    workers are started fault-free.
    """
    allocator = None
    if use_shared_memory:
        from repro.shard.shm import SharedMemoryAllocator

        allocator = SharedMemoryAllocator(name_prefix=f"sssj-shard{shard}")
    worker = ShardWorker(shard, make_worker_kernel(allocator=allocator))
    fault_map: dict[int, list[tuple[str, float]]] = {}
    for kind, after, ms in faults or ():
        fault_map.setdefault(after, []).append((kind, ms))
    steps = 0
    try:
        while True:
            message = conn.recv()
            op = message[0]
            if op == "step":
                steps += 1
                active = fault_map.pop(steps, ())
                _, appends, scan_terms, scan_params = message
                if appends:
                    worker.apply_appends(appends)
                if any(kind == "exit-in-append" for kind, _ in active):
                    import os
                    import signal

                    os.kill(os.getpid(), signal.SIGKILL)
                if scan_terms is None:
                    reply = ("ok",)
                else:
                    partials, traversed, removed = worker.scan(scan_terms,
                                                               scan_params)
                    reply = ("partials", pack_partials(partials),
                             traversed, removed)
                if any(kind == "exit-in-scan" for kind, _ in active):
                    import os
                    import signal

                    os.kill(os.getpid(), signal.SIGKILL)
                if any(kind == "drop-reply" for kind, _ in active):
                    continue  # swallow exactly this reply; stay alive
                for kind, ms in active:
                    if kind == "delay-reply":
                        import time

                        time.sleep(ms / 1000.0)
                conn.send(reply)
            elif op == "replay":
                for step_message in message[1]:
                    apply_step(worker, step_message)
                conn.send(("replayed", len(message[1])))
            elif op == "counters":
                conn.send(("counters", worker.snapshot_counters()))
            elif op == "stop":
                conn.send(("bye",))
                break
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass  # coordinator went away; shut down quietly
    finally:
        if allocator is not None:
            # Release the arena (and the kernel↔arena reference cycle) so
            # no view into the shared segments survives, then close them —
            # otherwise SharedMemory.__del__ noisily fails to unmap
            # buffers that numpy still points at.
            import gc

            del worker
            gc.collect()
            allocator.close()
        conn.close()
