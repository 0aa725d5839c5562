"""The adaptive ``auto`` kernel of STR joins.

An ``auto`` STR join starts on the pure-Python reference kernel and moves
its index once, in memory, to the NumPy kernel when the mean postings
traversed per query over a sliding window reaches
``AUTO_SWITCH_POSTINGS``.  The contract pinned here: the move changes no
pair (key, similarity, report order) and no counter — an auto join equals
both pinned kernels on every stream, across checkpoints and service
evict/restore on either side of the switch — and only unpinned,
single-process STR joins carry the rule.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro import create_join, load_checkpoint, restore_join, save_checkpoint
from repro import obs
from repro.backends.numpy_backend import NumpyKernel
from repro.backends.reference import ReferenceKernel
from repro.core.checkpoint import snapshot_join
from repro.core.frameworks import streaming
from repro.datasets.generator import generate_profile_corpus
from repro.indexes.base import StreamingIndex
from repro.obs import MetricsRegistry, Tracer
from repro.service import JoinService, read_jsonl_pairs
from repro.service.protocol import encode_vector
from tests.conftest import wait_until
from tests.groundtruth import counters_without_time

THETA = 0.6
#: A horizon longer than the short streams below: the index only grows.
GROWING = math.log(1.0 / THETA) / 1000.0
#: ``service_mt``'s horizon of 60 units: ~15 postings per tweets query.
SHORT = math.log(1.0 / THETA) / 60.0


@pytest.fixture(autouse=True)
def adaptive_env(monkeypatch):
    """``auto`` is adaptive only while ``SSSJ_BACKEND`` is unset."""
    monkeypatch.delenv("SSSJ_BACKEND", raising=False)


def stream(profile: str, count: int) -> list:
    return generate_profile_corpus(profile, num_vectors=count, seed=3)


def run(vectors, algorithm, decay, backend, approx=None):
    """``(pairs, counters, kernel per query)`` of one join over ``vectors``."""
    join = create_join(algorithm, THETA, decay, backend=backend,
                       approx=approx)
    pairs, kernels = [], []
    for vector in vectors:
        pairs.extend((pair.key, pair.similarity, pair.time_delta)
                     for pair in join.process(vector))
        kernels.append(join.backend_name)
    return pairs, counters_without_time(join.stats.as_dict()), kernels


def first_switch(kernels) -> int | None:
    """Index of the query after which the join ran NumPy, if any."""
    return kernels.index("numpy") if "numpy" in kernels else None


# ---------------------------------------------------------------------------
# parity: an auto join equals both pinned kernels


PARITY_CASES = {
    "hashtags-L2-switches": ("hashtags", 400, "STR-L2", GROWING, None, True),
    "tweets-L2-never-switches": ("tweets", 600, "STR-L2", SHORT, None, False),
    "hashtags-L2AP-switches": ("hashtags", 400, "STR-L2AP", 2e-5, None,
                               True),
    "tweets-INV-switches": ("tweets", 400, "STR-INV", GROWING, None, True),
    "hashtags-L2AP-wminhash": ("hashtags", 400, "STR-L2AP", 2e-5,
                               "wminhash:24x3", True),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_auto_join_equals_both_pinned_kernels(case):
    profile, count, algorithm, decay, approx, switches = PARITY_CASES[case]
    vectors = stream(profile, count)
    auto_pairs, auto_counters, kernels = run(vectors, algorithm, decay, None,
                                             approx)
    for backend in ("python", "numpy"):
        pairs, counters, _ = run(vectors, algorithm, decay, backend, approx)
        assert auto_pairs == pairs, backend
        assert auto_counters == counters, backend
    assert kernels[0] == "python"
    switched = first_switch(kernels)
    if switches:
        # Mid-stream: pairs are reported on both sides of the switch.
        assert 0 < switched < count - 1
        assert auto_pairs
    else:
        assert switched is None


def test_l2ap_reindexes_on_both_sides_of_the_switch():
    vectors = stream("hashtags", 400)
    join = create_join("STR-L2AP", THETA, 2e-5)
    before = None
    for vector in vectors:
        join.process(vector)
        if before is None and join.backend_name == "numpy":
            before = join.stats.reindexings
    assert before is not None and 0 < before < join.stats.reindexings


# ---------------------------------------------------------------------------
# the rule


def traversed_per_query(vectors, algorithm, decay) -> list[int]:
    join = create_join(algorithm, THETA, decay, backend="python")
    traversed = []
    for vector in vectors:
        before = join.stats.entries_traversed
        join.process(vector)
        traversed.append(join.stats.entries_traversed - before)
    return traversed


def expected_switch(traversed) -> int | None:
    window = streaming.AUTO_SWITCH_WINDOW
    limit = streaming.AUTO_SWITCH_POSTINGS * window
    for query in range(window - 1, len(traversed)):
        if sum(traversed[query - window + 1:query + 1]) >= limit:
            return query
    return None


class TestRule:
    def test_switches_once_at_the_first_window_reaching_the_constant(
            self, monkeypatch):
        switches = []
        original = StreamingIndex.switch_kernel

        def counting(index, kernel):
            switches.append(len(index._index))
            original(index, kernel)

        monkeypatch.setattr(StreamingIndex, "switch_kernel", counting)
        vectors = stream("hashtags", 400)
        expected = expected_switch(
            traversed_per_query(vectors, "STR-L2", GROWING))
        assert expected is not None
        join = create_join("STR-L2", THETA, GROWING)
        kernels = []
        for vector in vectors:
            join.process(vector)
            kernels.append(join.backend_name)
        # The query that completes the window still ran on python; every
        # later one runs NumPy.
        assert kernels[expected] == "numpy"
        assert set(kernels[:expected]) == {"python"}
        assert set(kernels[expected:]) == {"numpy"}
        # Never back: queries far past the horizon traverse nothing, so
        # the window mean falls to zero, and the join stays on NumPy.
        last = vectors[-1].timestamp
        for offset, vector in enumerate(vectors[:100]):
            join.process(type(vector)(10_000 + offset, last + 1e6 + offset,
                                      dict(vector), normalize=False))
        assert join.backend_name == "numpy"
        assert len(switches) == 1 and switches[0] > 0

    def test_a_smaller_constant_switches_earlier(self, monkeypatch):
        vectors = stream("tweets", 300)
        traversed = traversed_per_query(vectors, "STR-L2", GROWING)
        monkeypatch.setattr(streaming, "AUTO_SWITCH_POSTINGS", 8)
        monkeypatch.setattr(streaming, "AUTO_SWITCH_WINDOW", 4)
        expected = expected_switch(traversed)
        assert expected is not None
        _, _, kernels = run(vectors, "STR-L2", GROWING, None)
        assert first_switch(kernels) == expected

    @pytest.mark.parametrize("backend", ["python", "numpy", "auto", None])
    def test_only_unpinned_str_joins_are_adaptive(self, backend):
        join = create_join("STR-L2", THETA, GROWING, backend=backend)
        adaptive = backend in ("auto", None)
        assert join.adaptive is adaptive
        assert (join._switch is not None) is adaptive
        assert join.backend_name == ("python" if adaptive else backend)

    @pytest.mark.parametrize("kernel", [ReferenceKernel, NumpyKernel])
    def test_kernel_instances_are_pinned(self, kernel):
        join = create_join("STR-L2", THETA, GROWING, backend=kernel())
        assert not join.adaptive and join._switch is None

    @pytest.mark.parametrize("env", ["python", "numpy"])
    def test_a_concrete_env_override_pins_auto(self, monkeypatch, env):
        monkeypatch.setenv("SSSJ_BACKEND", env)
        join = create_join("STR-L2", THETA, GROWING)
        assert not join.adaptive and join._switch is None
        assert join.backend_name == env

    def test_env_auto_keeps_the_rule(self, monkeypatch):
        monkeypatch.setenv("SSSJ_BACKEND", "auto")
        assert create_join("STR-L2", THETA, GROWING).adaptive

    def test_minibatch_and_sharded_joins_resolve_to_the_default(self):
        minibatch = create_join("MB-L2", THETA, GROWING)
        assert not getattr(minibatch, "adaptive", False)
        index = minibatch._build_index([])
        assert index.backend_name == "numpy"
        sharded = create_join("STR-L2", THETA, GROWING, workers=1,
                              shard_executor="serial")
        try:
            assert not getattr(sharded, "adaptive", False)
            assert sharded.backend_name == "numpy"
        finally:
            sharded.close()

    def test_sssj_backends_explains_auto_unless_pinned(self, capsys,
                                                       monkeypatch):
        from repro.cli import main

        assert main(["backends"]) == 0
        assert "auto: STR joins start on python" in capsys.readouterr().out
        monkeypatch.setenv("SSSJ_BACKEND", "numpy")
        assert main(["backends"]) == 0
        assert "auto:" not in capsys.readouterr().out

    def test_the_switch_is_one_span_carrying_the_index_size(self):
        records = []
        previous_tracer = obs.set_tracer(Tracer(sample=1.0,
                                                sink=records.append))
        was_enabled = obs.enabled()
        obs.set_enabled(True)
        try:
            join = create_join("STR-L2", THETA, GROWING)
            sizes = []
            for vector in stream("hashtags", 200):
                kernel = join.backend_name
                join.process(vector)
                if join.backend_name != kernel:
                    sizes.append(join.index_size)
        finally:
            obs.set_enabled(was_enabled)
            obs.set_tracer(previous_tracer)
        spans = [record for record in records
                 if record["span"] == "kernel_switch"]
        assert len(spans) == 1 and len(sizes) == 1
        assert spans[0]["kernel"] == "numpy"
        # The index has not changed since the switch (it is the last
        # step of the query).
        assert spans[0]["size"] == sizes[0]


# ---------------------------------------------------------------------------
# checkpoints


def resumed_run(vectors, at, algorithm, decay, tmp_path, approx=None):
    """Checkpoint after ``at`` vectors, reload, finish the stream."""
    join = create_join(algorithm, THETA, decay, approx=approx)
    pairs, kernels = [], []
    for vector in vectors[:at]:
        pairs.extend((p.key, p.similarity, p.time_delta)
                     for p in join.process(vector))
        kernels.append(join.backend_name)
    path = save_checkpoint(join, tmp_path / f"ckpt-{at}.json")
    state = json.loads(Path(path).read_text())
    join = load_checkpoint(path)
    assert join.adaptive and join.backend_name == kernels[-1]
    for vector in vectors[at:]:
        pairs.extend((p.key, p.similarity, p.time_delta)
                     for p in join.process(vector))
        kernels.append(join.backend_name)
    return state, pairs, counters_without_time(join.stats.as_dict()), kernels


class TestCheckpoints:
    @pytest.mark.parametrize("algorithm,decay,approx", [
        ("STR-L2", GROWING, None),
        ("STR-L2AP", 2e-5, "wminhash:24x3"),
    ])
    def test_resume_on_either_side_of_the_switch_is_bitwise(
            self, tmp_path, algorithm, decay, approx):
        vectors = stream("hashtags", 300)
        pairs, counters, kernels = run(vectors, algorithm, decay, None,
                                       approx)
        switch = first_switch(kernels)
        assert switch is not None
        for at, kernel in ((switch - 20, "python"), (switch + 20, "numpy")):
            state, resumed_pairs, resumed_counters, resumed_kernels = \
                resumed_run(vectors, at, algorithm, decay, tmp_path, approx)
            assert state["backend"] == "auto" and state["kernel"] == kernel
            assert ("auto_window" in state) is (kernel == "python")
            assert resumed_pairs == pairs
            assert resumed_counters == counters
            # The window travels with the checkpoint: the restored join
            # switches at the very query the uninterrupted one did.
            assert resumed_kernels == kernels

    def test_pinned_snapshots_name_their_backend_and_restore_pinned(self):
        vectors = stream("tweets", 60)
        for backend in ("python", "numpy"):
            join = create_join("STR-L2", THETA, SHORT, backend=backend)
            join.feed(vectors)
            state = snapshot_join(join)
            assert state["backend"] == backend and "kernel" not in state
            restored = restore_join(json.loads(json.dumps(state)))
            assert not restored.adaptive and restored._switch is None
            assert restored.backend_name == backend

    def test_golden_fixture_restores_pinned(self):
        fixture = Path(__file__).parent / "fixtures" / \
            "checkpoint_str_l2ap_numpy.json"
        envelope = json.loads(fixture.read_text())
        restored = restore_join(envelope.get("join", envelope))
        assert not restored.adaptive
        assert restored.backend_name == "numpy"

    def test_auto_checkpoint_under_a_concrete_env_restores_pinned(
            self, monkeypatch):
        join = create_join("STR-L2", THETA, SHORT)
        join.feed(stream("tweets", 40))
        state = json.loads(json.dumps(snapshot_join(join)))
        monkeypatch.setenv("SSSJ_BACKEND", "numpy")
        restored = restore_join(state)
        assert not restored.adaptive and restored.backend_name == "numpy"


# ---------------------------------------------------------------------------
# the service: evict + lazy restore, stats, sessions, metrics


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = obs.set_registry(fresh)
    yield fresh
    obs.set_registry(previous)


def ok(response):
    assert response.get("ok"), response
    return response


class TestService:
    def test_evict_and_lazy_restore_on_both_sides_of_the_switch(
            self, tmp_path, registry):
        vectors = stream("hashtags", 300)
        reference, counters, kernels = run(vectors, "STR-L2", GROWING,
                                           "python")
        switch = first_switch(run(vectors, "STR-L2", GROWING, None)[2])
        cuts = (0, switch - 20, switch + 20, len(vectors))
        sink_path = tmp_path / "pairs.jsonl"
        service = JoinService(pool_workers=1, checkpoint_dir=tmp_path)
        try:
            ok(service.handle({
                "op": "open", "session": "a", "theta": THETA,
                "decay": GROWING, "normalize": False,
                "sinks": [{"kind": "jsonl", "path": str(sink_path)}]}))
            seen = []
            for lo, hi in zip(cuts, cuts[1:]):
                ok(service.handle({
                    "op": "ingest", "session": "a", "seq": lo,
                    "vectors": [encode_vector(v) for v in vectors[lo:hi]]}))
                session = service.sessions["a"]
                wait_until(lambda: session.processed == hi
                           and session.run_state == "idle", timeout=60)
                stats = ok(service.handle(
                    {"op": "stats", "session": "a"}))["sessions"]["a"]
                row = ok(service.handle({"op": "sessions"}))["sessions"][0]
                assert stats["backend"] == "auto"
                assert stats["kernel"] == row["kernel"]
                seen.append(stats["kernel"])
                if hi < len(vectors):
                    ok(service.handle({"op": "evict", "session": "a"}))
                    evicted = ok(service.handle(
                        {"op": "stats", "session": "a"}))["sessions"]["a"]
                    assert evicted["status"] == "evicted"
                    assert evicted["kernel"] == stats["kernel"]
            assert seen == ["python", "numpy", "numpy"]
            assert service.evictions == 2 and service.restores == 2
            ok(service.handle({"op": "drain", "session": "a"}))
            # The JSONL sink saw the whole pair stream across both
            # evict/restore boundaries.
            assert [(p.key, p.similarity, p.time_delta)
                    for p in read_jsonl_pairs(sink_path)] == reference
            final = ok(service.handle(
                {"op": "stats", "session": "a"}))["sessions"]["a"]
            assert counters_without_time(final["counters"]) == counters
            # One engine series per session, whichever kernel ran.
            text = ok(service.handle({"op": "metrics"}))["metrics"]
            series = [line for line in text.splitlines()
                      if line.startswith("sssj_engine_vectors_processed_total{")]
            assert len(series) == 1
            assert 'backend="auto"' in series[0]
            assert series[0].endswith(f" {len(vectors)}") or \
                series[0].endswith(f" {float(len(vectors))}")
        finally:
            service.shutdown()

    def test_pinned_sessions_label_and_report_their_kernel(self, registry):
        service = JoinService(pool_workers=1)
        try:
            ok(service.handle({"op": "open", "session": "p", "theta": THETA,
                               "decay": SHORT, "backend": "numpy",
                               "checkpoint": False}))
            stats = ok(service.handle(
                {"op": "stats", "session": "p"}))["sessions"]["p"]
            assert stats["backend"] == "numpy" and stats["kernel"] == "numpy"
        finally:
            service.shutdown()
