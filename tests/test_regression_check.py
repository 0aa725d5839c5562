"""Unit tests for the benchmark artifact writer and regression checker."""

from __future__ import annotations

import json

from repro.bench.export import BENCH_MICRO_SCHEMA, git_revision, write_bench_micro
from repro.bench.regression import check_regression, main


def record(speedup: float) -> dict:
    return {
        "schema": BENCH_MICRO_SCHEMA,
        "benchmark": "l2ap_streaming_hot_path",
        "derived": {"speedup": speedup},
    }


class TestWriteBenchMicro:
    def test_writes_schema_sha_and_sections(self, tmp_path):
        path = write_bench_micro(
            tmp_path / "BENCH_micro.json",
            benchmark="l2ap_streaming_hot_path",
            config={"profile": "hashtags", "num_vectors": 100},
            backends={"numpy": {"elapsed_s": 1.0, "throughput_vps": 100.0,
                                "stages": {"scan": 0.5}}},
            derived={"speedup": 4.0},
        )
        payload = json.loads(path.read_text())
        assert payload["schema"] == BENCH_MICRO_SCHEMA
        entry = payload["benchmarks"]["l2ap_streaming_hot_path"]
        assert entry["config"]["profile"] == "hashtags"
        assert entry["backends"]["numpy"]["throughput_vps"] == 100.0
        assert entry["backends"]["numpy"]["stages"]["scan"] == 0.5
        assert entry["derived"]["speedup"] == 4.0
        assert isinstance(payload["git_sha"], str) and payload["git_sha"]

    def test_merges_multiple_benchmarks_into_one_artifact(self, tmp_path):
        path = tmp_path / "BENCH_micro.json"
        write_bench_micro(path, benchmark="l2ap_streaming_hot_path",
                          config={"num_vectors": 100}, backends={},
                          derived={"speedup": 4.0})
        write_bench_micro(path, benchmark="inv_streaming_hot_path",
                          config={"num_vectors": 50}, backends={},
                          derived={"speedup": 9.0})
        # Re-writing a benchmark replaces its entry, not the whole file.
        write_bench_micro(path, benchmark="l2ap_streaming_hot_path",
                          config={"num_vectors": 100}, backends={},
                          derived={"speedup": 5.0})
        payload = json.loads(path.read_text())
        assert set(payload["benchmarks"]) == {"l2ap_streaming_hot_path",
                                              "inv_streaming_hot_path"}
        assert payload["benchmarks"]["l2ap_streaming_hot_path"]["derived"]["speedup"] == 5.0
        assert payload["benchmarks"]["inv_streaming_hot_path"]["derived"]["speedup"] == 9.0

    def test_upgrades_schema1_artifact_in_place(self, tmp_path):
        path = tmp_path / "BENCH_micro.json"
        path.write_text(json.dumps({
            "schema": 1, "benchmark": "legacy_gate",
            "derived": {"speedup": 2.0},
        }))
        write_bench_micro(path, benchmark="inv_streaming_hot_path",
                          config={}, backends={}, derived={"speedup": 9.0})
        payload = json.loads(path.read_text())
        assert set(payload["benchmarks"]) == {"legacy_gate",
                                              "inv_streaming_hot_path"}

    def test_git_revision_returns_string(self):
        assert isinstance(git_revision(), str)


class TestCheckRegression:
    def test_no_regression_within_tolerance(self):
        report = check_regression(record(3.6), record(4.0), tolerance=0.2)
        assert not report.regressed
        assert len(report.checks) == 1
        assert "ok" in report.render()

    def test_flags_regression_beyond_tolerance(self):
        report = check_regression(record(3.0), record(4.0), tolerance=0.2)
        assert report.regressed
        assert "REGRESSED" in report.render()

    def test_improvement_is_never_a_regression(self):
        report = check_regression(record(8.0), record(4.0), tolerance=0.2)
        assert not report.regressed

    def test_missing_metric_is_skipped(self):
        report = check_regression({"derived": {}}, record(4.0))
        assert report.checks == []
        assert not report.regressed

    def test_cli_exit_codes(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        current.write_text(json.dumps(record(3.9)))
        baseline.write_text(json.dumps(record(4.0)))
        assert main([str(current), str(baseline)]) == 0
        current.write_text(json.dumps(record(1.0)))
        assert main([str(current), str(baseline)]) == 1
        capsys.readouterr()

    def test_cli_missing_baseline_is_skipped(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        current.write_text(json.dumps(record(3.9)))
        assert main([str(current), str(tmp_path / "absent.json")]) == 0
        assert "skipping" in capsys.readouterr().out

    def test_cli_refuses_mismatched_workloads(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        current_record = record(8.0)
        current_record["config"] = {"num_vectors": 10000, "profile": "hashtags"}
        baseline_record = record(2.2)
        baseline_record["config"] = {"num_vectors": 2500, "profile": "hashtags"}
        current.write_text(json.dumps(current_record))
        baseline.write_text(json.dumps(baseline_record))
        assert main([str(current), str(baseline)]) == 2
        assert "config mismatch" in capsys.readouterr().out

    def test_stages_from_another_run_are_rejected(self, tmp_path, capsys):
        from repro.bench.regression import stage_mismatches

        def record(elapsed, stages):
            entry = {"backends": {"numpy": {"elapsed_s": elapsed,
                                            "stages": stages}},
                     "derived": {"speedup": 4.0}}
            return {"schema": BENCH_MICRO_SCHEMA,
                    "benchmarks": {"l2ap_streaming_hot_path": entry}}

        def staged(elapsed, **timers):
            # As bench_micro writes a leg: the stage timers plus the
            # ``unattributed`` remainder, so the block sums to elapsed_s.
            remainder = round(elapsed - sum(timers.values()), 4)
            return record(elapsed, dict(timers, unattributed=remainder))

        offenders = ["l2ap_streaming_hot_path: numpy"]
        # The timed run's own timers: the remainder is what they missed.
        same_run = staged(17.5, scan=11.4, verify=3.1, maintenance=1.2,
                          filter=0.35)
        assert stage_mismatches(same_run) == []
        # Timer rounding may push the remainder slightly below zero.
        assert stage_mismatches(staged(17.5, scan=17.6)) == []
        # Timers of a longer, separately profiled run (18.3 s) beside the
        # timed 17.5 s: the block still sums to elapsed_s, but only with a
        # negative remainder no single run can produce.
        other_run = staged(17.5, scan=12.9, verify=3.5, maintenance=1.5,
                           filter=0.4)
        assert [where for where, _ in stage_mismatches(other_run)] == offenders
        # A block without a remainder that misses elapsed_s (a shorter
        # profiled run's 16.08 s beside a 17.48 s timed leg).
        unsplit = record(17.48, {"scan": 11.44, "verify": 3.08,
                                 "maintenance": 1.21, "filter": 0.35})
        assert [where for where, _ in stage_mismatches(unsplit)] == offenders
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(same_run))
        current.write_text(json.dumps(other_run))
        assert main([str(current), str(baseline)]) == 1
        assert "another run" in capsys.readouterr().out
        current.write_text(json.dumps(same_run))
        assert main([str(current), str(baseline)]) == 0

    def test_config_subset_comparison_ignores_new_keys(self):
        from repro.bench.regression import config_mismatches

        current = {"config": {"num_vectors": 2500, "new_knob": True}}
        baseline = {"config": {"num_vectors": 2500}}
        assert config_mismatches(current, baseline) == []
