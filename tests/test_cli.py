"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.datasets.io import read_vectors


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["profiles"]).command == "profiles"
        args = parser.parse_args(["run", "--profile", "tweets", "--theta", "0.8"])
        assert args.command == "run"
        assert args.theta == 0.8

    def test_run_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_service_commands_parse(self):
        parser = build_parser()
        serve = parser.parse_args(["serve", "--port", "0",
                                   "--checkpoint-dir", "ckpts"])
        assert serve.command == "serve"
        assert serve.checkpoint_dir == "ckpts"
        ingest = parser.parse_args(["ingest", "--session", "s",
                                    "--profile", "tweets",
                                    "--backpressure", "drop"])
        assert ingest.command == "ingest"
        assert ingest.backpressure == "drop"
        results = parser.parse_args(["results", "--session", "s", "--follow"])
        assert results.follow
        drain = parser.parse_args(["drain", "--session", "s"])
        assert drain.session == "s"

    def test_approx_flags_parse_on_run_profile_and_ingest(self):
        parser = build_parser()
        for base in (["run", "--profile", "tweets"],
                     ["profile", "--profile", "tweets"],
                     ["ingest", "--session", "s", "--profile", "tweets"]):
            args = parser.parse_args(base + ["--approx", "minhash",
                                             "--approx-bands", "8",
                                             "--approx-rows", "4"])
            assert args.approx == "minhash"
            assert args.approx_bands == 8
            assert args.approx_rows == 4

    def test_client_commands_require_a_session(self):
        for command in ("ingest", "results", "drain"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command])


class TestCommands:
    def test_profiles(self, capsys):
        assert main(["profiles"]) == 0
        output = capsys.readouterr().out
        for name in ("webspam", "rcv1", "blogs", "tweets", "hashtags"):
            assert name in output

    def test_backends(self, capsys):
        from repro.backends import available_backends, default_backend

        assert main(["backends"]) == 0
        output = capsys.readouterr().out
        for name in available_backends():
            assert name in output
        assert default_backend() in output

    def test_run_with_explicit_backend(self, capsys):
        assert main(["run", "--profile", "tweets", "--num-vectors", "60",
                     "--algorithm", "STR-L2", "--backend", "python"]) == 0
        output = capsys.readouterr().out
        assert "STR-L2[python]" in output

    def test_profile_prints_stage_breakdown(self, capsys):
        assert main(["profile", "--profile", "tweets", "--num-vectors", "50",
                     "--algorithm", "STR-L2AP", "--theta", "0.6",
                     "--decay", "0.05"]) == 0
        output = capsys.readouterr().out
        for stage in ("scan", "filter", "verify", "maintenance"):
            assert stage in output
        assert "Per-stage breakdown" in output
        assert "vectors/s" in output

    def test_profile_twice_reports_only_its_own_run(self, capsys):
        # Every ProfilingKernel of one backend feeds the same registry
        # series; the table must come from this run's kernel alone.
        args = ["profile", "--profile", "hashtags", "--num-vectors", "300",
                "--algorithm", "STR-L2AP", "--theta", "0.6",
                "--decay", "0.0001", "--backend", "numpy"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        output = capsys.readouterr().out
        scan_row = next(line for line in output.splitlines()
                        if line.startswith("scan "))
        assert scan_row.split("|")[3].strip() == "300"

    def test_profile_with_explicit_backend(self, capsys):
        assert main(["profile", "--profile", "tweets", "--num-vectors", "40",
                     "--algorithm", "STR-INV", "--backend", "python"]) == 0
        assert "python+profile" in capsys.readouterr().out

    def test_profile_rejects_minibatch_algorithms(self, capsys):
        assert main(["profile", "--profile", "tweets", "--num-vectors", "40",
                     "--algorithm", "MB-L2"]) == 2
        assert "STR framework" in capsys.readouterr().err

    def test_generate_and_stats_and_convert(self, tmp_path, capsys):
        text_path = tmp_path / "corpus.txt"
        assert main(["generate", "--profile", "tweets", "--num-vectors", "30",
                     "--seed", "3", "--output", str(text_path)]) == 0
        assert text_path.exists()
        assert len(list(read_vectors(text_path))) == 30

        assert main(["stats", "--input", str(text_path)]) == 0
        assert "Dataset statistics" in capsys.readouterr().out

        binary_path = tmp_path / "corpus.bin"
        assert main(["convert", str(text_path), str(binary_path)]) == 0
        assert len(list(read_vectors(binary_path))) == 30

    def test_stats_from_profile(self, capsys):
        assert main(["stats", "--profile", "tweets", "--num-vectors", "25"]) == 0
        assert "tweets" in capsys.readouterr().out

    def test_run_on_profile(self, capsys):
        assert main(["run", "--profile", "tweets", "--num-vectors", "60",
                     "--algorithm", "STR-L2", "--theta", "0.6", "--decay", "0.05",
                     "--show-pairs", "2"]) == 0
        output = capsys.readouterr().out
        assert "STR-L2" in output
        assert "pairs" in output

    def test_run_on_file(self, tmp_path, capsys):
        path = tmp_path / "corpus.txt"
        main(["generate", "--profile", "tweets", "--num-vectors", "30",
              "--output", str(path)])
        capsys.readouterr()
        assert main(["run", "--input", str(path), "--algorithm", "MB-INV",
                     "--theta", "0.7", "--decay", "0.1"]) == 0
        assert "MB-INV" in capsys.readouterr().out

    def test_run_rejects_workers_for_minibatch_algorithms(self, capsys):
        assert main(["run", "--profile", "tweets", "--num-vectors", "30",
                     "--algorithm", "MB-INV", "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert "STR framework only" in err
        assert "MB-INV" in err

    def test_run_rejects_workers_for_unknown_algorithms(self, capsys):
        assert main(["run", "--profile", "tweets", "--num-vectors", "30",
                     "--algorithm", "BOGUS", "--workers", "2"]) == 2
        assert "cannot parse algorithm" in capsys.readouterr().err

    def test_run_rejects_nonpositive_workers(self, capsys):
        assert main(["run", "--profile", "tweets", "--num-vectors", "30",
                     "--algorithm", "STR-L2", "--workers", "0"]) == 2
        assert ">= 1" in capsys.readouterr().err

    def test_ingest_rejects_workers_for_minibatch_algorithms(self, capsys):
        assert main(["ingest", "--session", "s", "--profile", "tweets",
                     "--num-vectors", "10", "--algorithm", "MB-L2",
                     "--workers", "2"]) == 2
        assert "STR framework only" in capsys.readouterr().err

    def test_run_with_approx_carries_the_spec_in_the_label(self, capsys):
        assert main(["run", "--profile", "tweets", "--num-vectors", "80",
                     "--algorithm", "STR-L2AP", "--theta", "0.6",
                     "--decay", "0.05", "--approx", "minhash",
                     "--approx-bands", "8"]) == 0
        assert "STR-L2AP~minhash:8x2" in capsys.readouterr().out

    def test_profile_with_approx_reports_sketch_rejections(self, capsys):
        assert main(["profile", "--profile", "tweets", "--num-vectors", "60",
                     "--algorithm", "STR-L2AP", "--theta", "0.6",
                     "--decay", "0.05", "--approx", "minhash"]) == 0
        assert "candidates_sketch_pruned" in capsys.readouterr().out

    def test_run_rejects_approx_for_inv_algorithms(self, capsys):
        assert main(["run", "--profile", "tweets", "--num-vectors", "10",
                     "--algorithm", "STR-INV", "--approx", "minhash"]) == 2
        err = capsys.readouterr().err
        assert "prefix-filter" in err
        assert "STR-INV" in err

    def test_run_rejects_approx_with_workers(self, capsys):
        assert main(["run", "--profile", "tweets", "--num-vectors", "10",
                     "--algorithm", "STR-L2AP", "--approx", "minhash",
                     "--workers", "2"]) == 2
        assert "sharded engine" in capsys.readouterr().err

    def test_run_rejects_geometry_flags_without_a_method(self, capsys):
        assert main(["run", "--profile", "tweets", "--num-vectors", "10",
                     "--approx-bands", "8"]) == 2
        assert "--approx" in capsys.readouterr().err

    def test_run_rejects_oversized_signatures(self, capsys):
        assert main(["run", "--profile", "tweets", "--num-vectors", "10",
                     "--approx", "minhash", "--approx-bands", "64",
                     "--approx-rows", "8"]) == 2
        assert "signature too long" in capsys.readouterr().err

    def test_run_rejects_unknown_approx_methods(self, capsys):
        assert main(["run", "--profile", "tweets", "--num-vectors", "10",
                     "--approx", "bogus"]) == 2
        assert "unknown approx method" in capsys.readouterr().err

    def test_malformed_approx_env_fails_cleanly(self, capsys, monkeypatch):
        monkeypatch.setenv("SSSJ_APPROX", "minhash:axb")
        assert main(["run", "--profile", "tweets", "--num-vectors", "10"]) == 2
        assert "SSSJ_APPROX" in capsys.readouterr().err

    def test_approx_env_enables_the_tier(self, capsys, monkeypatch):
        monkeypatch.setenv("SSSJ_APPROX", "minhash:8x2")
        assert main(["run", "--profile", "tweets", "--num-vectors", "60",
                     "--algorithm", "STR-L2AP", "--theta", "0.6",
                     "--decay", "0.05"]) == 0
        assert "~minhash:8x2" in capsys.readouterr().out

    def test_ingest_rejects_approx_for_inv_algorithms(self, capsys):
        assert main(["ingest", "--session", "s", "--profile", "tweets",
                     "--num-vectors", "10", "--algorithm", "MB-INV",
                     "--approx", "minhash"]) == 2
        assert "prefix-filter" in capsys.readouterr().err

    def test_serve_ingest_results_drain_round_trip(self, tmp_path, capsys):
        import threading

        from repro.service import ServiceClient, serve as service_serve

        server, _ = service_serve(port=0, checkpoint_dir=tmp_path)
        thread = threading.Thread(target=server.serve_until_shutdown,
                                  daemon=True)
        thread.start()
        try:
            host, port = server.address
            assert main(["ingest", "--host", host, "--port", str(port),
                         "--session", "cli", "--profile", "tweets",
                         "--num-vectors", "60", "--theta", "0.6",
                         "--decay", "0.05"]) == 0
            assert "ingested 60 vectors" in capsys.readouterr().out
            assert main(["drain", "--host", host, "--port", str(port),
                         "--session", "cli"]) == 0
            out = capsys.readouterr().out
            assert "drained: 60 vectors processed" in out
            assert "latency" in out
            assert main(["results", "--host", host, "--port", str(port),
                         "--session", "cli"]) == 0
            assert "session drained" in capsys.readouterr().out
        finally:
            with ServiceClient(*server.address) as client:
                client.shutdown()
            thread.join(timeout=10)

    def test_ingest_leaves_unset_session_options_to_the_server(
            self, monkeypatch):
        import threading

        from repro.service import ServiceClient, SessionConfig
        from repro.service import serve as service_serve

        opened = []
        request = ServiceClient.request

        def recording(self, op, **fields):
            if op == "open":
                opened.append(fields)
            return request(self, op, **fields)

        monkeypatch.setattr(ServiceClient, "request", recording)
        server, _ = service_serve(port=0)
        thread = threading.Thread(target=server.serve_until_shutdown,
                                  daemon=True)
        thread.start()
        try:
            host, port = server.address
            assert main(["ingest", "--host", host, "--port", str(port),
                         "--session", "cli", "--profile", "tweets",
                         "--num-vectors", "20"]) == 0
            config = server.service.sessions["cli"].config
        finally:
            with ServiceClient(*server.address) as client:
                client.shutdown()
            thread.join(timeout=10)
        assert len(opened) == 1
        unset = {"algorithm", "backend", "workers", "approx", "queue_max",
                 "batch_max_items", "backpressure", "tenant"}
        assert unset & set(opened[0]) == set()
        defaults = SessionConfig("cli", config.threshold, config.decay)
        for name in ("algorithm", "queue_max", "batch_max_items",
                     "backpressure", "tenant"):
            assert getattr(config, name) == getattr(defaults, name), name

    def test_results_against_a_missing_session_fails_cleanly(self, capsys):
        import threading

        from repro.service import ServiceClient, serve as service_serve

        server, _ = service_serve(port=0)
        thread = threading.Thread(target=server.serve_until_shutdown,
                                  daemon=True)
        thread.start()
        try:
            host, port = server.address
            assert main(["results", "--host", host, "--port", str(port),
                         "--session", "ghost"]) == 1
            assert "no session" in capsys.readouterr().err
        finally:
            with ServiceClient(*server.address) as client:
                client.shutdown()
            thread.join(timeout=10)

    def test_sweep(self, capsys):
        assert main(["sweep", "--profile", "tweets", "--num-vectors", "40",
                     "--algorithms", "STR-L2,MB-L2", "--thetas", "0.6,0.9",
                     "--decays", "0.05"]) == 0
        output = capsys.readouterr().out
        assert "STR-L2" in output
        assert "MB-L2" in output

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1", "--scale", "0.3"]) == 0
        assert "table1" in capsys.readouterr().out

    @pytest.mark.slow
    def test_experiment_with_plot(self, capsys):
        assert main(["experiment", "figure8", "--scale", "0.1", "--plot"]) == 0
        output = capsys.readouterr().out
        assert "legend:" in output
        assert "figure8" in output

    def test_experiment_rejects_unknown_id(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure42"])
