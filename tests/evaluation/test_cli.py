"""Unit tests for the CLI (S32)."""

import pytest

from repro.cli import FIGURES, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_requires_user_and_query(self, capsys):
        # --user/--query are optional at parse time (a --batch workload
        # supplies them per request) but demanded at run time.
        code = main(["search", "--dataset", "data_2k", "--size", "200",
                     "--query", "phone", "--seed", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--user and --query" in err

    def test_experiment_validates_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--figure", "99"])

    def test_figures_registry_covers_core_figures(self):
        assert {"5", "6", "10", "11", "15", "16"} <= set(FIGURES)


class TestCommands:
    def test_datasets_command(self, capsys):
        code = main(["datasets", "--size", "200", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "data_2k" in out and "data_3m" in out

    def test_search_command(self, capsys):
        code = main([
            "search", "--dataset", "data_2k", "--size", "200",
            "--user", "3", "--query", "phone", "--k", "3", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Top-3" in out

    def test_search_no_match_returns_error(self, capsys):
        code = main([
            "search", "--dataset", "data_2k", "--size", "200",
            "--user", "3", "--query", "zzzqqq", "--seed", "3",
        ])
        assert code == 1

    def test_diagnose_command(self, capsys):
        code = main([
            "diagnose", "--dataset", "data_2k", "--size", "200",
            "--query", "phone", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Topic summary diagnostics" in out

    def test_diagnose_no_match(self, capsys):
        code = main([
            "diagnose", "--dataset", "data_2k", "--size", "200",
            "--query", "zzzqqq", "--seed", "3",
        ])
        assert code == 1

    def test_experiment_fig4(self, capsys):
        code = main([
            "experiment", "--figure", "4", "--size", "200", "--seed", "3",
        ])
        assert code == 0
        assert "Fig. 4" in capsys.readouterr().out

    def test_build_index_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build-index"])

    def test_build_index_then_search_reuses_it(self, capsys, tmp_path):
        artifact = tmp_path / "prop"
        code = main([
            "build-index", "--dataset", "data_2k", "--size", "200",
            "--seed", "3", "--output", str(artifact),
        ])
        assert code == 0
        assert (artifact / "manifest.json").exists()
        out = capsys.readouterr().out
        assert "built 200 entries" in out
        assert "in shards of 4096 nodes" in out
        code = main([
            "search", "--dataset", "data_2k", "--size", "200",
            "--user", "3", "--query", "phone", "--k", "3", "--seed", "3",
            "--index-dir", str(artifact),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "using sharded propagation index" in out
        assert "Top-3" in out
        # Mapped shards answer exactly as lazily built in-memory entries.
        code = main([
            "search", "--dataset", "data_2k", "--size", "200",
            "--user", "3", "--query", "phone", "--k", "3", "--seed", "3",
        ])
        assert code == 0
        lazy = capsys.readouterr().out
        assert [
            line for line in out.splitlines()
            if "propagation index" not in line
        ] == lazy.splitlines()

    def test_search_batch_workload(self, capsys, tmp_path):
        workload = tmp_path / "workload.jsonl"
        workload.write_text(
            '{"user": 3, "query": "phone", "k": 3}\n'
            '{"user": 5, "query": "music"}\n'
            '{"user": 3, "query": "phone", "k": 3}\n'
            '{"user": 4, "query": "zzzqqq"}\n'
        )
        code = main([
            "search", "--dataset", "data_2k", "--size", "200",
            "--batch", str(workload), "--k", "2", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 4 requests" in out
        assert "QPS, 1 empty" in out
        assert "no matching topics" in out
        assert "cache plans:" in out

    def test_search_batch_metrics_out(self, capsys, tmp_path):
        import json

        from repro.obs import validate_metrics_json

        workload = tmp_path / "workload.jsonl"
        workload.write_text(
            '{"user": 3, "query": "phone", "k": 3}\n'
            '{"user": 5, "query": "music"}\n'
        )
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "search", "--dataset", "data_2k", "--size", "200",
            "--batch", str(workload), "--k", "2", "--seed", "3",
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        assert "metrics written to" in capsys.readouterr().out
        payload = json.loads(metrics_path.read_text(encoding="utf-8"))
        validate_metrics_json(payload)
        assert payload["counters"]["search.requests"] == 2
        latency = payload["histograms"]["search.latency_seconds"]
        assert latency["count"] == 2
        assert latency["p50"] is not None and latency["p99"] is not None
        assert "cache.tier.plans.hit_ratio" in payload["gauges"]
        prom = metrics_path.with_suffix(".prom").read_text(encoding="utf-8")
        assert "# TYPE repro_search_latency_seconds histogram" in prom

    def test_build_index_metrics_out(self, capsys, tmp_path):
        import json

        from repro.obs import validate_metrics_json

        metrics_path = tmp_path / "build-metrics.json"
        code = main([
            "build-index", "--dataset", "data_2k", "--size", "200",
            "--seed", "3", "--output", str(tmp_path / "prop"),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        payload = json.loads(metrics_path.read_text(encoding="utf-8"))
        validate_metrics_json(payload)
        assert payload["counters"]["propagation.entries_built"] == 200
        assert (
            "phase.propagation.build_sharded.seconds" in payload["histograms"]
        )
        assert payload["gauges"]["propagation.entries_cached"] == 200

    def test_stats_command_json(self, capsys):
        import json

        from repro.obs import validate_metrics_json

        code = main([
            "stats", "--dataset", "data_2k", "--size", "200",
            "--queries", "2", "--users", "2", "--seed", "3",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        validate_metrics_json(payload)
        assert payload["counters"]["search.requests"] > 0
        assert "search.latency_seconds" in payload["histograms"]

    def test_stats_command_table(self, capsys):
        code = main([
            "stats", "--dataset", "data_2k", "--size", "200",
            "--queries", "2", "--users", "2", "--seed", "3",
            "--format", "table",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "counters & gauges" in out
        assert "search.latency_seconds" in out

    def test_stats_command_prom(self, capsys):
        code = main([
            "stats", "--dataset", "data_2k", "--size", "200",
            "--queries", "2", "--users", "2", "--seed", "3",
            "--format", "prom",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_search_requests counter" in out

    def test_search_batch_bad_record_exits_2(self, capsys, tmp_path):
        workload = tmp_path / "workload.jsonl"
        workload.write_text('{"query": "phone"}\n')
        code = main([
            "search", "--dataset", "data_2k", "--size", "200",
            "--batch", str(workload), "--seed", "3",
        ])
        assert code == 2
        assert "bad workload record" in capsys.readouterr().err

    def test_search_batch_missing_file_exits_2(self, capsys, tmp_path):
        code = main([
            "search", "--dataset", "data_2k", "--size", "200",
            "--batch", str(tmp_path / "nope.jsonl"), "--seed", "3",
        ])
        assert code == 2
        assert "cannot read workload" in capsys.readouterr().err

    def test_search_batch_empty_workload_exits_2(self, capsys, tmp_path):
        workload = tmp_path / "workload.jsonl"
        workload.write_text("\n\n")
        code = main([
            "search", "--dataset", "data_2k", "--size", "200",
            "--batch", str(workload), "--seed", "3",
        ])
        assert code == 2
        assert "contains no requests" in capsys.readouterr().err

    def test_build_index_removes_checkpoint_on_success(self, capsys, tmp_path):
        # The shard manifest is the build's only checkpoint: a finished
        # build leaves the manifest and its shards, and nothing else.
        artifact = tmp_path / "prop"
        code = main([
            "build-index", "--dataset", "data_2k", "--size", "120",
            "--seed", "3", "--output", str(artifact), "--shard-nodes", "40",
        ])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prop"]
        # ceil(120 / 40) byte-balanced shards: contiguous records whose
        # ranges match their segment headers, one file per record.
        from repro.core.shards import MmapShardBackend, shard_filename
        from repro.datasets import data_2k

        backend = MmapShardBackend(
            artifact, data_2k(seed=3, n_nodes=120, with_corpus=False).graph
        )
        ranges = backend.ranges
        assert len(ranges) == 3
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
        assert ranges[-1][1] == 120
        for lo, hi in ranges:
            backend.get(lo), backend.get(hi - 1)  # header range checked
        assert sorted(p.name for p in artifact.iterdir()) == ["manifest.json"] + [
            shard_filename(lo, hi) for lo, hi in ranges
        ]

    def test_build_index_resume_from_checkpoint(self, capsys, tmp_path):
        from repro import _faults

        artifact = tmp_path / "prop"
        argv = [
            "build-index", "--dataset", "data_2k", "--size", "120",
            "--seed", "3", "--output", str(artifact), "--shard-nodes", "25",
        ]
        # Interrupt inside the third shard: shards [0, 50) are published.
        with _faults.fault(
            "propagation.build_entry", _faults.InterruptOnEntry(60)
        ):
            assert main(argv) == 130
        capsys.readouterr()
        code = main(argv + ["--resume"])
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed 50 entries" in out
        assert "built 70 entries" in out
        # The resumed directory is byte-identical to an uninterrupted build.
        reference = tmp_path / "reference"
        argv[argv.index(str(artifact))] = str(reference)
        assert main(argv) == 0
        names = sorted(p.name for p in reference.iterdir())
        assert sorted(p.name for p in artifact.iterdir()) == names
        for name in names:
            assert (artifact / name).read_bytes() == (
                reference / name
            ).read_bytes(), name

    @pytest.mark.parametrize("summarizer", ["rcl", "lrw"])
    def test_build_summaries_resume_from_checkpoint(
        self, capsys, tmp_path, summarizer
    ):
        from repro import _faults

        def build(output, *extra):
            return main([
                "build-summaries", "--dataset", "data_2k", "--size", "150",
                "--seed", "3", "--summarizer", summarizer,
                "--output", str(output), *extra,
            ])

        reference = tmp_path / "reference.json"
        assert build(reference) == 0
        output = tmp_path / "sums.json"
        checkpoint = tmp_path / "sums.ckpt.json"
        with _faults.fault(
            "summarize.build_topic", _faults.InterruptOnTopic(25)
        ):
            assert build(output, "--checkpoint-every", "10") == 130
        assert checkpoint.exists() and not output.exists()
        capsys.readouterr()
        assert build(output, "--resume") == 0
        assert "resumed" in capsys.readouterr().out
        assert not checkpoint.exists()
        assert output.read_bytes() == reference.read_bytes()

    def test_precompute_metrics_out(self, capsys, tmp_path):
        import json

        from repro.datasets import data_2k, generate_workload, replay_requests
        from repro.obs import validate_metrics_json

        common = ["--dataset", "data_2k", "--size", "120", "--seed", "3"]
        index_dir = tmp_path / "prop"
        sums = tmp_path / "sums.json"
        assert main(["build-index", *common, "--output", str(index_dir)]) == 0
        assert main(["build-summaries", *common, "--output", str(sums)]) == 0
        bundle = data_2k(n_nodes=120, seed=3, with_corpus=False)
        workload = generate_workload(bundle, n_queries=4, n_users=3, seed=3)
        records = replay_requests(workload, n_requests=40, k=5, skew=1.1,
                                  seed=3)
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(json.dumps(r) + "\n" for r in records))
        metrics_path = tmp_path / "precompute-metrics.json"
        capsys.readouterr()
        code = main([
            "precompute", *common, "--summaries", str(sums),
            "--index-dir", str(index_dir), "--trace", str(trace),
            "--top-queries", "8", "--top-answers", "32",
            "--output", str(tmp_path / "precompute.json"),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        assert "precomputed" in capsys.readouterr().out
        payload = json.loads(metrics_path.read_text(encoding="utf-8"))
        validate_metrics_json(payload)
        assert payload["counters"]["precompute.trace_records"] == len(records)
        for gauge in ("plans", "answers", "warm_bytes"):
            assert payload["gauges"][f"precompute.{gauge}"] > 0, gauge


#: The arguments each command's parser requires (placeholder paths).
REQUIRED_ARGS = {
    "search": [],
    "serve": ["--summaries", "s.json", "--index-dir", "d"],
    "precompute": [
        "--summaries", "s.json", "--index-dir", "d",
        "--trace", "t", "--output", "o",
    ],
}


class TestErrorHandling:
    """ReproError -> one-line stderr message + exit 2, never a traceback."""

    def test_unknown_dataset_exits_2(self, capsys):
        code = main([
            "search", "--dataset", "no_such_data", "--user", "0",
            "--query", "phone",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("pit-search: error: ")
        assert "unknown dataset 'no_such_data'" in err
        assert "Traceback" not in err

    def test_unknown_dataset_build_index_exits_2(self, capsys, tmp_path):
        code = main([
            "build-index", "--dataset", "nope",
            "--output", str(tmp_path / "prop.npz"),
        ])
        assert code == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_missing_index_artifact_exits_2(self, capsys, tmp_path):
        code = main([
            "search", "--dataset", "data_2k", "--size", "200",
            "--user", "3", "--query", "phone", "--seed", "3",
            "--index-dir", str(tmp_path / "nope"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "pit-search: error:" in err and "not found" in err

    def test_corrupted_index_artifact_exits_2(self, capsys, tmp_path):
        artifact = tmp_path / "prop"
        code = main([
            "build-index", "--dataset", "data_2k", "--size", "120",
            "--seed", "3", "--output", str(artifact),
        ])
        assert code == 0
        capsys.readouterr()
        manifest = artifact / "manifest.json"
        raw = bytearray(manifest.read_bytes())
        raw[len(raw) // 2] ^= 0x10  # flip one bit mid-file
        manifest.write_bytes(bytes(raw))
        code = main([
            "search", "--dataset", "data_2k", "--size", "120",
            "--user", "3", "--query", "phone", "--seed", "3",
            "--index-dir", str(artifact),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "pit-search: error:" in err
        assert str(artifact) in err

    @pytest.mark.parametrize("command", ["search", "serve", "precompute"])
    def test_npz_as_index_dir_exits_2(self, capsys, tmp_path, command):
        # Γ has one on-disk format: a leftover single-file index is
        # refused with the typed one-line error, never a traceback.
        stale = tmp_path / "prop.npz"
        stale.write_bytes(b"PK\x03\x04 not a shard directory")
        summaries = tmp_path / "sums.json"
        if command != "search":
            code = main([
                "build-summaries", "--dataset", "data_2k", "--size", "120",
                "--seed", "3", "--summarizer", "rcl",
                "--output", str(summaries),
            ])
            assert code == 0
            capsys.readouterr()
        argv = {
            "search": ["--user", "3", "--query", "phone"],
            "serve": ["--summaries", str(summaries), "--port", "0"],
            "precompute": [
                "--summaries", str(summaries),
                "--trace", str(tmp_path / "trace.jsonl"),
                "--output", str(tmp_path / "pre.json"),
            ],
        }[command]
        code = main([
            command, "--dataset", "data_2k", "--size", "120", "--seed", "3",
            "--index-dir", str(stale), *argv,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("pit-search: error: ")
        assert err.count("\n") == 1
        assert "manifest.json" in err
        assert "Traceback" not in err

    def test_serve_theta_disagreeing_with_index_exits_2(
        self, capsys, tmp_path
    ):
        # --theta states the θ the operator expects; an index built at
        # another θ is refused at boot instead of served silently.
        common = ["--dataset", "data_2k", "--size", "120", "--seed", "3"]
        index_dir = tmp_path / "prop"
        sums = tmp_path / "sums.json"
        assert main([
            "build-index", *common, "--theta", "0.002",
            "--output", str(index_dir),
        ]) == 0
        assert main([
            "build-summaries", *common, "--summarizer", "rcl",
            "--output", str(sums),
        ]) == 0
        capsys.readouterr()
        code = main([
            "serve", *common, "--summaries", str(sums),
            "--index-dir", str(index_dir), "--theta", "0.01", "--port", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("pit-search: error: ")
        assert err.count("\n") == 1
        assert "theta=0.01" in err and "theta=0.002" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["search", "serve", "precompute"])
    def test_index_flag_is_usage_error(self, capsys, command):
        required = REQUIRED_ARGS[command]
        # Not even as an abbreviation of --index-dir.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                [command, *required, "--index", "prop.npz"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --index prop.npz" in err


class TestSignalContract:
    """SIGINT and SIGTERM share one cleanup path and exit 128 + signum."""

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        import repro.cli as cli

        def interrupt(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_run_datasets", interrupt)
        code = main(["datasets"])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err

    def test_sigterm_exits_143_through_same_path(self, capsys, monkeypatch):
        import os
        import signal
        import time

        import repro.cli as cli

        def wait_for_term(args):
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(10)  # the handler interrupts this sleep
            return 0  # pragma: no cover - must not be reached

        monkeypatch.setattr(cli, "_run_datasets", wait_for_term)
        code = main(["datasets"])
        assert code == 143
        err = capsys.readouterr().err
        assert "interrupted" in err

    def test_sigterm_handler_restored_after_main(self, monkeypatch):
        import signal

        import repro.cli as cli

        monkeypatch.setattr(cli, "_run_datasets", lambda args: 0)
        before = signal.getsignal(signal.SIGTERM)
        assert main(["datasets"]) == 0
        assert signal.getsignal(signal.SIGTERM) is before


class TestServeParser:
    def test_serve_requires_summaries(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(
            ["serve", "--summaries", "/tmp/s.json", "--index-dir", "/tmp/p"]
        )
        assert args.theta is None  # the index's θ governs
        assert args.port == 8080
        assert args.max_queue == 64
        assert args.max_batch == 8
        assert args.default_deadline_ms == 5000
        assert args.drain_seconds == 10.0

    @pytest.mark.parametrize("command, required", [
        ("serve", ["--summaries", "s.json"]),
        ("precompute", [
            "--summaries", "s.json", "--trace", "t", "--output", "o",
        ]),
    ])
    def test_index_dir_is_required(self, capsys, command, required):
        # The shard directory is the daemon's only Γ source.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, *required])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "the following arguments are required: --index-dir" in err

    @pytest.mark.parametrize("command, flag", [
        ("serve", ["--entry-cache-mb", "64"]),
        ("precompute", ["--theta", "0.002"]),
    ])
    def test_removed_flags_are_unrecognized(self, capsys, command, flag):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, *REQUIRED_ARGS[command], *flag])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flag)}" in err

    def test_build_index_checkpoint_flags_removed(self, capsys):
        # The shard manifest is the Γ build's checkpoint; only
        # build-summaries keeps the checkpoint-file flags.
        for flag in ("--checkpoint", "--checkpoint-every"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["build-index", "--output", "/tmp/p", flag, "5"]
                )
        args = build_parser().parse_args(["build-index", "--output", "/tmp/p"])
        assert args.shard_nodes == 4096
