"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.mux.scheduler import StreamMultiplexer


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["run", "--list"])
        assert args.command == "run"
        assert args.list
        assert args.ids == []

    def test_run_command_with_options(self):
        args = build_parser().parse_args(
            ["run", "table2", "fig9", "--full", "--seed", "3"]
        )
        assert args.ids == ["table2", "fig9"]
        assert args.full
        assert args.seed == 3

    def test_run_seed_defaults_per_id(self):
        args = build_parser().parse_args(["run", "clockmod-fsk"])
        assert args.seed is None

    def test_exactly_five_verbs(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        assert "{run,sweep,stream,regress,lint}" in capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["list", "send", "keylog", "mux", "scenario"])
    def test_retired_verbs_rejected(self, verb):
        with pytest.raises(SystemExit):
            build_parser().parse_args([verb, "x"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list_prints_experiments(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert "fig9" in out
        # Scenario-only names follow, with their titles; the three that
        # are also experiment ids are listed once.
        assert "ichannels-throttle" in out
        assert "clockmod-fsk" in out
        assert out.count("table2") == 1

    def test_keylog_reports_detection(self, capsys):
        assert main(["run", "keylog"]) == 0
        out = capsys.readouterr().out
        assert "== keylog:" in out
        assert "record near-field" in out
        assert "tpr=0.947368421;fpr=0.052631579;detected=19" in out
        assert "seed 2;" in out

    def test_run_scenario_prints_digest_and_gauges(self, capsys):
        assert main(["run", "clockmod-fsk"]) == 0
        out = capsys.readouterr().out
        assert "record clockmod-fsk" in out
        assert "859e7da8e53c054f" in out
        lines = {tuple(line.split()) for line in out.splitlines()}
        assert ("receiver.fsk_contrast_db", "26.1556") in lines
        assert ("channel.transmitted", "32") in lines
        assert "seed 11;" in out

    def test_run_scenario_seed_override(self, capsys):
        assert main(["run", "ichannels-throttle", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "seed 3;" in out
        assert "aea656c072283c92" not in out  # the seed-7 digest

    def test_run_scenario_with_execution_flags(self, capsys, tmp_path):
        import json

        trace = tmp_path / "t.jsonl"
        report = tmp_path / "r.md"
        argv = [
            "run", "ichannels-throttle", "--jobs", "1", "--no-cache",
            "--trace", str(trace), "--output", str(report),
        ]
        assert main(argv) == 0
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert any(e.get("name") == "scenario" for e in events)
        assert "ichannels-throttle" in report.read_text()
        manifest = json.loads(
            (tmp_path / "ichannels-throttle.manifest.json").read_text()
        )
        assert manifest["seed"] == 7
        assert manifest["metrics"]["channel.ber"] == 0

    def test_run_single_experiment(self, capsys):
        assert main(["run", "fig4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "finished in" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "table99"],
            ["run", "table2", "table99"],
            ["run"],
            ["run", "fig4", "--jobs", "-1"],
            ["run", "clockmod-fsk", "--profile", "tiny"],
        ],
    )
    def test_run_bad_arguments_exit_2(self, capsys, argv):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_cache_dir_must_be_a_directory(self, capsys, tmp_path):
        path = tmp_path / "file"
        path.write_text("")
        for verb in (["run", "fig4"], ["sweep", "receiver-grid", "--plan"]):
            assert main([*verb, "--cache-dir", str(path)]) == 2
            assert "not a directory" in capsys.readouterr().err

    def test_run_with_report_output(self, capsys, tmp_path):
        path = tmp_path / "out.md"
        assert main(["run", "fig4", "--seed", "1", "--output", str(path)]) == 0
        content = path.read_text()
        assert content.startswith("# Reproduction report")
        assert "fig4" in content
        assert "reproducibility:" in content
        # --output implies a manifest next to the report.
        assert (tmp_path / "fig4.manifest.json").exists()

    def test_run_with_trace_and_manifest_dir(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "run",
                    "fig4",
                    "--seed",
                    "1",
                    "--trace",
                    str(trace),
                    "--manifest-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        kinds = {e["event"] for e in events}
        assert "experiment" in kinds
        assert "cache" in kinds
        # Stage activity shows as compute spans (cold cache) or hit
        # events (a previous test already warmed the process cache).
        assert kinds & {"span", "stage"}
        manifest = json.loads((tmp_path / "fig4.manifest.json").read_text())
        assert manifest["experiment"] == "fig4"


class TestStreamCommand:
    def test_parser_defaults(self):
        # One name and one default per flag, in TEXT and fleet mode alike.
        for argv in (["stream", "hi"], ["stream", "--fleet", "keylog=1"]):
            args = build_parser().parse_args(argv)
            assert args.chunk_size == 4096
            assert args.capacity == 64
            assert args.policy == "block"
            assert args.jitter == 0.1
            assert args.service_rate is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["stream", "hi", "--chunk-size", "0"],
            ["stream", "hi", "--chunk-size", "-5"],
            ["stream", "hi", "--capacity", "0"],
            ["stream", "hi", "--capacity", "-1"],
            ["stream", "hi", "--jitter", "-0.1"],
            ["stream", "hi", "--service-rate", "0"],
            ["stream", "hi", "--jitter", "nan"],
            # TEXT and --fleet are exclusive, and one is required.
            ["stream"],
            ["stream", "hi", "--fleet", "keylog=1"],
            # A flag of the other mode is refused, not ignored.
            ["stream", "hi", "--check"],
            ["stream", "--fleet", "keylog=1", "--seed", "0"],
            ["stream", "--fleet", "keylog=1", "--service-rate", "8000"],
        ],
    )
    def test_invalid_arguments_exit_2(self, capsys, argv):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_policy_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "hi", "--policy", "fifo"])

    def test_stream_demo_bit_exact(self, capsys, tmp_path):
        import json

        trace = tmp_path / "stream.jsonl"
        argv = [
            "stream", "Hi", "--seed", "1", "--chunk-size", "2048",
            "--jitter", "0.2", "--trace", str(trace),
            "--manifest-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "bit-exact with the batch decoder" in out
        assert "sync=locked" in out
        events = [json.loads(l) for l in trace.read_text().splitlines()]
        assert any(e.get("name") == "stream.chunk" for e in events)
        manifest = json.loads((tmp_path / "stream-demo.json").read_text())
        assert manifest["stream"]["lossless"] is True
        assert "stream.chunks" in manifest["metrics"]

    def test_stream_demo_lossy(self, capsys):
        # A deliberately starved receiver: drops must be reported, and
        # the command still exits 0 (loss is a reported condition, not
        # a failure).
        argv = [
            "stream", "Hi", "--seed", "1", "--chunk-size", "2048",
            "--policy", "drop-oldest", "--capacity", "4",
            "--service-rate", "8000",
        ]
        with pytest.warns(RuntimeWarning):
            assert main(argv) == 0
        out = capsys.readouterr().out
        assert "lossy stream" in out


class TestMuxCommand:
    """``stream --fleet``: the streaming multiplexer."""

    @pytest.fixture(autouse=True)
    def bounded_ticks(self, monkeypatch):
        # A queue whose budget never grows is never drained; bound the
        # tick loop so that regression fails instead of hanging.
        run = StreamMultiplexer.run
        monkeypatch.setattr(
            StreamMultiplexer,
            "run",
            lambda self, max_ticks=None: run(self, max_ticks or 1000),
        )

    @pytest.mark.parametrize(
        "extra",
        [
            ["--chunk-size", "0"],
            ["--tick-chunks", "0"],
            ["--jitter", "-1"],
            ["--capacity", "0"],
            ["--duration", "0"],
            ["--duration", "-1"],
            # Valid, but shorter than one analysis window: no frames.
            ["--duration", "1e-5"],
            # Would hang: a zero budget never drains the queue.
            ["--service-rate-factor", "0"],
            ["--service-rate-factor", "-1"],
        ],
    )
    def test_out_of_range_arguments_exit_2(self, capsys, extra):
        argv = ["stream", "--fleet", "stream-covert=2", *extra]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        # fig7 is registered but renders no capture to stream.
        "entry", ["keylog=0", "keylog=x", "=2", "nosuch=1", "fig7=1"]
    )
    def test_bad_fleet_entry_exits_2(self, capsys, entry):
        assert main(["stream", "--fleet", entry]) == 2
        assert "error:" in capsys.readouterr().err

    def test_mixed_fleet_check_and_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "fleet.json"
        argv = [
            "stream", "--fleet", "stream-covert=2", "--fleet", "keylog",
            "--fleet", "clockmod-fsk=1", "--check", "--json", str(path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "multiplexed 4 stream(s)" in out
        assert "check OK: all 4 finalised decode(s)" in out
        digests = json.loads(path.read_text())["digests"]
        assert sorted(digests) == [
            "clockmod-fsk/00003", "keylog/00002",
            "stream-covert/00000", "stream-covert/00001",
        ]
        # The same digests as a mux with its own defaults (512-sample
        # chunks, 0.05 jitter, drop-oldest, two ticks of capacity).
        assert digests["clockmod-fsk/00003"] == "fe86f8690ae88583"
        assert digests["keylog/00002"] == "5c517b56f1837919"
        assert digests["stream-covert/00000"] == "6242102353f79e87"

    def test_lossy_fleet_fails_check(self, capsys):
        argv = [
            "stream", "--fleet", "stream-covert=1", "--policy",
            "drop-oldest", "--capacity", "1", "--service-rate-factor",
            "0.05", "--check",
        ]
        assert main(argv) == 2
        assert "--check needs a drop-free run" in capsys.readouterr().err


class TestRegressCommand:
    def test_record_then_compare(self, capsys, tmp_path):
        argv = ["regress", "--baseline-dir", str(tmp_path),
                "--scenario", "chain-emission-tiny"]
        assert main(argv + ["--record"]) == 0
        assert "baseline recorded" in capsys.readouterr().out
        assert main(argv) == 0
        assert "regress: OK" in capsys.readouterr().out

    def test_missing_baselines_exit_nonzero(self, capsys, tmp_path):
        argv = ["regress", "--baseline-dir", str(tmp_path / "empty"),
                "--scenario", "chain-emission-tiny"]
        assert main(argv) == 1
        assert "regress: FAILED" in capsys.readouterr().out
