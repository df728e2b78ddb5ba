"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.mux.scheduler import StreamMultiplexer


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_with_options(self):
        args = build_parser().parse_args(
            ["run", "table2", "fig9", "--full", "--seed", "3"]
        )
        assert args.ids == ["table2", "fig9"]
        assert args.full
        assert args.seed == 3

    def test_send_defaults(self):
        args = build_parser().parse_args(["send", "hello"])
        assert args.machine == "Inspiron"
        assert args.profile == "tiny"

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert "fig9" in out

    def test_send_roundtrip(self, capsys):
        assert main(["send", "ok", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "received: 'ok'" in out

    def test_keylog_reports_detection(self, capsys):
        assert main(["keylog", "abc abc", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "keystroke at" in out
        assert "TPR=" in out

    def test_run_single_experiment(self, capsys):
        assert main(["run", "fig4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "finished in" in out

    def test_run_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["run", "table99"])

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
        args = build_parser().parse_args(["stream", "hi"])
        assert args.chunk_size == 4096
        assert args.buffer_capacity == 64
        assert args.policy == "block"
        assert args.service_rate is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["stream", "hi", "--chunk-size", "0"],
            ["stream", "hi", "--chunk-size", "-5"],
            ["stream", "hi", "--buffer-capacity", "0"],
            ["stream", "hi", "--buffer-capacity", "-1"],
            ["stream", "hi", "--jitter", "-0.1"],
            ["stream", "hi", "--service-rate", "0"],
            ["keylog", "hi", "--stream", "--chunk-size", "0"],
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
            "--policy", "drop-oldest", "--buffer-capacity", "4",
            "--service-rate", "8000",
        ]
        with pytest.warns(RuntimeWarning):
            assert main(argv) == 0
        out = capsys.readouterr().out
        assert "lossy stream" in out

    def test_keylog_stream_reports_latency(self, capsys):
        assert main(["keylog", "abc abc", "--seed", "2", "--stream"]) == 0
        out = capsys.readouterr().out
        assert "keystroke at" in out
        assert "detection latency" in out


class TestMuxCommand:
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
        assert main(["mux", "--fleet", "stream-covert=2", *extra]) == 2
        assert "error:" in capsys.readouterr().err


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
