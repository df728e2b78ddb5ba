"""`repro lint` CLI surface: flags, formats, maintenance actions,
bad arguments."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.lint import rules_by_code, run_lint

from .conftest import write_tree

VIOLATION = {
    "repro/mod.py": """
    import numpy as np

    def draw():
        return np.random.normal(0.0, 1.0)
    """
}

ALL_CODES = ["DET001", "DET002", "CONC001", "FLOAT001"]


def test_registry_covers_the_issue_codes():
    assert sorted(rules_by_code()) == sorted(ALL_CODES)


def test_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == ALL_CODES


def test_unknown_select_code_is_an_error(tmp_path, capsys):
    root = write_tree(tmp_path, VIOLATION)
    with pytest.raises(ValueError, match="NOPE001.*known: DET001"):
        run_lint(root, select=["DET001", "NOPE001"])
    assert main(["lint", "--root", str(root), "--select", "RES001"]) == 2
    err = capsys.readouterr().err
    assert "RES001" in err
    for code in ALL_CODES:
        assert code in err


def test_jsonl_format(tmp_path, capsys):
    root = write_tree(tmp_path, VIOLATION)
    assert (
        main(
            [
                "lint",
                "--root",
                str(root),
                "--select",
                "DET001",
                "--format",
                "jsonl",
                "--no-baseline",
            ]
        )
        == 1
    )
    record = json.loads(capsys.readouterr().out.strip())
    assert record["rule"] == "DET001"


def test_report_file_written(tmp_path, capsys):
    root = write_tree(tmp_path, VIOLATION)
    out = tmp_path / "findings.jsonl"
    main(
        [
            "lint",
            "--root",
            str(root),
            "--select",
            "DET001",
            "--report",
            str(out),
            "--no-baseline",
        ]
    )
    capsys.readouterr()
    assert out.exists()
    assert json.loads(out.read_text().splitlines()[0])["rule"] == "DET001"


def test_write_baseline_then_green(tmp_path, capsys):
    root = write_tree(tmp_path, VIOLATION)
    baseline = tmp_path / "baseline.json"
    common = [
        "lint",
        "--root",
        str(root),
        "--select",
        "DET001",
        "--baseline",
        str(baseline),
    ]
    assert main(common) == 1
    assert main(common + ["--write-baseline"]) == 0
    assert main(common) == 0
    out = capsys.readouterr().out
    assert "baselined" in out


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--root", "{empty}"], "no 'repro' package directory"),
        (["--root", "{missing}"], "no 'repro' package directory"),
        (["--root", "{tree}", "--package", "nope"], "no 'nope' package"),
        (["--root", "{tree}", "--jobs", "0"], "--jobs must be positive"),
        (["--root", "{tree}", "--jobs", "-2"], "--jobs must be positive"),
    ],
    ids=["empty-root", "missing-root", "missing-package", "jobs-0", "jobs-neg"],
)
def test_bad_arguments_exit_2(tmp_path, capsys, argv, message):
    dirs = {
        "empty": tmp_path / "empty",
        "missing": tmp_path / "missing",
        "tree": write_tree(tmp_path / "tree", VIOLATION),
    }
    dirs["empty"].mkdir()
    argv = [arg.format(**dirs) for arg in argv]
    assert main(["lint", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert "files checked" not in captured.out


def test_run_lint_rejects_a_root_without_the_package(tmp_path):
    with pytest.raises(ValueError, match="no 'repro' package directory"):
        run_lint(tmp_path)
