"""The JSONL finding record schema (DESIGN §17).

Every record carries ``rule/path/line/col/severity/message/fingerprint/
suppressed/baselined``; ``end_line``/``end_col`` bound the offending
span when the AST knows it.  Downstream tooling (the incremental cache,
report consumers, editors) parses these records, so the shape is a
contract, not an implementation detail.
"""

from __future__ import annotations

import json

from repro.lint import run_lint
from repro.lint.findings import Finding

from .conftest import write_tree

REQUIRED_KEYS = {
    "rule",
    "path",
    "line",
    "col",
    "severity",
    "message",
    "fingerprint",
    "suppressed",
    "baselined",
}

DET_TREE = {
    "repro/mod.py": """
    import numpy as np

    def draw():
        return np.random.normal(0.0, 1.0)
    """,
}


def one_finding(root, select):
    report = run_lint(root, select=select, baseline_path=False)
    assert len(report.active) == 1, report.render_text()
    return report.active[0]


def test_record_has_required_keys_and_span_end(tmp_path):
    finding = one_finding(write_tree(tmp_path / "tree", DET_TREE), ["DET001"])
    record = json.loads(finding.as_jsonl())
    assert REQUIRED_KEYS <= set(record)
    # The violating expression spans one line; ast end positions are
    # 1-based-inclusive line, 0-based-exclusive column.
    assert record["end_line"] == record["line"]
    assert record["end_col"] > record["col"]
    assert record["fingerprint"] == finding.fingerprint


def test_unknown_span_end_is_omitted():
    record = Finding(
        rule="X001", path="repro/a.py", line=3, col=0, message="m"
    ).as_dict()
    assert "end_line" not in record and "end_col" not in record


def test_from_dict_round_trips_the_record(tmp_path):
    finding = one_finding(write_tree(tmp_path / "tree", DET_TREE), ["DET001"])
    record = finding.as_dict()
    record["line_text"] = finding.line_text
    rebuilt = Finding.from_dict(record)
    assert rebuilt.as_dict() == finding.as_dict()
    # The fingerprint is recomputed from content, never trusted stored.
    assert rebuilt.fingerprint == finding.fingerprint


def test_jsonl_output_is_one_parseable_record_per_line(tmp_path):
    root = write_tree(tmp_path / "tree", DET_TREE)
    report = run_lint(root, select=["DET001", "DET002"], baseline_path=False)
    lines = report.render_jsonl().splitlines()
    assert len(lines) == len(report.findings)
    for line in lines:
        record = json.loads(line)
        assert REQUIRED_KEYS <= set(record)
        # Deterministic serialisation: keys are sorted.
        assert list(record) == sorted(record)
