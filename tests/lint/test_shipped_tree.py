"""Acceptance pins: the shipped tree lints clean, and a seeded
synthetic violation of *each* rule code makes `repro lint` exit
non-zero (the issue's acceptance criteria, as tests)."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.lint import run_lint

SHIPPED_ROOT = Path(repro.__file__).resolve().parent.parent

#: (rule code, file to mutate, mutation) - each seeds one violation
#: into a pristine copy of the shipped tree.
SEEDED_VIOLATIONS = [
    (
        "DET001",
        "repro/power/idle.py",
        lambda text: text
        + "\n\ndef _seeded_det001():\n"
        + "    import numpy as _np\n\n"
        + "    return _np.random.rand(3)\n",
    ),
    (
        "DET002",
        "repro/power/idle.py",
        lambda text: text
        + "\n\ndef _seeded_det002():\n"
        + "    import time as _t\n\n"
        + "    return _t.time()\n",
    ),
    (
        "CONC001",
        "repro/power/idle.py",
        lambda text: text
        + "\n\ndef _seeded_conc001(results_path):\n"
        + '    with open(results_path, "a") as fh:\n'
        + '        fh.write("x")\n',
    ),
    (
        "FLOAT001",
        "repro/dsp/windows.py",
        lambda text: text
        + "\n\ndef _seeded_float001(x):\n"
        + "    return x == 0.25\n",
    ),
]


def test_shipped_tree_is_clean():
    """`python -m repro lint` exits zero on the tree as committed."""
    report = run_lint(SHIPPED_ROOT)
    assert report.ok, report.render_text()


def test_shipped_tree_clean_via_cli(capsys):
    assert main(["lint"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


@pytest.fixture(scope="module")
def mutable_copy(tmp_path_factory):
    """One pristine copy of the shipped package per test module."""
    base = tmp_path_factory.mktemp("shipped")
    shutil.copytree(SHIPPED_ROOT / "repro", base / "repro")
    return base


@pytest.mark.parametrize(
    "code,relpath,mutate",
    SEEDED_VIOLATIONS,
    ids=[v[0] for v in SEEDED_VIOLATIONS],
)
def test_seeded_violation_fails_the_gate(
    mutable_copy, code, relpath, mutate, capsys
):
    target = mutable_copy / relpath
    pristine = target.read_text()
    try:
        target.write_text(mutate(pristine))
        assert main(["lint", "--root", str(mutable_copy)]) == 1
        out = capsys.readouterr().out
        assert code in out
    finally:
        target.write_text(pristine)


def test_restored_copy_is_clean_again(mutable_copy):
    """The fixture restores each mutation; the copy still lints clean."""
    report = run_lint(mutable_copy)
    assert report.ok, report.render_text()


def test_manifest_time_call_is_allowlisted_not_fingerprinted():
    """The issue's specific audit item: obs/manifest.py stamps
    generated_unix with time.time() - allowlisted for DET002, and the
    stamp is not part of config_fingerprint."""
    manifest_src = (SHIPPED_ROOT / "repro/obs/manifest.py").read_text()
    assert "time.time()" in manifest_src
    report = run_lint(SHIPPED_ROOT, select=["DET002"])
    assert report.ok, report.render_text()
    fingerprint_line = next(
        line
        for line in manifest_src.splitlines()
        if "return fingerprint(" in line
    )
    assert "generated" not in fingerprint_line
