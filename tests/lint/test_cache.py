"""The incremental lint cache (repro.lint.cache): hits, invalidation,
corruption tolerance, and CLI surface."""

from __future__ import annotations

import json

from repro.cli import main
from repro.lint import LintCache, LintConfig, run_lint
from repro.lint.cache import (
    config_digest,
    file_key,
    run_key,
    source_digest,
)

from .conftest import write_tree

TREE = {
    "repro/mod.py": """
    import numpy as np

    def draw():
        return np.random.normal(0.0, 1.0)
    """,
    "repro/clean.py": """
    def double(x):
        return x * 2
    """,
}


def lint_with(root, cache, **kwargs):
    kwargs.setdefault("baseline_path", False)
    return run_lint(root, cache=cache, **kwargs)


def fingerprints(report):
    return [f.fingerprint for f in report.findings]


def test_warm_run_is_a_run_layer_hit_with_identical_findings(tmp_path):
    root = write_tree(tmp_path / "tree", TREE)
    cache = LintCache(tmp_path / "cache")
    cold = lint_with(root, cache)
    warm = lint_with(root, cache)
    assert cache.stats.run_misses == 1
    assert cache.stats.run_hits == 1
    assert fingerprints(warm) == fingerprints(cold)
    assert warm.files_checked == cold.files_checked
    assert [f.rule for f in warm.active] == [f.rule for f in cold.active]


def test_editing_one_file_invalidates_only_that_file(tmp_path):
    root = write_tree(tmp_path / "tree", TREE)
    lint_with(root, LintCache(tmp_path / "cache"))
    (root / "repro/clean.py").write_text("def triple(x):\n    return x * 3\n")
    cache = LintCache(tmp_path / "cache")
    report = lint_with(root, cache)
    assert cache.stats.run_hits == 0
    assert cache.stats.ast_hits == 1 and cache.stats.ast_misses == 1
    assert cache.stats.file_hits == 1 and cache.stats.file_misses == 1
    assert [f.rule for f in report.active] == ["DET001"]


def test_config_change_invalidates(tmp_path):
    root = write_tree(tmp_path / "tree", TREE)
    cache = LintCache(tmp_path / "cache")
    lint_with(root, cache)
    report = lint_with(
        root, cache, config=LintConfig(exclude=("repro/mod.py",))
    )
    assert cache.stats.run_hits == 0
    assert report.ok


def test_select_change_invalidates_run_but_keys_differ(tmp_path):
    root = write_tree(tmp_path / "tree", TREE)
    cache = LintCache(tmp_path / "cache")
    lint_with(root, cache)
    narrowed = lint_with(root, cache, select=["DET002"])
    assert cache.stats.run_hits == 0
    assert narrowed.ok
    # And re-running the original selection is a hit again.
    lint_with(root, cache)
    assert cache.stats.run_hits == 1


def test_corrupt_entries_read_as_misses(tmp_path):
    root = write_tree(tmp_path / "tree", TREE)
    cache = LintCache(tmp_path / "cache")
    cold = lint_with(root, cache)
    for path in (tmp_path / "cache").rglob("*.*"):
        path.write_bytes(b"\x00garbage")
    cache2 = LintCache(tmp_path / "cache")
    warm = lint_with(root, cache2)
    assert cache2.stats.run_hits == 0
    assert fingerprints(warm) == fingerprints(cold)


def test_newer_protocol_ast_reads_as_a_miss(tmp_path):
    cache = LintCache(tmp_path / "cache")
    path = tmp_path / "cache" / "asts" / "abcd.pkl"
    path.parent.mkdir(parents=True)
    path.write_bytes(b"\x80\x09foreign")
    assert cache.load_tree("abcd") is None
    assert cache.stats.ast_misses == 1


def test_non_utf8_entry_reads_as_a_miss(tmp_path):
    cache = LintCache(tmp_path / "cache")
    path = tmp_path / "cache" / "runs" / "abcd.json"
    path.parent.mkdir(parents=True)
    path.write_bytes(b"\xff\xfe not utf-8")
    assert cache.load_run("abcd") is None
    assert cache.stats.run_misses == 1


def test_baseline_is_reapplied_on_run_hits(tmp_path):
    root = write_tree(tmp_path / "tree", TREE)
    cache = LintCache(tmp_path / "cache")
    baseline = tmp_path / "baseline.json"
    cold = lint_with(root, cache, baseline_path=baseline)
    assert not cold.ok
    baseline.write_text(
        json.dumps(
            {
                "schema": "repro-lint-baseline-v1",
                "entries": [
                    {"fingerprint": f.fingerprint} for f in cold.active
                ],
            }
        )
    )
    warm = lint_with(root, cache, baseline_path=baseline)
    assert cache.stats.run_hits == 1
    assert warm.ok
    assert len(warm.baselined) == len(cold.active)


def test_suppressions_survive_the_cache_round_trip(tmp_path):
    files = dict(TREE)
    files["repro/mod.py"] = (
        "import numpy as np\n\n"
        "def draw():\n"
        "    return np.random.normal(0.0, 1.0)  # lint: disable=DET001\n"
    )
    root = write_tree(tmp_path / "tree", files)
    cache = LintCache(tmp_path / "cache")
    cold = lint_with(root, cache)
    warm = lint_with(root, cache)
    assert cache.stats.run_hits == 1
    assert cold.ok and warm.ok
    assert len(warm.suppressed) == len(cold.suppressed) == 1


def test_key_helpers_are_content_sensitive():
    cfg = config_digest(LintConfig())
    assert cfg != config_digest(LintConfig(exclude=("x.py",)))
    sha = source_digest("x = 1\n")
    assert sha != source_digest("x = 2\n")
    assert file_key(sha, cfg, ("DET001",)) != file_key(
        sha, cfg, ("DET001", "DET002")
    )
    entries = [("repro/a.py", sha)]
    assert run_key(entries, cfg, ("DET001",), None) != run_key(
        entries, cfg, ("DET001",), ("repro/a",)
    )


def test_cli_cache_flags(tmp_path, capsys):
    root = write_tree(tmp_path / "tree", TREE)
    cache_dir = tmp_path / "cli-cache"
    common = [
        "lint",
        "--root",
        str(root),
        "--select",
        "DET001",
        "--no-baseline",
        "--cache-dir",
        str(cache_dir),
    ]
    assert main(common) == 1
    assert (cache_dir / "runs").is_dir()
    assert main(common) == 1  # warm: same verdict
    capsys.readouterr()
    # --no-cache wins over --cache/--cache-dir.
    assert main(common + ["--no-cache"]) == 1
    capsys.readouterr()
