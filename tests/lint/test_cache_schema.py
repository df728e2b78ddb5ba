"""CACHE001 fixtures: schema-bump discipline against the manifest.

Includes a property test: adding *any* synthetic field to a
fingerprinted params dataclass without a CHAIN_SCHEMA bump trips
CACHE001.  Key coverage is checked by running the chain instead
(``tests/exec/test_key_coverage.py``).
"""

from __future__ import annotations

import json
import keyword

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import LintConfig, run_lint, write_schema_manifest

from .conftest import codes, write_tree

CACHE_MODULE = """
CHAIN_SCHEMA = "chain-v1"
"""

PARAMS_MODULE = """
from dataclasses import dataclass


@dataclass(frozen=True)
class SimProfile:
    name: str
    time_scale: float = 1.0
    freq_scale: float = 1.0
"""

FIXTURE_CONFIG = LintConfig(
    tracked_dataclasses=(("repro/params.py", "SimProfile"),),
)


def base_files():
    return {
        "repro/exec/cache.py": CACHE_MODULE,
        "repro/params.py": PARAMS_MODULE,
    }


def build(tmp_path, files):
    root = write_tree(tmp_path / "tree", files)
    write_schema_manifest(root, FIXTURE_CONFIG)
    return root


def lint(root):
    return run_lint(
        root, FIXTURE_CONFIG, select=["CACHE001"], baseline_path=False
    )


class TestSchemaDiscipline:
    def test_unchanged_tree_clean(self, tmp_path):
        root = build(tmp_path, base_files())
        assert codes(lint(root)) == []

    def test_missing_manifest_flagged(self, tmp_path):
        root = write_tree(tmp_path / "tree", base_files())
        report = lint(root)
        assert codes(report) == ["CACHE001"]
        assert "manifest missing" in report.active[0].message

    def test_field_added_without_bump_flagged(self, tmp_path):
        root = build(tmp_path, base_files())
        params = root / "repro/params.py"
        params.write_text(
            params.read_text().replace(
                "    freq_scale: float = 1.0\n",
                "    freq_scale: float = 1.0\n    extra: float = 0.0\n",
            )
        )
        report = lint(root)
        assert codes(report) == ["CACHE001"]
        assert "without a CHAIN_SCHEMA bump" in report.active[0].message

    def test_field_added_with_bump_asks_for_refresh(self, tmp_path):
        root = build(tmp_path, base_files())
        params = root / "repro/params.py"
        params.write_text(
            params.read_text().replace(
                "    freq_scale: float = 1.0\n",
                "    freq_scale: float = 1.0\n    extra: float = 0.0\n",
            )
        )
        cache = root / "repro/exec/cache.py"
        cache.write_text(cache.read_text().replace("chain-v1", "chain-v2"))
        report = lint(root)
        assert codes(report) == ["CACHE001"]
        assert "--update-schema" in report.active[0].message

    def test_refresh_after_bump_clean(self, tmp_path):
        root = build(tmp_path, base_files())
        cache = root / "repro/exec/cache.py"
        cache.write_text(cache.read_text().replace("chain-v1", "chain-v2"))
        write_schema_manifest(root, FIXTURE_CONFIG)
        assert codes(lint(root)) == []

    def test_manifest_contents(self, tmp_path):
        root = build(tmp_path, base_files())
        manifest = json.loads(
            (root / FIXTURE_CONFIG.schema_manifest).read_text()
        )
        assert manifest["chain_schema"] == "chain-v1"
        assert manifest["dataclasses"]["repro/params.py:SimProfile"] == [
            "name",
            "time_scale",
            "freq_scale",
        ]


@settings(max_examples=25, deadline=None)
@given(
    field_name=st.from_regex(r"[a-z][a-z0-9_]{0,12}", fullmatch=True).filter(
        # A keyword is not a field name: the snippet would not parse.
        lambda s: s not in {"name", "time_scale", "freq_scale"}
        and not keyword.iskeyword(s)
    ),
    annotation=st.sampled_from(["float", "int", "str", "bool"]),
)
def test_any_synthetic_field_without_bump_trips(
    tmp_path_factory, field_name, annotation
):
    """Property: whatever the field is called or typed, silently adding
    it to a fingerprinted params dataclass is a CACHE001 finding."""
    tmp_path = tmp_path_factory.mktemp("cache001")
    root = build(tmp_path, base_files())
    params = root / "repro/params.py"
    params.write_text(
        params.read_text().replace(
            "    freq_scale: float = 1.0\n",
            f"    freq_scale: float = 1.0\n    {field_name}: {annotation}\n",
        )
    )
    report = lint(root)
    assert "CACHE001" in codes(report)
    assert any(field_name in f.message for f in report.active)
