"""Config layering: built-in defaults < [tool.repro.lint] < explicit
LintConfig, plus the no-tomllib fallback parser."""

from __future__ import annotations

import textwrap

from repro.cli import main
from repro.lint import DEFAULT_CONFIG, LintConfig, load_config
from repro.lint.config import (
    _parse_toml_section_fallback,
    _read_pyproject_section,
    find_pyproject,
)

from .conftest import write_tree

PYPROJECT = """
[project]
name = "fixture"

[tool.repro.lint]
wallclock_allowlist = ["repro/stamp.py"]
float_eq_scopes = ["repro/num/"]

[tool.other]
unrelated = true
"""

TREE = {
    "repro/stamp.py": """
    import time

    def stamp():
        return time.time()
    """,
}


def test_defaults_without_pyproject(tmp_path):
    root = write_tree(tmp_path / "tree", TREE)
    assert load_config(root) == DEFAULT_CONFIG


def test_pyproject_overrides_defaults(tmp_path):
    root = write_tree(tmp_path / "tree", TREE)
    (root / "pyproject.toml").write_text(textwrap.dedent(PYPROJECT))
    config = load_config(root)
    assert config.wallclock_allowlist == ("repro/stamp.py",)
    assert config.float_eq_scopes == ("repro/num/",)
    # Untouched fields keep the built-in defaults.
    assert config.package == DEFAULT_CONFIG.package
    assert config.raw_write_allowlist == DEFAULT_CONFIG.raw_write_allowlist


def test_pyproject_found_one_level_above_root(tmp_path):
    root = write_tree(tmp_path / "tree" / "src", TREE)
    (tmp_path / "tree" / "pyproject.toml").write_text(
        textwrap.dedent(PYPROJECT)
    )
    assert find_pyproject(root) == tmp_path / "tree" / "pyproject.toml"
    config = load_config(root)
    assert config.wallclock_allowlist == ("repro/stamp.py",)


def test_explicit_config_wins_over_pyproject(tmp_path):
    root = write_tree(tmp_path / "tree", TREE)
    (root / "pyproject.toml").write_text(textwrap.dedent(PYPROJECT))
    explicit = LintConfig(wallclock_allowlist=())
    # run_lint receives the explicit config untouched; load_config only
    # overlays when asked to start from a base.
    layered = load_config(root, base=explicit)
    assert layered.wallclock_allowlist == ("repro/stamp.py",)
    assert explicit.wallclock_allowlist == ()


def test_pyproject_false_skips_overlay(tmp_path):
    root = write_tree(tmp_path / "tree", TREE)
    (root / "pyproject.toml").write_text(textwrap.dedent(PYPROJECT))
    assert load_config(root, pyproject=False) == DEFAULT_CONFIG


def test_unknown_keys_are_ignored(tmp_path):
    root = write_tree(tmp_path / "tree", TREE)
    # Retired rule keys (older project files still carry them) load
    # like any other unknown key.
    (root / "pyproject.toml").write_text(
        "[tool.repro.lint]\nnot_a_field = true\n"
        'async_scopes = ["repro/mux/"]\n'
        'scenario_component_base = ["repro/scenario/component.py", '
        '"Component"]\n'
        'chain_scope = ["repro/chain.py", "repro/batch/"]\n'
        'plumbing_params = ["self", "cache"]\n'
        'key_carrier_attrs = ["keys", "trial_id"]\n'
        'tracked_dataclasses = [["repro/params.py", "SimProfile"]]\n'
        'schema_manifest = "repro/lint/chain_schema.json"\n'
        'trace_module = "repro/obs/trace.py"\n'
    )
    assert load_config(root) == DEFAULT_CONFIG


def test_fallback_parser_matches_tomllib(tmp_path):
    text = textwrap.dedent(PYPROJECT)
    path = tmp_path / "pyproject.toml"
    path.write_text(text)
    via_tomllib = _read_pyproject_section(path)
    via_fallback = _parse_toml_section_fallback(text, "tool.repro.lint")
    assert via_tomllib == via_fallback
    assert via_fallback["wallclock_allowlist"] == ["repro/stamp.py"]


def test_fallback_parser_multiline_arrays_and_comments():
    text = textwrap.dedent(
        """
        [tool.repro.lint]
        # a comment line
        float_eq_scopes = [
            "repro/dsp/",
            "repro/vrm/",
        ]
        package = "repro"
        """
    )
    section = _parse_toml_section_fallback(text, "tool.repro.lint")
    assert section == {
        "float_eq_scopes": ["repro/dsp/", "repro/vrm/"],
        "package": "repro",
    }


def test_cli_lint_reads_pyproject_of_the_root(tmp_path, capsys):
    # time.time() in repro/stamp.py is a DET002 finding under the
    # defaults but allowlisted by the tree's own pyproject section.
    root = write_tree(tmp_path / "tree", TREE)
    assert (
        main(
            ["lint", "--root", str(root), "--select", "DET002", "--no-baseline"]
        )
        == 1
    )
    capsys.readouterr()
    (root / "pyproject.toml").write_text(textwrap.dedent(PYPROJECT))
    assert (
        main(
            ["lint", "--root", str(root), "--select", "DET002", "--no-baseline"]
        )
        == 0
    )
    capsys.readouterr()


def test_shipped_pyproject_section_matches_the_defaults():
    """The committed [tool.repro.lint] pins values the defaults already
    have: the overlay must be a no-op on the shipped tree."""
    from repro.lint.cli import default_root

    assert load_config(default_root()) == DEFAULT_CONFIG
