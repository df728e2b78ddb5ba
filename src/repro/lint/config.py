"""Lint configuration: what the rules treat as contract boundaries.

Everything path-like is *root-relative* (the root is the directory that
contains the ``repro`` package, i.e. ``src/`` in this repository), so
the same rules run unchanged over the shipped tree and over the tiny
synthetic trees the fixture tests build in ``tmp_path``.

Precedence, weakest first: built-in defaults (this module) <
``[tool.repro.lint]`` in ``pyproject.toml`` (:func:`load_config`) <
an explicitly constructed :class:`LintConfig` passed to ``run_lint``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Dict, Optional, Tuple


@dataclass(frozen=True)
class LintConfig:
    """Knobs for the rule set; defaults describe this repository."""

    #: Top-level package directory to walk, relative to the root.
    package: str = "repro"

    #: Root-relative paths never linted (directories end with "/").
    exclude: Tuple[str, ...] = ()

    # -- DET002: wall-clock ------------------------------------------------
    #: Files allowed to read the wall clock.  The run manifest stamps
    #: ``generated_unix`` for humans; it is never fingerprinted.
    wallclock_allowlist: Tuple[str, ...] = ("repro/obs/manifest.py",)

    # -- CONC001: raw writes under locked stores ---------------------------
    #: Modules that own the locked/atomic write discipline; raw writes
    #: to cache/scratch/store paths anywhere else are findings.
    raw_write_allowlist: Tuple[str, ...] = (
        "repro/exec/cache.py",
        "repro/sweep/store.py",
        "repro/obs/manifest.py",
        "repro/lint/cache.py",
    )
    #: Identifier pattern marking a path expression as cache/store-like.
    guarded_path_pattern: str = r"cache|scratch|store|result"

    # -- FLOAT001: float equality ------------------------------------------
    #: Path prefixes where ``==``/``!=`` on float expressions is flagged.
    float_eq_scopes: Tuple[str, ...] = ("repro/dsp/", "repro/vrm/")

    # -- baseline ----------------------------------------------------------
    #: Committed baseline of accepted findings (content fingerprints).
    baseline_path: str = "repro/lint/baseline.json"

    def is_excluded(self, relpath: str) -> bool:
        for pattern in self.exclude:
            if pattern.endswith("/"):
                if relpath.startswith(pattern):
                    return True
            elif relpath == pattern:
                return True
        return False


#: Configuration for the shipped tree.
DEFAULT_CONFIG = LintConfig()


# -- pyproject loading -----------------------------------------------------

_FIELD_NAMES = {f.name for f in fields(LintConfig)}


def _parse_toml_value(text: str) -> Any:
    """Parse one TOML value with :func:`ast.literal_eval`.

    TOML strings and arrays of strings/numbers are valid Python
    literals; booleans differ only in case.  That covers every value
    shape ``[tool.repro.lint]`` uses, which is all the fallback parser
    promises.
    """
    text = text.strip()
    if text == "true":
        return True
    if text == "false":
        return False
    return ast.literal_eval(text)


def _parse_toml_section_fallback(
    text: str, section: str
) -> Optional[Dict[str, Any]]:
    """Minimal TOML section reader for Python < 3.11 (no tomllib).

    Handles ``key = value`` lines with string/number/boolean/array
    values (arrays may span lines) inside the requested ``[section]``.
    Returns None when the section is absent.
    """
    found: Optional[Dict[str, Any]] = None
    current: Optional[str] = None
    pending_key: Optional[str] = None
    pending_value = ""
    depth = 0
    for raw in text.splitlines():
        line = raw.strip()
        if pending_key is None:
            if not line or line.startswith("#"):
                continue
            header = re.match(r"^\[(?P<name>[^\]]+)\]$", line)
            if header:
                current = header.group("name").strip()
                if current == section and found is None:
                    found = {}
                continue
        if current != section or found is None:
            continue
        if pending_key is None:
            assignment = re.match(
                r"^(?P<key>[A-Za-z0-9_.\-\"']+)\s*=\s*(?P<value>.*)$", line
            )
            if not assignment:
                continue
            pending_key = assignment.group("key").strip("\"'")
            pending_value = assignment.group("value")
        else:
            pending_value += " " + line
        depth = pending_value.count("[") - pending_value.count("]")
        if depth > 0:
            continue
        value_text = pending_value.split("#")[0] if (
            "#" in pending_value and '"' not in pending_value
        ) else pending_value
        try:
            found[pending_key] = _parse_toml_value(value_text)
        except (ValueError, SyntaxError):
            pass  # unsupported shape: keep the built-in default
        pending_key, pending_value = None, ""
    return found


def _read_pyproject_section(path: Path) -> Optional[Dict[str, Any]]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return None
    try:
        import tomllib  # Python >= 3.11

        data = tomllib.loads(text)
        section = data.get("tool", {}).get("repro", {}).get("lint")
        return dict(section) if isinstance(section, dict) else None
    except ModuleNotFoundError:
        return _parse_toml_section_fallback(text, "tool.repro.lint")
    except ValueError:
        return None


def find_pyproject(root) -> Optional[Path]:
    """``pyproject.toml`` at the lint root or the directory above it.

    The lint root is usually ``src/``; the project file lives one level
    up in this repository.
    """
    root = Path(root)
    for candidate in (root / "pyproject.toml", root.parent / "pyproject.toml"):
        if candidate.is_file():
            return candidate
    return None


def load_config(
    root, base: LintConfig = DEFAULT_CONFIG, pyproject=None
) -> LintConfig:
    """Config for ``root``: defaults overlaid with ``[tool.repro.lint]``.

    ``pyproject`` overrides the search; pass ``False`` to skip the
    overlay entirely (fixture trees that must see pristine defaults).
    """
    if pyproject is False:
        return base
    path = Path(pyproject) if pyproject is not None else find_pyproject(root)
    if path is None:
        return base
    section = _read_pyproject_section(path)
    if not section:
        return base
    # Unknown keys - including those of retired rules - are ignored, so
    # older project files keep loading.  Arrays become tuples, the shape
    # of every sequence field.
    overrides = {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in section.items()
        if name in _FIELD_NAMES
    }
    if not overrides:
        return base
    return replace(base, **overrides)
