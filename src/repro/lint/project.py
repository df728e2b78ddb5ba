"""Parsed-source model the rules operate on.

:class:`SourceFile` wraps one module: its AST, raw lines, and the
per-line suppression map (``# lint: disable=CODE[,CODE]``; a bare
``# lint: disable`` suppresses every rule on that line).
:class:`Project` is the walked tree, keyed by root-relative path.  Both
are purely syntactic - the linted tree is never imported, so fixture
trees with deliberate violations cannot perturb the linting process.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*disable(?:=(?P<codes>[A-Za-z0-9_,\s]+))?"
)


def parse_suppressions(lines: List[str]) -> Dict[int, Set[str]]:
    """Map 1-based line number -> suppressed rule codes (empty = all)."""
    suppressions: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressions[lineno] = set()
        else:
            suppressions[lineno] = {
                code.strip().upper()
                for code in codes.split(",")
                if code.strip()
            }
    return suppressions


@dataclass
class SourceFile:
    """One parsed module of the linted tree."""

    relpath: str  # root-relative, forward slashes
    source: str
    tree: ast.AST
    lines: List[str]
    suppressions: Dict[int, Set[str]]

    @classmethod
    def parse(cls, relpath: str, source: str) -> "SourceFile":
        tree = ast.parse(source, filename=relpath)
        lines = source.splitlines()
        return cls(
            relpath=relpath,
            source=source,
            tree=tree,
            lines=lines,
            suppressions=parse_suppressions(lines),
        )

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def is_suppressed(self, lineno: int, rule: str) -> bool:
        codes = self.suppressions.get(lineno)
        if codes is None:
            return False
        return not codes or rule.upper() in codes


@dataclass
class Project:
    """Every parsed module of the walked tree."""

    files: Dict[str, SourceFile] = field(default_factory=dict)

    def get(self, relpath: str) -> Optional[SourceFile]:
        return self.files.get(relpath)
