"""Rule protocol and shared AST helpers."""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from ..config import LintConfig
from ..findings import Finding
from ..project import SourceFile


class Rule:
    """One named contract check, run once per module."""

    code: str = "LINT000"
    name: str = "unnamed"
    description: str = ""

    def check_file(self, sf: SourceFile, config: LintConfig) -> List[Finding]:
        return []

    # -- helpers for subclasses -------------------------------------------

    def finding(
        self,
        sf_or_path,
        node_or_line,
        message: str,
        col: Optional[int] = None,
    ) -> Finding:
        """Build a Finding from a SourceFile + AST node (or explicit line)."""
        end_line = end_col = 0
        if isinstance(sf_or_path, SourceFile):
            path = sf_or_path.relpath
            if isinstance(node_or_line, int):
                line, column = node_or_line, col or 0
            else:
                line = getattr(node_or_line, "lineno", 1)
                column = getattr(node_or_line, "col_offset", 0)
                end_line = getattr(node_or_line, "end_lineno", 0) or 0
                end_col = getattr(node_or_line, "end_col_offset", 0) or 0
            text = sf_or_path.line_text(line)
        else:
            path = str(sf_or_path)
            line, column, text = int(node_or_line), col or 0, ""
        return Finding(
            rule=self.code,
            path=path,
            line=line,
            col=column,
            message=message,
            line_text=text,
            end_line=end_line,
            end_col=end_col,
        )


def import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the dotted module they bind.

    ``import numpy as np`` -> {"np": "numpy"};
    ``from numpy import random`` -> {"random": "numpy.random"};
    ``from numpy.random import default_rng`` ->
    {"default_rng": "numpy.random.default_rng"}.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                if alias.name == "*" or node.module is None:
                    continue
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; None for non-name expressions."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolved_call_name(
    call: ast.Call, aliases: Dict[str, str]
) -> Optional[str]:
    """Fully-resolved dotted name of a call target, alias-expanded."""
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    expansion = aliases.get(head, head)
    return f"{expansion}.{rest}" if rest else expansion


def expression_tokens(node: ast.AST) -> List[str]:
    """Identifier-ish tokens of an expression (names, attrs, str parts)."""
    tokens: List[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            tokens.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            tokens.append(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            tokens.append(sub.value)
    return tokens


def enclosing_functions(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    """Map every node to its nearest enclosing function def (or None)."""
    owner: Dict[ast.AST, ast.AST] = {}

    def visit(node: ast.AST, current: Optional[ast.AST]) -> None:
        owner[node] = current
        nested = current
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = node
        for child in ast.iter_child_nodes(node):
            visit(child, nested)

    visit(tree, None)
    return owner
