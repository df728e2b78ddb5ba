"""CONC001: raw writes to cache/scratch/result-store paths.

The disk cache and the sweep result store are shared between worker
processes; their write discipline (atomic ``os.replace`` publishes,
per-key ``fcntl`` stampede locks, append+flush JSONL) lives in
``repro/exec/cache.py`` and ``repro/sweep/store.py``.  A plain
``open(results_path, "w")`` anywhere else reintroduces exactly the
torn-read/stampede race class those helpers close - this rule detects
it statically instead of waiting for a flaky resume test.

Heuristic: a call that opens a path for writing (``open``/``.open``
with a w/a/x/+ mode, ``.write_text``/``.write_bytes``, ``os.fdopen``)
is a finding when the path expression (for ``os.fdopen``: the
enclosing function) mentions a cache/scratch/store/result identifier
and the module is not one of the blessed writers.  Direct ``fcntl``
use outside the cache module is flagged unconditionally: the lock
protocol must stay in one place.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional

from ..config import LintConfig
from ..findings import Finding
from ..project import SourceFile
from .base import (
    Rule,
    dotted_name,
    enclosing_functions,
    expression_tokens,
)

_WRITE_MODE = re.compile(r"[wax+]")


def _mode_argument(call: ast.Call, position: int) -> Optional[str]:
    """The mode string of an open-style call, if statically known."""
    if len(call.args) > position:
        node = call.args[position]
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            node = keyword.value
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                return node.value
            return None
    return "r"  # open() defaults to read


class RawStoreWriteRule(Rule):
    """CONC001: writes that bypass the locked/atomic store helpers."""

    code = "CONC001"
    name = "raw-store-write"
    description = (
        "file writes under cache/scratch/result-store paths must go "
        "through the fcntl-locked / atomic-rename helpers"
    )

    def check_file(self, sf: SourceFile, config: LintConfig) -> List[Finding]:
        findings: List[Finding] = []
        blessed = sf.relpath in config.raw_write_allowlist
        pattern = re.compile(config.guarded_path_pattern, re.IGNORECASE)
        owner = enclosing_functions(sf.tree)
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted == "fcntl.flock" or dotted == "fcntl.lockf":
                if sf.relpath != "repro/exec/cache.py":
                    findings.append(
                        self.finding(
                            sf,
                            node,
                            "per-key lock protocol belongs in "
                            "repro/exec/cache.py; call ChainCache.lock() "
                            "instead of raw fcntl",
                        )
                    )
                continue
            if blessed:
                continue
            guarded = self._guarded_write_target(node, dotted, owner, pattern)
            if guarded is not None:
                findings.append(
                    self.finding(
                        sf,
                        node,
                        f"raw {guarded} on a cache/store path bypasses "
                        "the locked/atomic helpers (ChainCache, "
                        "ResultStore, write_manifest); racing workers "
                        "can tear or stampede it",
                    )
                )
        return findings

    def _guarded_write_target(
        self,
        node: ast.Call,
        dotted: Optional[str],
        owner,
        pattern: re.Pattern,
    ) -> Optional[str]:
        """Describe the write if it targets a guarded path, else None."""
        path_expr: Optional[ast.AST] = None
        what = None
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = _mode_argument(node, 1)
            if mode is None or _WRITE_MODE.search(mode):
                path_expr = node.args[0] if node.args else None
                what = "open() for writing"
        elif isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr == "open":
                mode = _mode_argument(node, 0)
                if mode is not None and not _WRITE_MODE.search(mode):
                    return None
                path_expr = node.func.value
                what = ".open() for writing"
            elif attr in ("write_text", "write_bytes"):
                path_expr = node.func.value
                what = f".{attr}()"
            elif dotted == "os.fdopen":
                mode = _mode_argument(node, 1)
                if mode is not None and not _WRITE_MODE.search(mode):
                    return None
                # The fd hides the path; judge the enclosing function.
                path_expr = owner.get(node)
                what = "os.fdopen()"
        if path_expr is None or what is None:
            return None
        tokens = expression_tokens(path_expr)
        if any(pattern.search(token) for token in tokens):
            return what
        return None
