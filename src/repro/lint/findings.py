"""Finding model shared by every lint rule.

A :class:`Finding` pins one contract violation to a source location and
carries a *content fingerprint*: a short digest of (rule, file, stripped
line text).  Baselines store fingerprints rather than line numbers, so
unrelated edits above a baselined finding do not churn the baseline
file, while any edit to the offending line itself re-surfaces it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict


def finding_fingerprint(rule: str, path: str, line_text: str) -> str:
    """Content-addressed identity of one finding (see module docstring)."""
    payload = f"{rule}|{path}|{line_text.strip()}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-root-relative, forward slashes
    line: int  # 1-based
    col: int  # 0-based, as reported by ast
    message: str
    line_text: str = ""
    severity: str = "error"
    #: End of the offending span (end_line 1-based inclusive, end_col
    #: 0-based exclusive, as reported by ast); 0 = unknown.
    end_line: int = 0
    end_col: int = 0
    suppressed: bool = False  # a `# lint: disable=` comment covers it
    baselined: bool = False  # the committed baseline covers it

    @property
    def fingerprint(self) -> str:
        return finding_fingerprint(self.rule, self.path, self.line_text)

    @property
    def active(self) -> bool:
        """True when this finding should fail the gate."""
        return not (self.suppressed or self.baselined)

    def as_dict(self) -> Dict[str, Any]:
        """JSONL record for ``--format jsonl`` / ``--report``.

        Record schema (documented in DESIGN §17): ``rule``, ``path``,
        ``line``/``col`` (span start), ``end_line``/``end_col`` (span
        end, present when known), ``severity``, ``message``,
        ``fingerprint`` (content-addressed baseline identity),
        ``suppressed`` and ``baselined``.
        """
        record: Dict[str, Any] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
            "fingerprint": self.fingerprint,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
        }
        if self.end_line:
            record["end_line"] = self.end_line
            record["end_col"] = self.end_col
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Finding":
        """Rebuild a finding from its JSONL record (incremental cache).

        ``line_text`` is carried in the record only via the cache (it
        is what the fingerprint hashes), so the cache stores it
        explicitly alongside; see ``repro.lint.cache``.
        """
        return cls(
            rule=record["rule"],
            path=record["path"],
            line=record["line"],
            col=record["col"],
            message=record["message"],
            line_text=record.get("line_text", ""),
            severity=record.get("severity", "error"),
            end_line=record.get("end_line", 0),
            end_col=record.get("end_col", 0),
        )

    def as_jsonl(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    def render(self) -> str:
        """One-line human rendering (``path:line:col: RULE message``)."""
        tags = []
        if self.suppressed:
            tags.append("suppressed")
        if self.baselined:
            tags.append("baselined")
        suffix = f" [{', '.join(tags)}]" if tags else ""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.message}{suffix}"
        )

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)
