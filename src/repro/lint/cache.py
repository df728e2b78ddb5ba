"""Incremental lint cache: content-addressed ASTs, findings, and runs.

Three layers, all keyed by content digests so staleness is impossible
by construction - a changed file, config, rule set, or cache schema
changes the key, and old entries are simply never read again:

* **AST layer** (``asts/<sha>.pkl``) - pickled module trees keyed by
  source digest.  Editing one file re-parses only that file.
* **File layer** (``files/<key>.json``) - per-file rule findings keyed
  by (source digest, config digest, rule codes).  Per-file rules skip
  unchanged files entirely.
* **Run layer** (``runs/<key>.json``) - the whole report keyed by the
  digest over every (relpath, source digest) pair plus config, rule
  codes, and path restriction.  A fully warm run parses nothing and
  runs no rules; only the baseline (which changes independently of the
  tree content) is re-applied by the engine.

Cached records are :meth:`repro.lint.findings.Finding.as_dict` output
plus ``line_text`` (the fingerprint input, needed to re-baseline) and
the ``suppressed`` flag (derived from file content, hence stable under
the same digest).  Writes are atomic (temp file + ``os.replace``) so
an interrupted run can never leave a truncated entry; any unreadable
entry reads as a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .findings import Finding

#: Bump when the cache layout or the finding record shape changes:
#: the tag is hashed into every key, so old entries become unreachable.
CACHE_SCHEMA = "repro-lint-cache-v1"


def source_digest(source: str) -> str:
    """Content hash of one module's source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def config_digest(config) -> str:
    """Identity of a :class:`LintConfig` (frozen-dataclass repr)."""
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:16]


def _digest(*parts: str) -> str:
    payload = "\x1f".join(parts).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:32]


def file_key(sha: str, cfg_digest: str, codes: Sequence[str]) -> str:
    """Key of one file's per-file-rule findings."""
    return _digest(CACHE_SCHEMA, sha, cfg_digest, ",".join(codes))


def run_key(
    entries: Iterable[Tuple[str, str]],
    cfg_digest: str,
    codes: Sequence[str],
    paths: Optional[Sequence[str]],
) -> str:
    """Key of a whole lint run over the given (relpath, sha) snapshot."""
    snapshot = ";".join(f"{rel}={sha}" for rel, sha in sorted(entries))
    return _digest(
        CACHE_SCHEMA,
        snapshot,
        cfg_digest,
        ",".join(codes),
        ",".join(paths or ()),
    )


def finding_record(finding: Finding) -> Dict[str, Any]:
    """Cache record for one finding (JSONL record + fingerprint input)."""
    record = finding.as_dict()
    record["line_text"] = finding.line_text
    return record


def finding_from_record(record: Dict[str, Any]) -> Finding:
    """Inverse of :func:`finding_record` (``baselined`` is recomputed)."""
    finding = Finding.from_dict(record)
    finding.suppressed = bool(record.get("suppressed", False))
    return finding


@dataclass
class CacheStats:
    """Hit/miss counters, surfaced by the bench and the cache tests."""

    ast_hits: int = 0
    ast_misses: int = 0
    file_hits: int = 0
    file_misses: int = 0
    run_hits: int = 0
    run_misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


class LintCache:
    """On-disk content-addressed cache (see module docstring)."""

    def __init__(self, cache_dir) -> None:
        self.dir = Path(cache_dir)
        self.stats = CacheStats()

    # -- storage primitives ------------------------------------------------

    def _path(self, layer: str, key: str, suffix: str) -> Path:
        return self.dir / layer / (key + suffix)

    def _write_atomic(self, path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    @staticmethod
    def _read_json(path: Path) -> Optional[Any]:
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):  # incl. JSON and UTF-8 decode errors
            return None

    # -- AST layer ---------------------------------------------------------

    def load_tree(self, sha: str):
        path = self._path("asts", sha, ".pkl")
        try:
            tree = pickle.loads(path.read_bytes())
            self.stats.ast_hits += 1
            return tree
        except (
            OSError, pickle.PickleError, EOFError, AttributeError, ValueError
        ):
            self.stats.ast_misses += 1
            return None

    def store_tree(self, sha: str, tree) -> None:
        self._write_atomic(
            self._path("asts", sha, ".pkl"),
            pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL),
        )

    # -- file layer --------------------------------------------------------

    def load_file_findings(self, key: str) -> Optional[List[Finding]]:
        records = self._read_json(self._path("files", key, ".json"))
        if not isinstance(records, list):
            self.stats.file_misses += 1
            return None
        self.stats.file_hits += 1
        return [finding_from_record(r) for r in records]

    def store_file_findings(
        self, key: str, findings: Sequence[Finding]
    ) -> None:
        body = json.dumps([finding_record(f) for f in findings])
        self._write_atomic(
            self._path("files", key, ".json"), body.encode("utf-8")
        )

    # -- run layer ---------------------------------------------------------

    def load_run(self, key: str) -> Optional[Dict[str, Any]]:
        payload = self._read_json(self._path("runs", key, ".json"))
        if not isinstance(payload, dict) or "findings" not in payload:
            self.stats.run_misses += 1
            return None
        self.stats.run_hits += 1
        return payload

    def store_run(
        self,
        key: str,
        findings: Sequence[Finding],
        files_checked: int,
        parse_errors: Sequence[str],
    ) -> None:
        payload = {
            "schema": CACHE_SCHEMA,
            "findings": [finding_record(f) for f in findings],
            "files_checked": files_checked,
            "parse_errors": list(parse_errors),
        }
        self._write_atomic(
            self._path("runs", key, ".json"),
            json.dumps(payload).encode("utf-8"),
        )
