"""The lint driver: walk, parse, run rules, apply suppressions/baseline.

The engine never imports the tree it lints - everything is AST-level -
so it runs identically over the shipped package and over synthetic
fixture trees, and a deliberately broken fixture cannot corrupt the
linting process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .baseline import load_baseline
from .cache import (
    LintCache,
    config_digest,
    file_key,
    finding_from_record,
    run_key,
    source_digest,
)
from .config import DEFAULT_CONFIG, LintConfig
from .findings import Finding
from .project import Project, SourceFile, parse_suppressions
from .rules import Rule, all_rules


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if f.active]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def baselined(self) -> List[Finding]:
        return [f for f in self.findings if f.baselined]

    @property
    def ok(self) -> bool:
        return not self.active and not self.parse_errors

    def summary(self) -> str:
        return (
            f"{self.files_checked} files checked: "
            f"{len(self.active)} finding(s), "
            f"{len(self.suppressed)} suppressed, "
            f"{len(self.baselined)} baselined"
        )

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.extend(f"lint: parse error: {err}" for err in self.parse_errors)
        lines.append(self.summary())
        return "\n".join(lines)

    def render_jsonl(self) -> str:
        return "\n".join(f.as_jsonl() for f in self.findings)

    def write_report(self, path) -> Path:
        """Write every finding (active or not) as JSONL to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = self.render_jsonl()
        path.write_text(body + "\n" if body else "")
        return path


def read_sources(
    root, config: LintConfig = DEFAULT_CONFIG
) -> "tuple[Dict[str, str], List[str]]":
    """Read (without parsing) every package module under ``root``.

    Raises :class:`ValueError` when ``root`` has no ``config.package``
    directory, so a wrong root cannot lint zero files and pass.
    """
    root = Path(root)
    sources: Dict[str, str] = {}
    errors: List[str] = []
    package_dir = root / config.package
    if not package_dir.is_dir():
        raise ValueError(
            f"no {config.package!r} package directory under {root}"
        )
    for path in sorted(package_dir.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        if config.is_excluded(relpath):
            continue
        try:
            sources[relpath] = path.read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:
            errors.append(f"{relpath}: {exc}")
    return sources, errors


def _parse_task(item: "tuple[str, str]") -> "tuple[str, object]":
    """Worker-safe parse of one module: ("ok", SourceFile) or ("err", msg)."""
    relpath, source = item
    try:
        return ("ok", SourceFile.parse(relpath, source))
    except (SyntaxError, ValueError) as exc:
        return ("err", f"{relpath}: {exc}")


def parse_sources(
    sources: Dict[str, str],
    *,
    cache: Optional[LintCache] = None,
    jobs: Optional[int] = None,
) -> "tuple[Project, List[str]]":
    """Build a :class:`Project` from read sources.

    With a cache, unchanged files reuse their pickled ASTs (only the
    cheap line/suppression scan reruns).  Cold files are parsed through
    :func:`repro.exec.choose_executor` - serial on a single CPU, a
    process pool when the host and file count justify the fork cost.
    """
    project = Project()
    errors: List[str] = []
    pending: List["tuple[str, str]"] = []
    for relpath, source in sources.items():
        tree = cache.load_tree(source_digest(source)) if cache else None
        if tree is not None:
            lines = source.splitlines()
            project.files[relpath] = SourceFile(
                relpath=relpath,
                source=source,
                tree=tree,
                lines=lines,
                suppressions=parse_suppressions(lines),
            )
        else:
            pending.append((relpath, source))
    if pending:
        from ..exec.executor import choose_executor

        decision = choose_executor(len(pending), jobs=jobs)
        if decision.mode == "processes" and decision.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=decision.jobs) as pool:
                outcomes = list(pool.map(_parse_task, pending))
        else:
            outcomes = [_parse_task(item) for item in pending]
        for status, value in outcomes:
            if status == "ok":
                project.files[value.relpath] = value
                if cache is not None:
                    cache.store_tree(source_digest(value.source), value.tree)
            else:
                errors.append(value)
    # rglob order, regardless of which lane each file took.
    project.files = dict(sorted(project.files.items()))
    return project, errors


def select_rules(
    rules: Sequence[Rule], select: Optional[Sequence[str]]
) -> List[Rule]:
    """``rules`` restricted to the ``select`` codes (all when empty).

    Raises :class:`ValueError` naming any unknown code and the known
    ones, so a stale code cannot silently lint nothing.
    """
    if not select:
        return list(rules)
    wanted = {code.upper() for code in select}
    known = [rule.code for rule in rules]
    unknown = sorted(wanted - set(known))
    if unknown:
        raise ValueError(
            f"unknown rule code(s) {', '.join(unknown)}; "
            f"known: {', '.join(known)}"
        )
    return [rule for rule in rules if rule.code in wanted]


def run_lint(
    root,
    config: LintConfig = DEFAULT_CONFIG,
    *,
    rules: Optional[Sequence[Rule]] = None,
    select: Optional[Sequence[str]] = None,
    paths: Optional[Sequence[str]] = None,
    baseline_path=None,
    cache: Optional[LintCache] = None,
    jobs: Optional[int] = None,
) -> LintReport:
    """Lint the tree under ``root`` and return the report.

    ``select`` restricts to specific rule codes (an unknown code raises
    :class:`ValueError` naming the known ones); ``paths`` restricts the
    rules to files whose relpath starts with one of the given prefixes.
    A ``root`` without the package directory raises :class:`ValueError`.
    ``baseline_path`` overrides the config default; pass ``False`` to
    disable baselining.

    ``cache`` enables the incremental layers (:mod:`repro.lint.cache`):
    a fully warm run skips parsing and rules entirely and only
    re-applies the baseline; a partial hit reuses per-file ASTs and
    per-file findings for unchanged files.  ``jobs`` steers the
    parallel-parse decision for cold files.
    """
    config = config or DEFAULT_CONFIG
    active_rules = select_rules(
        all_rules() if rules is None else rules, select
    )
    codes = tuple(rule.code for rule in active_rules)

    sources, read_errors = read_sources(root, config)
    cfg_digest = ""
    shas: Dict[str, str] = {}
    rkey = ""
    if cache is not None:
        cfg_digest = config_digest(config)
        shas = {rel: source_digest(src) for rel, src in sources.items()}
        rkey = run_key(shas.items(), cfg_digest, codes, paths)
        payload = cache.load_run(rkey)
        if payload is not None:
            findings = [finding_from_record(r) for r in payload["findings"]]
            _apply_baseline(Path(root), config, findings, baseline_path)
            return LintReport(
                findings=findings,
                files_checked=int(payload["files_checked"]),
                parse_errors=list(payload["parse_errors"]),
            )
    project, parse_errors = parse_sources(sources, cache=cache, jobs=jobs)
    errors = read_errors + parse_errors

    findings: List[Finding] = []
    for sf in project.files.values():
        if paths and not any(sf.relpath.startswith(p) for p in paths):
            continue
        if cache is not None:
            fkey = file_key(shas[sf.relpath], cfg_digest, codes)
            cached = cache.load_file_findings(fkey)
            if cached is not None:
                findings.extend(cached)
                continue
            fresh: List[Finding] = []
            for rule in active_rules:
                fresh.extend(rule.check_file(sf, config))
            cache.store_file_findings(fkey, fresh)
            findings.extend(fresh)
        else:
            for rule in active_rules:
                findings.extend(rule.check_file(sf, config))

    _apply_suppressions(project, findings)
    findings.sort(key=lambda f: f.sort_key())
    if cache is not None:
        # Stored post-suppression (suppressions derive from the hashed
        # file content) but pre-baseline (the baseline file can change
        # without touching the tree, so it is re-applied every run).
        cache.store_run(rkey, findings, len(project.files), errors)
    _apply_baseline(Path(root), config, findings, baseline_path)
    return LintReport(
        findings=findings,
        files_checked=len(project.files),
        parse_errors=errors,
    )


def _apply_suppressions(project: Project, findings: List[Finding]) -> None:
    for finding in findings:
        sf = project.get(finding.path)
        if sf is not None and sf.is_suppressed(finding.line, finding.rule):
            finding.suppressed = True


def _apply_baseline(
    root: Path, config: LintConfig, findings: List[Finding], baseline_path
) -> None:
    if baseline_path is False:
        return
    path = (
        Path(baseline_path)
        if baseline_path is not None
        else root / config.baseline_path
    )
    accepted = load_baseline(path)
    for finding in findings:
        if not finding.suppressed and finding.fingerprint in accepted:
            finding.baselined = True


def rule_catalog(rules: Optional[Sequence[Rule]] = None) -> str:
    """Human-readable ``--list-rules`` output."""
    lines = []
    for rule in rules if rules is not None else all_rules():
        lines.append(f"{rule.code}  {rule.name}: {rule.description}")
    return "\n".join(lines)

