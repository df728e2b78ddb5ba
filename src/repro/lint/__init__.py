"""repro.lint - determinism & cache-coherence static analysis.

AST-level checks for the contracts the rest of the repository relies on
but (until now) enforced only by convention:

=========  ============================================================
DET001     all randomness flows from trial-seeded Generators
DET002     wall-clock reads stay inside the explicit allowlist
CONC001    cache/scratch/result-store writes use the locked helpers
FLOAT001   no exact float equality in dsp/ and vrm/
=========  ============================================================

Every rule is per-file and AST-level - the linted tree is never
imported.  Contracts a test can observe are checked at run time
instead, where the data is owned: the mux pool drops a released chunk's
samples view, the scenario context rejects reads of undeclared
resources and draws from another component's stream, ``span()``
rejects a name outside ``REGISTERED_SPANS`` while tracing is on,
``tests/exec/test_key_coverage.py`` runs the chain to prove every
physics input reaches its cache key, and ``tests/exec/test_cache.py``
proves that a changed dataclass shape changes its fingerprint.

Run with ``python -m repro lint`` (or ``make lint``; ``make lint-fast``
uses the incremental cache, :mod:`repro.lint.cache`).  Per-line
suppression: ``# lint: disable=CODE[,CODE]``.  Accepted findings live
in ``repro/lint/baseline.json``.
``[tool.repro.lint]`` in ``pyproject.toml`` overrides the built-in
defaults (:func:`repro.lint.config.load_config`).
"""

from __future__ import annotations

from .baseline import load_baseline, write_baseline
from .cache import LintCache
from .config import DEFAULT_CONFIG, LintConfig, load_config
from .engine import LintReport, rule_catalog, run_lint
from .findings import Finding, finding_fingerprint
from .rules import all_rules, rules_by_code

__all__ = [
    "DEFAULT_CONFIG",
    "Finding",
    "LintCache",
    "LintConfig",
    "LintReport",
    "all_rules",
    "finding_fingerprint",
    "load_baseline",
    "load_config",
    "rule_catalog",
    "rules_by_code",
    "run_lint",
    "write_baseline",
]
