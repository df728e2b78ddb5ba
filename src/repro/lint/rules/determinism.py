"""DET001/DET002: seed provenance and wall-clock containment.

Every stochastic draw in the chain must flow from a trial-seeded
``numpy.random.Generator`` - that is what makes the content-addressed
cache sound (the RNG state is part of every stage key) and every trial
re-runnable bit-for-bit.  A single draw from numpy's module-level
global generator, an argless ``default_rng()`` (OS-entropy seeded), or
a stdlib ``random`` call silently breaks both.

Wall-clock reads are the same hazard one level up: a timestamp that
reaches a fingerprinted payload makes the "same" run hash differently
every time, which the regression gate then reads as physics drift.
Monotonic clocks (``perf_counter``/``monotonic``) are fine - they time
stages, they never name content.
"""

from __future__ import annotations

import ast
from typing import List

from ..config import LintConfig
from ..findings import Finding
from ..project import SourceFile
from .base import Rule, import_aliases, resolved_call_name

#: numpy.random attributes that are legitimate, explicitly-seeded
#: constructors rather than draws from the hidden global generator.
_NP_RANDOM_OK = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

#: Wall-clock call targets (resolved, alias-expanded dotted names).
_WALLCLOCK = {
    "time.time",
    "time.time_ns",
    "time.ctime",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Method suffixes that indicate a wall-clock read on an imported class
#: (``from datetime import datetime; datetime.now()``).
_WALLCLOCK_SUFFIXES = {
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
}


class UnseededRandomRule(Rule):
    """DET001: draws that bypass trial-seeded Generators."""

    code = "DET001"
    name = "unseeded-rng"
    description = (
        "numpy.random module-level draws, argless default_rng(), and "
        "stdlib random calls break per-trial seed provenance"
    )

    def check_file(self, sf: SourceFile, config: LintConfig) -> List[Finding]:
        findings: List[Finding] = []
        aliases = import_aliases(sf.tree)
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolved_call_name(node, aliases)
            if resolved is None:
                continue
            findings.extend(self._check_call(sf, node, resolved))
        return findings

    def _check_call(
        self, sf: SourceFile, node: ast.Call, resolved: str
    ) -> List[Finding]:
        parts = resolved.split(".")
        if resolved.endswith("default_rng") and not node.args:
            return [
                self.finding(
                    sf,
                    node,
                    "argless default_rng() seeds from OS entropy; pass "
                    "a trial-derived seed or Generator",
                )
            ]
        if (
            len(parts) >= 3
            and parts[0] == "numpy"
            and parts[1] == "random"
            and parts[2] not in _NP_RANDOM_OK
        ):
            return [
                self.finding(
                    sf,
                    node,
                    f"numpy.random.{parts[2]}() draws from the global "
                    "generator; use a trial-seeded Generator",
                )
            ]
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] == "Random" and node.args:
                return []  # seeded stdlib Random is deterministic
            return [
                self.finding(
                    sf,
                    node,
                    f"stdlib random.{parts[1]}() has no seed provenance; "
                    "use a trial-seeded numpy Generator",
                )
            ]
        return []


class WallClockRule(Rule):
    """DET002: wall-clock reads outside the explicit allowlist."""

    code = "DET002"
    name = "wall-clock"
    description = (
        "time.time()/datetime.now() outside the allowlist can leak "
        "timestamps into fingerprinted payloads"
    )

    def check_file(self, sf: SourceFile, config: LintConfig) -> List[Finding]:
        if sf.relpath in config.wallclock_allowlist:
            return []
        findings: List[Finding] = []
        aliases = import_aliases(sf.tree)
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolved_call_name(node, aliases)
            if resolved is None:
                continue
            hit = resolved in _WALLCLOCK or any(
                resolved.endswith(suffix) for suffix in _WALLCLOCK_SUFFIXES
            )
            if hit:
                findings.append(
                    self.finding(
                        sf,
                        node,
                        f"wall-clock read {resolved}() outside the "
                        "allowlist; use perf_counter() for timing or "
                        "move the stamp into an allowlisted module",
                    )
                )
        return findings
