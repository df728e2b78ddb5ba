"""CACHE001: cache-schema drift.

The key-relevant dataclass *shapes* are part of the chain cache key
only implicitly (a new field changes every digest), so any change to
the fingerprinted dataclass graph must be accompanied by a
``CHAIN_SCHEMA`` bump; otherwise a disk cache written by the old code
is silently consulted with keys computed by the new code (or vice versa
after a revert, which is the dangerous direction: same key, different
physics).

The rule checks that contract against a committed manifest
(``repro/lint/chain_schema.json``) recording the schema tag and the
transitive field lists; ``repro lint --update-schema`` regenerates it
after an intentional, schema-bumped change.  Key *coverage* - every
physics input reaching its stage key - is checked by running the chain
(``tests/exec/test_key_coverage.py``), not statically.
"""

from __future__ import annotations

import json
from typing import Dict, List

from ..config import LintConfig
from ..findings import Finding
from ..project import Project
from .base import Rule

MANIFEST_SCHEMA = "repro-lint-chain-schema-v1"


def compute_schema_manifest(
    project: Project, config: LintConfig
) -> Dict[str, object]:
    """The manifest the shipped tree should match (see module docstring)."""
    schema = project.module_constant(
        config.schema_const_module, config.schema_const_name
    )
    closure = project.expand_dataclass_graph(list(config.tracked_dataclasses))
    return {
        "schema": MANIFEST_SCHEMA,
        "chain_schema": schema,
        "dataclasses": {
            key: closure[key].fields for key in sorted(closure)
        },
    }


class CacheSchemaRule(Rule):
    """CACHE001: schema-bump discipline against the manifest."""

    code = "CACHE001"
    name = "cache-schema-drift"
    description = (
        "fingerprinted dataclass changes must bump CHAIN_SCHEMA and "
        "refresh the manifest"
    )

    def check_project(
        self, project: Project, config: LintConfig
    ) -> List[Finding]:
        current = compute_schema_manifest(project, config)
        manifest_path = project.root / config.schema_manifest
        if not manifest_path.exists():
            return [
                self.finding(
                    config.schema_manifest,
                    1,
                    "chain-schema manifest missing; run "
                    "`repro lint --update-schema` to record the "
                    "fingerprinted dataclass shapes",
                )
            ]
        try:
            recorded = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            return [
                self.finding(
                    config.schema_manifest,
                    1,
                    "chain-schema manifest unreadable; regenerate with "
                    "`repro lint --update-schema`",
                )
            ]
        findings: List[Finding] = []
        schema_bumped = recorded.get("chain_schema") != current["chain_schema"]
        recorded_shapes = recorded.get("dataclasses", {})
        current_shapes = current["dataclasses"]
        drifted = sorted(
            key
            for key in set(recorded_shapes) | set(current_shapes)
            if recorded_shapes.get(key) != current_shapes.get(key)
        )
        for key in drifted:
            relpath, _, class_name = key.partition(":")
            lineno = 1
            info_map = project.dataclasses_in(relpath)
            if class_name in info_map:
                lineno = info_map[class_name].lineno
            anchor = project.get(relpath)
            before = recorded_shapes.get(key)
            after = current_shapes.get(key)
            if schema_bumped:
                message = (
                    f"fingerprinted dataclass {class_name} changed "
                    f"({before} -> {after}); CHAIN_SCHEMA was bumped - "
                    "refresh the manifest with `repro lint --update-schema`"
                )
            else:
                message = (
                    f"fingerprinted dataclass {class_name} changed "
                    f"({before} -> {after}) without a "
                    f"{config.schema_const_name} bump; old disk-cache "
                    "entries would collide with new-physics keys"
                )
            findings.append(
                self.finding(anchor or relpath, lineno, message)
            )
        if schema_bumped and not drifted:
            findings.append(
                self.finding(
                    config.schema_manifest,
                    1,
                    f"{config.schema_const_name} is now "
                    f"{current['chain_schema']!r} but the manifest "
                    f"records {recorded.get('chain_schema')!r}; refresh "
                    "with `repro lint --update-schema`",
                )
            )
        return findings
