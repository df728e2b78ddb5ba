"""Rule registry: one instance of every shipped rule."""

from __future__ import annotations

from typing import Dict, List

from .base import Rule
from .concurrency import RawStoreWriteRule
from .determinism import UnseededRandomRule, WallClockRule
from .floats import FloatEqualityRule

__all__ = [
    "Rule",
    "RawStoreWriteRule",
    "UnseededRandomRule",
    "WallClockRule",
    "FloatEqualityRule",
    "all_rules",
    "rules_by_code",
]


def all_rules() -> List[Rule]:
    """Fresh instances of every shipped rule, in catalog order."""
    return [
        UnseededRandomRule(),
        WallClockRule(),
        RawStoreWriteRule(),
        FloatEqualityRule(),
    ]


def rules_by_code() -> Dict[str, Rule]:
    return {rule.code: rule for rule in all_rules()}
