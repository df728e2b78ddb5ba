"""The scenario registry: name -> (spec, component factory).

Registration is the whole integration surface: a registered scenario is
runnable from the CLI (``repro run NAME``), eligible for a
baseline under ``make regress``, and *automatically* covered by the
conformance suite (``tests/scenario/test_conformance.py`` parametrizes
over :func:`list_scenarios`), so a new plugin is tested by registration
alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..exec.cache import fingerprint
from .component import Component
from .engine import ScenarioOutcome, run_components

#: Bump when the meaning of a scenario spec changes: ``scenario_id``
#: fingerprints carry it, so ids can never alias across semantics.
SCENARIO_SCHEMA = "scenario-v1"


@dataclass(frozen=True)
class ScenarioSpec:
    """The declarative face of a scenario: which component fills each
    slot, plus registry metadata.

    ``slots`` is ``((slot, component name), ...)`` - documentation the
    resolver cross-checks at build time, so the spec can never drift
    from the factory's actual components.  ``tags`` drive conditional
    conformance checks (``"chain"``: publishes chain keys along the
    k_power -> k_capture DAG; ``"sweep"``: backed by the sweep engine).
    """

    name: str
    title: str
    slots: Tuple[Tuple[str, str], ...]
    tags: Tuple[str, ...] = ()
    default_seed: int = 0


def scenario_id(spec: ScenarioSpec) -> str:
    """Content-addressed identity of a scenario configuration."""
    return fingerprint(
        SCENARIO_SCHEMA, "scenario", dataclasses.asdict(spec)
    )


@dataclass(frozen=True)
class ScenarioInfo:
    """One registry entry."""

    spec: ScenarioSpec
    factory: Callable[[int, bool], Sequence[Component]]

    @property
    def name(self) -> str:
        return self.spec.name


_REGISTRY: Dict[str, ScenarioInfo] = {}


def register_scenario(
    spec: ScenarioSpec,
) -> Callable[[Callable[[int, bool], Sequence[Component]]], Callable]:
    """Decorator: register ``factory(seed, quick) -> components``.

    Re-registering the same name with an identical spec is a no-op
    (module re-imports are harmless); a conflicting spec is an error.
    """

    def decorate(factory: Callable[[int, bool], Sequence[Component]]):
        existing = _REGISTRY.get(spec.name)
        if existing is not None and existing.spec != spec:
            raise ValueError(
                f"scenario {spec.name!r} already registered with a "
                f"different spec"
            )
        _REGISTRY[spec.name] = ScenarioInfo(spec=spec, factory=factory)
        return factory

    return decorate


def get_scenario(name: str) -> ScenarioInfo:
    _load_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(f"unknown scenario {name!r}; known: {known}")


def list_scenarios() -> List[str]:
    _load_builtins()
    return sorted(_REGISTRY)


def build_components(
    name: str, seed: int, quick: bool = True
) -> List[Component]:
    """Instantiate a registered scenario's components and cross-check
    them against the spec's declared slots."""
    info = get_scenario(name)
    components = list(info.factory(seed, quick))
    declared = sorted(info.spec.slots)
    actual = sorted((c.slot, c.name) for c in components)
    if declared != actual:
        raise ValueError(
            f"scenario {name!r} factory built components {actual} but "
            f"the spec declares {declared}"
        )
    return components


def run_registered(
    name: str,
    *,
    seed: Optional[int] = None,
    quick: bool = True,
) -> ScenarioOutcome:
    """Build and execute a registered scenario."""
    info = get_scenario(name)
    if seed is None:
        seed = info.spec.default_seed
    components = build_components(name, seed, quick)
    return run_components(name, components, seed=seed, quick=quick)


def _load_builtins() -> None:
    from . import load_builtin_scenarios

    load_builtin_scenarios()
