"""The component contract and the context components share.

A :class:`Component` fills one *slot* of a scenario (transmitter,
power-model, channel, receiver, countermeasure), declares the resources
it ``provides`` and ``requires``, and implements up to three lifecycle
hooks - ``setup`` (publish configuration), ``run`` (do the work),
``teardown`` (release anything held).  Components never talk to each
other directly: everything flows through resources published on the
:class:`ScenarioContext`, which is what makes the dependency graph
explicit and the execution order canonical.

Randomness discipline: a component draws only from ``ctx.rng(self)`` -
its own named stream, derived from the scenario seed
(:mod:`repro.scenario.randomness`) - so no component's draws can
perturb another's.

Both contracts are checked at run time: while the engine runs a
component's hook (:attr:`ScenarioContext.running`), reading a resource
the component did not declare raises :class:`KeyError`, and asking for
another component's stream raises :class:`ValueError`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import get_metrics
from .randomness import RandomnessStreams

#: The scenario slots, in presentation (and canonical ordering) order.
SLOTS = ("transmitter", "power", "channel", "receiver", "countermeasure")


class Component:
    """Base class for scenario components.

    Subclasses set ``slot`` / ``name`` / ``provides`` / ``requires`` as
    class attributes (or per instance) and override the hooks they
    need.  ``name`` doubles as the component's randomness-stream name,
    so it must be unique within a scenario.
    """

    slot: str = "transmitter"
    name: str = "component"
    provides: Tuple[str, ...] = ()
    requires: Tuple[str, ...] = ()

    def setup(self, ctx: "ScenarioContext") -> None:
        """Publish configuration resources; no heavy work."""

    def run(self, ctx: "ScenarioContext") -> None:
        """Do the component's work; every ``requires`` is available."""

    def teardown(self, ctx: "ScenarioContext") -> None:
        """Release held state (runs in reverse dependency order)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.slot}/{self.name}>"


class ScenarioContext:
    """Everything a scenario run shares between its components.

    Resources are write-once: a component may publish only names it
    declared in ``provides``, and no name twice - so the dependency
    resolver's picture of the graph is always the truth.  While a hook
    runs, the component may read only names it ``requires`` or
    ``provides``; ``has()`` probes and reads from outside a hook (the
    harness, after the run) are unrestricted.
    """

    def __init__(self, scenario: str, seed: int, quick: bool = True):
        self.scenario = scenario
        self.seed = int(seed)
        self.quick = bool(quick)
        self.streams = RandomnessStreams(seed)
        self.records: List[Dict[str, Any]] = []
        self.rows: List[Dict[str, Any]] = []
        self.metrics: Dict[str, float] = {}
        self.chain_keys: List[Tuple[Tuple[str, str], ...]] = []
        self._resources: Dict[str, Any] = {}
        self._owners: Dict[str, str] = {}
        #: The component whose hook the engine is executing, if any.
        self.running: Optional[Component] = None

    # -- randomness --------------------------------------------------------

    def rng(self, component: Component) -> np.random.Generator:
        """The component's own randomness stream (named by the component)."""
        self._check_own_stream(component)
        return self.streams.stream(component.name)

    def derive_seed(self, component: Component, purpose: str = "") -> int:
        """A derived integer seed for sub-harnesses the component drives."""
        self._check_own_stream(component)
        name = f"{component.name}.{purpose}" if purpose else component.name
        return self.streams.derive_seed(name)

    def _check_own_stream(self, component: Component) -> None:
        running = self.running
        if running is not None and component is not running:
            raise ValueError(
                f"component {running.name!r} asked for the randomness "
                f"stream of {component.name!r}; a component draws only "
                "from its own stream"
            )

    # -- resources ---------------------------------------------------------

    def publish(self, component: Component, name: str, value: Any) -> None:
        if name not in component.provides:
            raise ValueError(
                f"component {component.name!r} tried to publish {name!r} "
                f"but declares provides={component.provides!r}"
            )
        if name in self._resources:
            raise ValueError(
                f"resource {name!r} already published by "
                f"{self._owners[name]!r}; resources are write-once"
            )
        self._resources[name] = value
        self._owners[name] = component.name

    def get(self, name: str) -> Any:
        running = self.running
        if (
            running is not None
            and name not in running.requires
            and name not in running.provides
        ):
            raise KeyError(
                f"component {running.name!r} read {name!r} but declares "
                f"requires={running.requires!r}"
            )
        try:
            return self._resources[name]
        except KeyError:
            known = ", ".join(sorted(self._resources)) or "(none)"
            raise KeyError(
                f"resource {name!r} not published (available: {known})"
            )

    def has(self, name: str) -> bool:
        return name in self._resources

    def resources(self) -> Dict[str, Any]:
        return dict(self._resources)

    # -- outputs -----------------------------------------------------------

    def add_record(self, record: Dict[str, Any]) -> None:
        """Append one deterministic result record.

        Records are the conformance suite's equality surface: they must
        contain a ``label`` and a ``digest`` and nothing
        non-deterministic (no timings, no ids).
        """
        for field in ("label", "digest"):
            if field not in record:
                raise ValueError(f"scenario record missing {field!r}: {record}")
        self.records.append(record)

    def add_row(self, row: Dict[str, Any]) -> None:
        self.rows.append(row)

    def add_chain_keys(self, keys: Any) -> None:
        """Register one trial's chain-key DAG path (a ``ChainKeys`` or an
        explicit ``((stage, key), ...)`` sequence)."""
        if hasattr(keys, "stages"):
            stages: Sequence[Tuple[str, str]] = keys.stages()
        else:
            stages = keys
        self.chain_keys.append(tuple((str(s), str(k)) for s, k in stages))

    def gauge(self, name: str, value: float) -> None:
        """Record a scalar metric (and mirror it to any active registry)."""
        self.metrics[name] = float(value)
        registry = get_metrics()
        if registry is not None:
            registry.gauge(name).set(float(value))


def check_component(component: Component) -> Optional[str]:
    """Validate a component's static declaration; returns the problem or
    ``None``.  Used by the resolver and the conformance suite."""
    if component.slot not in SLOTS:
        return (
            f"component {component.name!r} has unknown slot "
            f"{component.slot!r}; known slots: {', '.join(SLOTS)}"
        )
    if not component.name:
        return "component has an empty name"
    overlap = set(component.provides) & set(component.requires)
    if overlap:
        return (
            f"component {component.name!r} both provides and requires "
            f"{sorted(overlap)}"
        )
    return None
