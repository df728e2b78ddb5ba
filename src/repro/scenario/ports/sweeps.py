"""Sweep-engine experiments as scenarios: Table II, Table III, Figure 7.

The port is bit-identical by construction: the transmitter component
publishes the *same* :class:`~repro.sweep.spec.SweepSpec` the
experiment harness builds, the power model plans it along the same
k_power -> k_capture key DAG, and the receiver executes it through
:func:`~repro.sweep.engine.run_sweep` - so every record (bits digests,
BER, RNG digests) matches the pre-framework harness exactly.  What the
framework adds is the declarative decomposition, the conformance
contract, and chain-key publication for the coherence checks.
"""

from __future__ import annotations

from typing import List

from ...params import SimProfile, TINY
from ...sweep import plan_sweep, run_sweep
from ...sweep.spec import SweepSpec
from ..component import Component, ScenarioContext
from ..registry import ScenarioSpec, register_scenario

#: The slot layout shared by every sweep-backed scenario.
SWEEP_SLOTS = (
    ("transmitter", "covert-sweep-source"),
    ("power", "sweep-key-dag"),
    ("channel", "sweep-em-audit"),
    ("receiver", "sweep-receiver"),
    ("countermeasure", "no-countermeasure"),
)


class SweepSource(Component):
    """Publishes the sweep spec - the digital/transmit description of
    every trial (machines, seeds, payloads, rates, framing)."""

    slot = "transmitter"
    name = "covert-sweep-source"
    provides = ("sweep.spec",)

    def __init__(self, spec: SweepSpec):
        self.spec = spec

    def setup(self, ctx: ScenarioContext) -> None:
        ctx.publish(self, "sweep.spec", self.spec)
        ctx.gauge("transmitter.trials", len(self.spec.trials()))


class SweepChainPlanner(Component):
    """The PMU/VRM power model through the key-DAG planner: fingerprints
    every trial's chain without running it and publishes the plan."""

    slot = "power"
    name = "sweep-key-dag"
    provides = ("sweep.plan",)
    requires = ("sweep.spec",)

    def run(self, ctx: ScenarioContext) -> None:
        plan = plan_sweep(ctx.get("sweep.spec"))
        ctx.publish(self, "sweep.plan", plan)
        for tp in plan.trials:
            ctx.add_chain_keys(tp.keys)
        ctx.gauge("sweep.plan.trials", plan.n_trials)
        ctx.gauge("sweep.plan.stage_runs", plan.planned_stage_runs)
        ctx.gauge("sweep.plan.sharing_factor", plan.sharing_factor)


class SweepChannelAudit(Component):
    """The EM-channel slot for sweep scenarios: audits the capture
    topology (how many distinct propagation environments the grid
    expands to) from the plan's capture nodes."""

    slot = "channel"
    name = "sweep-em-audit"
    provides = ("sweep.channel",)
    requires = ("sweep.plan",)

    def run(self, ctx: ScenarioContext) -> None:
        plan = ctx.get("sweep.plan")
        captures = [n for n in plan.nodes if n.stage == "capture"]
        summary = {
            "capture_nodes": len(captures),
            "max_fan_out": max(
                (len(n.children) for n in captures), default=0
            ),
        }
        ctx.publish(self, "sweep.channel", summary)
        ctx.gauge("channel.capture_nodes", summary["capture_nodes"])


class SweepReceiver(Component):
    """Executes the plan through the sweep engine and records every
    trial's deterministic result."""

    slot = "receiver"
    name = "sweep-receiver"
    provides = ("sweep.outcome",)
    requires = ("sweep.spec", "sweep.plan")

    def run(self, ctx: ScenarioContext) -> None:
        outcome = run_sweep(ctx.get("sweep.spec"), plan=ctx.get("sweep.plan"))
        ctx.publish(self, "sweep.outcome", outcome)
        for record in outcome.records:
            ctx.add_record(
                {
                    "label": record["label"] or record["trial_id"][:12],
                    "digest": record["result"]["bits_sha"],
                    "rng": record["result"]["rng"],
                    "trial_id": record["trial_id"],
                    "trial": record["trial"],
                    "keys": record["keys"],
                    "result": record["result"],
                }
            )
        ctx.gauge("receiver.trials", len(outcome.records))


class SweepNoCountermeasure(Component):
    """Explicit empty countermeasure slot for sweep scenarios."""

    slot = "countermeasure"
    name = "no-countermeasure"
    provides = ("sweep.countermeasure",)

    def setup(self, ctx: ScenarioContext) -> None:
        ctx.publish(self, "sweep.countermeasure", None)


def sweep_components(spec: SweepSpec) -> List[Component]:
    """The standard component set around a ready sweep spec."""
    return [
        SweepSource(spec),
        SweepChainPlanner(),
        SweepChannelAudit(),
        SweepReceiver(),
        SweepNoCountermeasure(),
    ]


def table2_components(
    profile: SimProfile = TINY, quick: bool = True, seed: int = 0
) -> List[Component]:
    from ...experiments.table2_near_field import sweep_spec

    return sweep_components(sweep_spec(profile, quick, seed))


def table3_components(
    profile: SimProfile = TINY, quick: bool = True, seed: int = 0
) -> List[Component]:
    from ...experiments.table3_distance import sweep_spec

    return sweep_components(sweep_spec(profile, quick, seed))


def fig7_components(
    profile: SimProfile = TINY, quick: bool = True, seed: int = 0
) -> List[Component]:
    from ...experiments.fig7_threshold import sweep_spec

    return sweep_components(sweep_spec(profile, quick, seed))


@register_scenario(
    ScenarioSpec(
        name="table2",
        title="Table II: near-field covert channel on the six laptops",
        slots=SWEEP_SLOTS,
        tags=("chain", "sweep", "port"),
        default_seed=0,
    )
)
def build_table2(seed: int, quick: bool) -> List[Component]:
    return table2_components(TINY, quick, seed)


@register_scenario(
    ScenarioSpec(
        name="table3",
        title="Table III: covert channel vs distance, incl. through-wall",
        slots=SWEEP_SLOTS,
        tags=("chain", "sweep", "port"),
        default_seed=0,
    )
)
def build_table3(seed: int, quick: bool) -> List[Component]:
    return table3_components(TINY, quick, seed)


@register_scenario(
    ScenarioSpec(
        name="fig7",
        title="Figure 7: threshold selection across receiver variants",
        slots=SWEEP_SLOTS,
        tags=("chain", "sweep", "port"),
        default_seed=0,
    )
)
def build_fig7(seed: int, quick: bool) -> List[Component]:
    return fig7_components(TINY, quick, seed)
