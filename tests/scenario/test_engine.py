"""Framework semantics: resolution, lifecycle, publish discipline.

These tests use tiny synthetic components; the real scenarios are
covered by the registry-parametrized conformance suite
(``test_conformance.py``).
"""

import pytest

from repro.scenario.component import SLOTS, Component, ScenarioContext
from repro.scenario.dependency import DependencyError, resolve_order
from repro.scenario.engine import run_components
from repro.scenario.lifecycle import Lifecycle, LifecycleError
from repro.scenario.registry import (
    ScenarioSpec,
    build_components,
    register_scenario,
    run_registered,
    scenario_id,
)


def component(
    slot="transmitter", name="c", provides=(), requires=(), **hooks
):
    cls = type(
        "Synthetic",
        (Component,),
        {
            "slot": slot,
            "name": name,
            "provides": tuple(provides),
            "requires": tuple(requires),
            **hooks,
        },
    )
    return cls()


class TestResolveOrder:
    def test_ties_break_by_slot_then_name(self):
        comps = [
            component("receiver", "rx"),
            component("transmitter", "tx"),
            component("channel", "ch"),
        ]
        order = [c.name for c in resolve_order(comps)]
        assert order == ["tx", "ch", "rx"]
        reordered = [c.name for c in resolve_order(list(reversed(comps)))]
        assert reordered == order

    def test_requires_beats_slot_order(self):
        # The receiver provides what the transmitter requires, so the
        # canonical slot order is overridden by the data dependency.
        comps = [
            component("transmitter", "tx", requires=("cal",)),
            component("receiver", "rx", provides=("cal",)),
        ]
        assert [c.name for c in resolve_order(comps)] == ["rx", "tx"]

    def test_empty_scenario_rejected(self):
        with pytest.raises(DependencyError, match="at least one"):
            resolve_order([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(DependencyError, match="duplicate component"):
            resolve_order(
                [component(name="dup"), component("receiver", "dup")]
            )

    def test_duplicate_providers_rejected(self):
        with pytest.raises(DependencyError, match="provided by both"):
            resolve_order(
                [
                    component(name="a", provides=("r",)),
                    component("receiver", "b", provides=("r",)),
                ]
            )

    def test_missing_provider_rejected(self):
        with pytest.raises(DependencyError, match="no component provides"):
            resolve_order([component(name="a", requires=("ghost",))])

    def test_cycle_rejected(self):
        comps = [
            component(name="a", provides=("x",), requires=("y",)),
            component("receiver", "b", provides=("y",), requires=("x",)),
        ]
        with pytest.raises(DependencyError, match="cycle"):
            resolve_order(comps)

    def test_unknown_slot_rejected(self):
        with pytest.raises(DependencyError, match="unknown slot"):
            resolve_order([component(slot="antenna")])

    def test_provides_requires_overlap_rejected(self):
        with pytest.raises(DependencyError, match="provides and requires"):
            resolve_order(
                [component(name="a", provides=("r",), requires=("r",))]
            )


class TestPublishDiscipline:
    def test_undeclared_publish_rejected(self):
        ctx = ScenarioContext("t", seed=0)
        with pytest.raises(ValueError, match="declares provides"):
            ctx.publish(component(name="a"), "sneaky", 1)

    def test_double_publish_rejected(self):
        ctx = ScenarioContext("t", seed=0)
        a = component(name="a", provides=("r",))
        ctx.publish(a, "r", 1)
        with pytest.raises(ValueError, match="write-once"):
            ctx.publish(a, "r", 2)

    def test_missing_resource_names_what_exists(self):
        ctx = ScenarioContext("t", seed=0)
        ctx.publish(component(name="a", provides=("r",)), "r", 1)
        with pytest.raises(KeyError, match="available: r"):
            ctx.get("ghost")

    def test_record_requires_label_and_digest(self):
        ctx = ScenarioContext("t", seed=0)
        with pytest.raises(ValueError, match="missing 'digest'"):
            ctx.add_record({"label": "x"})
        with pytest.raises(ValueError, match="missing 'label'"):
            ctx.add_record({"digest": "x"})


class TestLifecycle:
    def test_strict_phase_order(self):
        lc = Lifecycle()
        assert lc.phase == "configured"
        for phase in ("setup", "run", "teardown", "complete"):
            lc.advance(phase)
        assert lc.complete

    def test_skipping_a_phase_rejected(self):
        lc = Lifecycle()
        with pytest.raises(LifecycleError, match="next phase is 'setup'"):
            lc.advance("run")

    def test_advancing_past_complete_rejected(self):
        lc = Lifecycle()
        for phase in ("setup", "run", "teardown", "complete"):
            lc.advance(phase)
        with pytest.raises(LifecycleError):
            lc.advance("setup")

    def test_require_asserts_current_phase(self):
        lc = Lifecycle()
        lc.require("configured")
        with pytest.raises(LifecycleError, match="expected phase 'run'"):
            lc.require("run")


class TestEngine:
    def test_teardown_runs_on_failure_in_reverse_order(self):
        log = []

        def make(slot, name, fail=False):
            def run(self, ctx):
                if fail:
                    raise RuntimeError("boom")

            return component(
                slot,
                name,
                run=run,
                teardown=lambda self, ctx: log.append(name),
            )

        comps = [
            make("transmitter", "tx"),
            make("receiver", "rx", fail=True),
        ]
        with pytest.raises(RuntimeError, match="boom"):
            run_components("t", comps, seed=0)
        # Both components completed setup, so both tear down - consumers
        # first.
        assert log == ["rx", "tx"]

    def test_setup_failure_tears_down_only_entered(self):
        log = []

        def failing_setup(self, ctx):
            raise RuntimeError("no antenna")

        comps = [
            component(
                "transmitter",
                "tx",
                teardown=lambda self, ctx: log.append("tx"),
            ),
            component(
                "receiver",
                "rx",
                setup=failing_setup,
                teardown=lambda self, ctx: log.append("rx"),
            ),
        ]
        with pytest.raises(RuntimeError, match="no antenna"):
            run_components("t", comps, seed=0)
        assert log == ["tx"]

    def test_outcome_shape_and_builtin_gauges(self):
        outcome = run_components("t", [component(name="only")], seed=3)
        assert outcome.name == "t"
        assert outcome.seed == 3
        assert outcome.order == ["only"]
        assert outcome.metrics["scenario.components"] == 1.0
        assert outcome.metrics["scenario.records"] == 0.0
        comparable = outcome.comparable()
        assert "elapsed_s" not in comparable

    def test_components_communicate_through_resources(self):
        def publish(self, ctx):
            ctx.publish(self, "payload", [1, 2, 3])

        def consume(self, ctx):
            ctx.add_record(
                {"label": "sum", "digest": str(sum(ctx.get("payload")))}
            )

        comps = [
            component("receiver", "rx", requires=("payload",), run=consume),
            component("transmitter", "tx", provides=("payload",), run=publish),
        ]
        outcome = run_components("t", comps, seed=0)
        assert outcome.record_for("sum")["digest"] == "6"


class TestRuntimeContracts:
    """While a hook runs, the context enforces the component's
    declarations; outside a hook it is an unrestricted read surface."""

    def _pair(self, consume):
        def publish(self, ctx):
            ctx.publish(self, "payload", [1, 2, 3])
            ctx.publish(self, "extra", 4)

        return [
            component(
                "transmitter", "tx", provides=("payload", "extra"),
                run=publish,
            ),
            component("receiver", "rx", requires=("payload",), run=consume),
        ]

    def test_undeclared_read_rejected(self):
        def consume(self, ctx):
            ctx.get("extra")

        with pytest.raises(KeyError, match="'rx' read 'extra'"):
            run_components("t", self._pair(consume), seed=0)

    @pytest.mark.parametrize("method", ["rng", "derive_seed"])
    def test_foreign_stream_rejected(self, method):
        def consume(self, ctx):
            getattr(ctx, method)(comps[0])

        comps = self._pair(consume)
        with pytest.raises(ValueError, match="stream of 'tx'"):
            run_components("t", comps, seed=0)

    def test_declared_reads_own_stream_and_reads_after_the_run(self):
        seen = {}

        def consume(self, ctx):
            seen["ctx"] = ctx
            assert ctx.has("extra")  # probes are unrestricted
            ctx.rng(self).integers(1 << 30)  # its own stream is fine
            ctx.add_record(
                {"label": "sum", "digest": str(sum(ctx.get("payload")))}
            )

        outcome = run_components("t", self._pair(consume), seed=0)
        assert outcome.record_for("sum")["digest"] == "6"
        ctx = seen["ctx"]
        assert ctx.running is None
        # The harness reads anything once no hook is running.
        assert ctx.get("extra") == 4
        assert ctx.rng(component(name="rx")) is not None

    def test_running_is_cleared_when_a_hook_raises(self):
        seen = {}

        def consume(self, ctx):
            seen["ctx"] = ctx
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            run_components("t", self._pair(consume), seed=0)
        assert seen["ctx"].running is None
        assert seen["ctx"].get("extra") == 4


class TestRegistry:
    def test_factory_spec_cross_check(self):
        spec = ScenarioSpec(
            name="test-engine-mismatch",
            title="spec/factory drift",
            slots=(("transmitter", "tx"), ("receiver", "rx")),
        )

        @register_scenario(spec)
        def build(seed, quick):
            return [component("transmitter", "tx")]  # rx missing

        with pytest.raises(ValueError, match="spec declares"):
            build_components("test-engine-mismatch", seed=0)

    def test_conflicting_reregistration_rejected(self):
        spec = ScenarioSpec(
            name="test-engine-conflict",
            title="one",
            slots=(("transmitter", "tx"),),
        )
        register_scenario(spec)(lambda seed, quick: [component(name="tx")])
        # Identical spec: idempotent no-op.
        register_scenario(spec)(lambda seed, quick: [component(name="tx")])
        clashing = ScenarioSpec(
            name="test-engine-conflict",
            title="two",
            slots=(("transmitter", "tx"),),
        )
        with pytest.raises(ValueError, match="different spec"):
            register_scenario(clashing)(lambda s, q: [])

    def test_run_registered_uses_default_seed(self):
        seen = {}
        spec = ScenarioSpec(
            name="test-engine-seed",
            title="default seed plumbing",
            slots=(("transmitter", "tx"),),
            default_seed=42,
        )

        @register_scenario(spec)
        def build(seed, quick):
            seen["seed"] = seed
            return [component(name="tx")]

        outcome = run_registered("test-engine-seed")
        assert seen["seed"] == 42
        assert outcome.seed == 42
        assert run_registered("test-engine-seed", seed=5).seed == 5

    def test_scenario_id_is_stable_and_content_addressed(self):
        spec = ScenarioSpec(
            name="s", title="t", slots=(("transmitter", "tx"),)
        )
        same = ScenarioSpec(
            name="s", title="t", slots=(("transmitter", "tx"),)
        )
        other = ScenarioSpec(
            name="s", title="t2", slots=(("transmitter", "tx"),)
        )
        assert scenario_id(spec) == scenario_id(same)
        assert scenario_id(spec) != scenario_id(other)
        assert len(scenario_id(spec)) == 64

    def test_slots_constant_matches_component_contract(self):
        assert SLOTS == (
            "transmitter",
            "power",
            "channel",
            "receiver",
            "countermeasure",
        )
