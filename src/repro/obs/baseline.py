"""Metric baselines: record once, compare on every ``make regress``.

The gate runs a small set of fixed-seed tier-1 scenarios through the
instrumented chain, flattens the collected signal-quality metrics, and
either records them to ``baselines/*.json`` or compares them against
the committed record with per-metric tolerances.  Any drift - a changed
burst rate, a shifted emission RMS, a lost dB of SNR - fails with a
per-metric diff, so an emission-path bug becomes red CI instead of a
silently wrong Table II/III/IV number.

Scenarios run serially with the chain cache disabled, so the recorded
numbers never depend on ambient execution state.  (The sweep-engine
scenario deliberately re-enables the cache over a fresh instance - the
engine's cache transparency is the property it pins.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from ..exec.cache import CHAIN_SCHEMA
from ..exec.context import execution_scope
from .metrics import flatten, metrics_scope

BASELINE_SCHEMA = "baseline-v1"

#: Default relative tolerance.  The scenarios are fully deterministic
#: under a fixed seed, but summary floats may wobble in the last ulps
#: across BLAS/FFT builds; 1e-6 absorbs that while catching any real
#: change (the acceptance bar is a 1% emission perturbation).
DEFAULT_REL_TOLERANCE = 1e-6
DEFAULT_ABS_TOLERANCE = 1e-12

#: Default location of the committed baselines, relative to the repo root.
DEFAULT_BASELINE_DIR = "baselines"


# ---------------------------------------------------------------------------
# Scenarios


def _chain_emission_tiny() -> Dict[str, float]:
    """Activity -> emission only: the cheapest end-to-end physics probe."""
    from ..chain import render_emission
    from ..params import TINY
    from ..systems.laptops import DELL_INSPIRON
    from ..types import ActivityTrace, Interval

    activity = ActivityTrace(
        [
            Interval(0.001, 0.004),
            Interval(0.006, 0.0085),
            Interval(0.010, 0.011, level=0.5),
        ],
        duration=0.012,
    )
    with metrics_scope() as registry:
        rng = np.random.default_rng(3)
        wave = render_emission(DELL_INSPIRON, activity, TINY, rng)
        registry.gauge("wave.samples").set(wave.size)
        registry.gauge("wave.abs_sum").set(float(np.abs(wave).sum()))
        return flatten(registry.snapshot())


def _covert_inspiron_tiny() -> Dict[str, float]:
    """One decoded near-field covert run (the conftest reference link)."""
    from ..covert.link import CovertLink
    from ..params import TINY
    from ..systems.laptops import DELL_INSPIRON

    payload = np.random.default_rng(99).integers(0, 2, size=100)
    link = CovertLink(machine=DELL_INSPIRON, profile=TINY, seed=5)
    with metrics_scope() as registry:
        result = link.run(payload)
        m = result.metrics
        registry.gauge("channel.ber").set(m.ber)
        registry.gauge("channel.insertion_probability").set(
            m.insertion_probability
        )
        registry.gauge("channel.deletion_probability").set(
            m.deletion_probability
        )
        registry.gauge("channel.transmission_rate_bps").set(
            result.transmission_rate_bps
        )
        return flatten(registry.snapshot())


def _keylog_quick_fox() -> Dict[str, float]:
    """One typed session through detection and scoring (Table IV path)."""
    from ..keylog.evaluate import KeylogExperiment

    with metrics_scope() as registry:
        result = KeylogExperiment(seed=2).run(text="the quick brown fox")
        registry.gauge("keylog.true_positive_rate").set(
            result.true_positive_rate
        )
        registry.gauge("keylog.false_positive_rate").set(
            result.false_positive_rate
        )
        registry.gauge("keylog.n_detected").set(result.n_detected)
        return flatten(registry.snapshot())


def _mux_mixed_tiny() -> Dict[str, float]:
    """A tiny mixed fleet through the streaming multiplexer.

    Six streams - covert, keylog, and clockmod slices with fixed seeds -
    run through the batched cross-stream DSP path.  One slice is
    deliberately under-budgeted (jitter-free, so the shed pattern is
    exact), pinning the drop/shed/gap ledger alongside the lossless
    slices' finalised decodes.  The decode digests are folded into
    gauges (first 8 hex digits as an integer), so any bit-level
    divergence between the batched path and the per-stream reference
    fails the gate, not just throughput-shaped drift.
    """
    from ..mux import (
        FleetStreamSpec,
        build_multiplexer,
        finalized_digests,
    )

    fleet = [
        FleetStreamSpec("stream-covert", count=2, duration_s=0.4),
        FleetStreamSpec("keylog", count=2, duration_s=0.4),
        FleetStreamSpec(
            "clockmod-fsk",
            count=2,
            duration_s=0.4,
            capacity=4,
            service_rate_factor=0.5,
            jitter_rel=0.0,
        ),
    ]
    with metrics_scope() as registry:
        mux, by_stream = build_multiplexer(
            fleet, chunk_size=512, tick_chunks=4
        )
        mux.run()
        mux.check_conservation()
        totals = mux.totals()
        for key in (
            "produced_chunks",
            "delivered_chunks",
            "dropped_chunks",
            "shed_chunks",
            "delivered_samples",
            "gap_samples",
        ):
            registry.gauge(f"mux.totals.{key}").set(totals[key])
        registry.gauge("mux.ticks").set(mux.ticks)
        registry.gauge("mux.shed_fraction").set(mux.shed_fraction())
        registry.gauge("mux.pool.high_watermark").set(
            mux.pool.high_watermark
        )
        for stream_id, digest in finalized_digests(mux, by_stream).items():
            registry.gauge(f"mux.digest.{stream_id}").set(
                int(digest[:8], 16)
            )
        return flatten(registry.snapshot())


def _sweep_table2_tiny() -> Dict[str, float]:
    """The Table II sweep through the key-DAG engine.

    Pins both the physics (pooled channel figures per machine) and the
    engine's topology accounting (trial count, stage dedup ratio), so a
    planner or scheduler change that perturbs any trial's bits - or
    silently stops sharing prefixes - fails the gate.  Unlike the other
    scenarios this one runs with the cache *enabled* (nested scope):
    cache transparency under the engine is exactly what it certifies.
    The cache is reset around the run so the recorded stage taps always
    reflect a cold start, independent of ambient cache state.
    """
    from ..exec.cache import reset_chain_cache
    from ..experiments.table2_near_field import sweep_spec
    from ..sweep import run_sweep

    with metrics_scope() as registry:
        reset_chain_cache()
        try:
            with execution_scope(cache_enabled=True):
                outcome = run_sweep(sweep_spec())
        finally:
            reset_chain_cache()
        for i, record in enumerate(outcome.records):
            r = record["result"]
            registry.gauge(f"sweep.trial{i}.bit_errors").set(r["bit_errors"])
            registry.gauge(f"sweep.trial{i}.received").set(r["received"])
            registry.gauge(f"sweep.trial{i}.tr_bps").set(r["tr_bps"])
        registry.gauge("sweep.plan.trials").set(outcome.plan.n_trials)
        registry.gauge("sweep.plan.stage_runs").set(
            outcome.plan.planned_stage_runs
        )
        registry.gauge("sweep.plan.sharing_factor").set(
            outcome.plan.sharing_factor
        )
        return flatten(registry.snapshot())


def _scenario_registry_run(name: str, seed: int) -> Dict[str, float]:
    """One registered scenario plugin at quick sizing.

    ``run_registered`` executes under the ambient (serial, uncached)
    config; every ``ctx.gauge`` a component records mirrors into the
    active registry, so the flattened snapshot pins the scenario's full
    metric surface - channel quality, receiver internals, and the
    engine's own component/record accounting.
    """
    from ..scenario import run_registered

    with metrics_scope() as registry:
        run_registered(name, seed=seed, quick=True)
        return flatten(registry.snapshot())


def _scenario_ichannels_tiny() -> Dict[str, float]:
    """IChannels-style throttling covert channel (arXiv 2106.05050)."""
    return _scenario_registry_run("ichannels-throttle", seed=7)


def _scenario_clockmod_tiny() -> Dict[str, float]:
    """Clock-modulation FSK covert channel (arXiv 2404.05823)."""
    return _scenario_registry_run("clockmod-fsk", seed=11)


def _stream_covert_tiny() -> Dict[str, float]:
    """The reference link replayed through the streaming receiver.

    The ``stream-covert`` scenario runs an intentionally slow service
    rate under drop-oldest, so the recorded numbers pin the whole
    streaming surface: chunk/lag/drop accounting, degradation shedding,
    online event flow, and the divergence of the lossy finalised decode
    from the clean batch bits.
    """
    return _scenario_registry_run("stream-covert", seed=5)


SCENARIOS: Dict[str, Callable[[], Dict[str, float]]] = {
    "chain-emission-tiny": _chain_emission_tiny,
    "covert-inspiron-tiny": _covert_inspiron_tiny,
    "keylog-quick-fox": _keylog_quick_fox,
    "mux-mixed-tiny": _mux_mixed_tiny,
    "scenario-clockmod-tiny": _scenario_clockmod_tiny,
    "scenario-ichannels-tiny": _scenario_ichannels_tiny,
    "stream-covert-tiny": _stream_covert_tiny,
    "sweep-table2-tiny": _sweep_table2_tiny,
}


def run_scenario(name: str) -> Dict[str, float]:
    """Execute one scenario under a pinned (serial, uncached) config."""
    try:
        fn = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown baseline scenario {name!r}; known: {known}")
    with execution_scope(jobs=1, cache_enabled=False):
        metrics = fn()
    # The batch.* instruments describe how trials were grouped into
    # kernel calls, not the physics.
    return {k: v for k, v in metrics.items() if not k.startswith("batch.")}


# ---------------------------------------------------------------------------
# Record / compare


def baseline_path(directory, scenario: str) -> Path:
    return Path(directory) / f"{scenario}.json"


def record(
    directory=DEFAULT_BASELINE_DIR,
    scenarios: Optional[Iterable[str]] = None,
) -> List[Path]:
    """Snapshot the scenarios' metrics into ``directory``."""
    import json

    names = list(scenarios) if scenarios is not None else sorted(SCENARIOS)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: List[Path] = []
    for name in names:
        payload = {
            "schema": BASELINE_SCHEMA,
            "chain_schema": CHAIN_SCHEMA,
            "scenario": name,
            "tolerance": {
                "rel_default": DEFAULT_REL_TOLERANCE,
                "abs_default": DEFAULT_ABS_TOLERANCE,
            },
            "metrics": run_scenario(name),
        }
        path = baseline_path(directory, name)
        with path.open("w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        paths.append(path)
    return paths


@dataclass(frozen=True)
class MetricDiff:
    """One out-of-tolerance metric."""

    metric: str
    expected: float
    actual: float

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.expected), 1e-30)
        return abs(self.actual - self.expected) / scale

    def render(self) -> str:
        return (
            f"{self.metric}: expected {self.expected!r}, got "
            f"{self.actual!r} (rel err {self.rel_error:.3g})"
        )


@dataclass
class ScenarioComparison:
    """Comparison outcome for one scenario."""

    scenario: str
    diffs: List[MetricDiff] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    extra: List[str] = field(default_factory=list)
    error: Optional[str] = None
    n_checked: int = 0

    @property
    def ok(self) -> bool:
        return not (self.diffs or self.missing or self.error)

    def render(self) -> str:
        if self.ok:
            note = f"{self.n_checked} metrics within tolerance"
            if self.extra:
                note += f"; {len(self.extra)} new metric(s) not in baseline"
            return f"ok   {self.scenario}: {note}"
        lines = [f"FAIL {self.scenario}:"]
        if self.error:
            lines.append(f"  error: {self.error}")
        for name in self.missing:
            lines.append(f"  missing metric (in baseline, not produced): {name}")
        for diff in self.diffs:
            lines.append(f"  {diff.render()}")
        return "\n".join(lines)


@dataclass
class BaselineReport:
    """All scenario comparisons from one ``compare`` call."""

    comparisons: List[ScenarioComparison]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.comparisons)

    def render(self) -> str:
        lines = [c.render() for c in self.comparisons]
        verdict = "regress: OK" if self.ok else "regress: FAILED"
        return "\n".join(lines + [verdict])


def compare_metrics(
    expected: Dict[str, float],
    actual: Dict[str, float],
    scenario: str,
    rel_tolerance: float = DEFAULT_REL_TOLERANCE,
    abs_tolerance: float = DEFAULT_ABS_TOLERANCE,
) -> ScenarioComparison:
    """Diff two flat metric dicts under the tolerance policy."""
    comparison = ScenarioComparison(scenario=scenario)
    for name, want in sorted(expected.items()):
        if name not in actual:
            comparison.missing.append(name)
            continue
        got = actual[name]
        comparison.n_checked += 1
        if abs(got - want) > abs_tolerance + rel_tolerance * abs(want):
            comparison.diffs.append(
                MetricDiff(metric=name, expected=want, actual=got)
            )
    comparison.extra = sorted(set(actual) - set(expected))
    return comparison


def compare(
    directory=DEFAULT_BASELINE_DIR,
    scenarios: Optional[Iterable[str]] = None,
) -> BaselineReport:
    """Re-run the scenarios and diff them against the recorded baselines."""
    import json

    directory = Path(directory)
    names = list(scenarios) if scenarios is not None else sorted(SCENARIOS)
    comparisons: List[ScenarioComparison] = []
    for name in names:
        path = baseline_path(directory, name)
        if not path.exists():
            comparisons.append(
                ScenarioComparison(
                    scenario=name,
                    error=(
                        f"no baseline at {path}; run the record mode "
                        "(python -m repro regress --record) and commit it"
                    ),
                )
            )
            continue
        with path.open() as handle:
            recorded = json.load(handle)
        if recorded.get("chain_schema") != CHAIN_SCHEMA:
            comparisons.append(
                ScenarioComparison(
                    scenario=name,
                    error=(
                        f"baseline recorded for chain schema "
                        f"{recorded.get('chain_schema')!r} but the code is "
                        f"{CHAIN_SCHEMA!r}; re-record after the schema bump"
                    ),
                )
            )
            continue
        tolerance = recorded.get("tolerance", {})
        comparisons.append(
            compare_metrics(
                recorded.get("metrics", {}),
                run_scenario(name),
                scenario=name,
                rel_tolerance=tolerance.get(
                    "rel_default", DEFAULT_REL_TOLERANCE
                ),
                abs_tolerance=tolerance.get(
                    "abs_default", DEFAULT_ABS_TOLERANCE
                ),
            )
        )
    return BaselineReport(comparisons=comparisons)
