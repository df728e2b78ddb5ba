"""Experiment harness shared infrastructure.

Every table/figure in the paper has a module here exposing

    run(profile: SimProfile = ..., quick: bool = True, seed: int = 0)
        -> ExperimentResult

``quick`` trades statistical weight (bits per run, number of runs,
words typed) for speed; benchmarks and tests use quick mode, the CLI's
``--full`` flag turns it off.  Results render as aligned text tables so
``python -m repro run <experiment>`` reproduces the paper's artifact
as terminal output.  A registered scenario name runs through the same
harness (:func:`run_scenario`), so ``run`` reports both alike.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..exec.timing import format_timings


@dataclass
class ExperimentResult:
    """One regenerated table or figure."""

    experiment_id: str
    title: str
    rows: List[dict]
    notes: List[str] = field(default_factory=list)
    #: Wall-clock seconds per chain stage (pmu/vrm/emission/...), as
    #: collected by the runner; includes time spent in worker processes.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Flattened signal-quality metrics collected during the run
    #: (see :mod:`repro.obs.metrics`); filled in by the runner.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: The run manifest (see :mod:`repro.obs.manifest`); filled in by
    #: the runner and written next to ``--output`` when requested.
    manifest: Optional[dict] = None

    def columns(self) -> List[str]:
        cols: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def render(self) -> str:
        """Plain-text table in the paper's row order."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        cols = self.columns()
        if self.rows:
            formatted = [
                {c: _format(row.get(c, "")) for c in cols} for row in self.rows
            ]
            widths = {
                c: max(len(c), *(len(r[c]) for r in formatted)) for c in cols
            }
            header = "  ".join(c.ljust(widths[c]) for c in cols)
            lines.append(header)
            lines.append("-" * len(header))
            for r in formatted:
                lines.append("  ".join(r[c].ljust(widths[c]) for c in cols))
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.timings:
            lines.append(f"stage timings: {format_timings(self.timings)}")
        return "\n".join(lines)


def _format(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 0.01 or abs(value) >= 100000:
            return f"{value:.2e}"
        return f"{value:.4g}"
    return str(value)


#: Registry of experiment id -> run callable, populated by the modules.
REGISTRY: Dict[str, Callable] = {}


def register(experiment_id: str):
    """Class/function decorator adding a run() callable to the registry."""

    def wrap(fn):
        REGISTRY[experiment_id] = fn
        return fn

    return wrap


def list_experiments() -> List[str]:
    """All registered experiment ids (import side effects included)."""
    from . import (  # noqa: F401  (imported for registration side effects)
        background_activity,
        countermeasures,
        fig2_spectrogram,
        fig4_envelope,
        fig5_edges,
        fig6_pulsewidth,
        fig7_threshold,
        fig8_insertion_deletion,
        fig9_comparison,
        fig11_keylog_spectrogram,
        fingerprint_websites,
        sec3_state_disable,
        table2_near_field,
        table3_distance,
        table4_keylogging,
    )

    return sorted(REGISTRY)


def get_experiment(experiment_id: str) -> Callable:
    """The run callable for a paper experiment or a registered scenario.

    An experiment id wins: ``table2``, ``table3`` and ``fig7`` name
    both, and those experiments run that same scenario and render its
    table.  A scenario-only name (``clockmod-fsk``, ...) runs through
    :func:`run_scenario`.
    """
    from ..scenario import get_scenario, list_scenarios

    list_experiments()
    if experiment_id in REGISTRY:
        return REGISTRY[experiment_id]
    try:
        get_scenario(experiment_id)
    except KeyError:
        scenarios = [s for s in list_scenarios() if s not in REGISTRY]
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{', '.join(sorted(REGISTRY))}; scenarios: {', '.join(scenarios)}"
        ) from None
    return functools.partial(run_scenario, experiment_id)


def default_seed(experiment_id: str) -> int:
    """The seed an id runs at when none is given: 0 for a paper
    experiment, the registered ``default_seed`` for a scenario."""
    from ..scenario import get_scenario

    if experiment_id in list_experiments():
        return 0
    return get_scenario(experiment_id).spec.default_seed


def run_scenario(name: str, quick: bool = True, seed: int = 0) -> ExperimentResult:
    """A registered scenario as an experiment: one row per record (its
    digest), then one per gauge."""
    from ..scenario import get_scenario, run_registered, scenario_id

    spec = get_scenario(name).spec
    outcome = run_registered(name, seed=seed, quick=quick)
    rows = [
        {"name": f"record {r['label']}", "value": r["digest"]}
        for r in outcome.records
    ]
    rows += [
        {"name": key, "value": f"{outcome.metrics[key]:g}"}
        for key in sorted(outcome.metrics)
    ]
    return ExperimentResult(
        experiment_id=name,
        title=spec.title,
        rows=rows,
        notes=[
            f"scenario id {scenario_id(spec)[:16]}, seed {outcome.seed}; "
            f"components: {' -> '.join(outcome.order)}"
        ],
    )
