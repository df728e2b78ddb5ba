"""Batch experiment runner used by the CLI and the bench harness."""

from __future__ import annotations

import time
from contextlib import ExitStack
from typing import Iterable, List, Optional

from ..exec.context import execution_scope
from ..obs.metrics import flatten, metrics_scope
from ..obs.trace import collect_span_times, format_timings, trace_event
from ..params import SimProfile
from .common import (
    ExperimentResult,
    default_seed,
    get_experiment,
    list_experiments,
)


def run_experiments(
    experiment_ids: Optional[Iterable[str]] = None,
    profile: Optional[SimProfile] = None,
    quick: bool = True,
    seed: Optional[int] = None,
    echo=print,
    jobs: Optional[int] = None,
    manifest_dir: Optional[str] = None,
) -> List[ExperimentResult]:
    """Run a set of experiments and echo their rendered tables.

    ``experiment_ids`` of None runs every paper experiment; an id may
    also name a registered scenario (see :func:`get_experiment`).  Each
    experiment picks its own default profile when ``profile`` is None
    (keystroke experiments use frequency scaling, the rest use time
    dilation), and its own seed when ``seed`` is None
    (:func:`default_seed`).

    ``jobs`` overrides the worker count for the duration of the batch;
    None inherits the active execution config, which is where the CLI
    puts its cache and tracing flags.  Trial fan-out happens *inside*
    each experiment (rows, repetitions, page loads), so progress still
    streams one experiment at a time and a fixed seed gives
    bit-identical tables at any worker count.

    Every result carries a run manifest and the flattened
    signal-quality metrics collected during its run; ``manifest_dir``
    additionally writes each manifest as
    ``<dir>/<experiment>.manifest.json``.
    """
    from ..obs.manifest import build_manifest, manifest_path, write_manifest

    ids = list(experiment_ids) if experiment_ids is not None else list_experiments()
    results: List[ExperimentResult] = []
    with ExitStack() as stack:
        if jobs is not None:
            stack.enter_context(execution_scope(jobs=jobs))
        for eid in ids:
            fn = get_experiment(eid)
            seed_used = default_seed(eid) if seed is None else seed
            trace_event(
                "experiment", phase="start", experiment=eid, seed=seed_used
            )
            started = time.perf_counter()
            with collect_span_times() as times, metrics_scope() as registry:
                if profile is None:
                    result = fn(quick=quick, seed=seed_used)
                else:
                    result = fn(profile=profile, quick=quick, seed=seed_used)
            elapsed = time.perf_counter() - started
            snapshot = registry.snapshot()
            result.timings = dict(times)
            result.metrics = flatten(snapshot)
            result.manifest = build_manifest(
                experiment_id=eid,
                title=result.title,
                profile=profile,
                seed=seed_used,
                quick=quick,
                rows=result.rows,
                timings=result.timings,
                metrics_snapshot=snapshot,
                elapsed_s=elapsed,
            )
            if manifest_dir is not None:
                path = write_manifest(
                    result.manifest, manifest_path(manifest_dir, eid)
                )
                echo(f"[manifest written to {path}]")
            trace_event(
                "experiment",
                phase="end",
                experiment=eid,
                elapsed_s=round(elapsed, 3),
                n_rows=len(result.rows),
            )
            results.append(result)
            echo(result.render())
            summary = f"[{eid} finished in {elapsed:.1f}s"
            if times:
                summary += (
                    f"; {sum(times.values()):.1f}s in spans "
                    f"({format_timings(times)})"
                )
            echo(summary + "]")
            echo("")
    return results
