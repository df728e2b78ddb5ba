"""Observability layer: tracing, metrics, manifests, regression gate.

Four cooperating modules that make the analog chain *inspectable* and
its physics *guarded*:

* :mod:`repro.obs.trace` - spans, the one timer.  Every chain stage,
  kernel, cache probe and pool event can emit a JSONL record (the CLI's
  ``--trace FILE``), and a span-time collector sums each span's self
  time (the experiment runner's summary line).  Free (one ContextVar
  read) when neither is installed.
* :mod:`repro.obs.metrics` - counters/gauges/histograms plus taps at
  each chain stage recording signal-quality figures (duty cycle, burst
  rate, shed fraction, emission RMS, SNR, clipping, Y[n] contrast,
  edge count).
* :mod:`repro.obs.manifest` - a per-run manifest (config fingerprint,
  seeds, profile snapshot, timings, metrics, schema tags) attached to
  every :class:`~repro.experiments.common.ExperimentResult` and written
  next to experiment outputs.
* :mod:`repro.obs.baseline` - ``make regress``: fixed-seed scenarios
  whose metrics are recorded into ``baselines/*.json`` and compared
  with per-metric tolerances on every run.

``trace`` and ``metrics`` are imported eagerly (they depend on nothing
above :mod:`numpy`); ``manifest`` and ``baseline`` are loaded lazily via
module ``__getattr__`` because they import :mod:`repro.exec`, which
itself emits trace events - an eager import here would be circular.
"""

from .metrics import (
    MetricsRegistry,
    flatten,
    get_metrics,
    metrics_active,
    metrics_scope,
)
from .trace import (
    Tracer,
    collect_events,
    merge_events,
    rng_digest,
    span,
    trace_event,
    tracing_active,
    tracing_scope,
)

_MANIFEST_NAMES = {
    "MANIFEST_SCHEMA",
    "build_manifest",
    "config_fingerprint",
    "manifest_path",
    "read_manifest",
    "write_manifest",
}
_BASELINE_NAMES = {
    "BaselineReport",
    "ScenarioComparison",
    "compare",
    "compare_metrics",
    "record",
    "run_scenario",
}

__all__ = sorted(
    {
        "MetricsRegistry",
        "Tracer",
        "collect_events",
        "flatten",
        "get_metrics",
        "merge_events",
        "metrics_active",
        "metrics_scope",
        "rng_digest",
        "span",
        "trace_event",
        "tracing_active",
        "tracing_scope",
    }
    | _MANIFEST_NAMES
    | _BASELINE_NAMES
)


def __getattr__(name):
    if name in _MANIFEST_NAMES:
        from . import manifest

        return getattr(manifest, name)
    if name in _BASELINE_NAMES:
        from . import baseline

        return getattr(baseline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
