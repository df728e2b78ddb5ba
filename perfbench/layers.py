"""Which calls the traced run wraps, and the per-layer metrics it derives.

Every target names the attribute its *caller* looks up, so patching it
intercepts the real call path (``repro.batch.chain`` imports the
kernels by name, so those are patched there, not in
``repro.batch.kernels``).  Self time is a span's duration minus its
child spans (:func:`spans.self_times`).
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List

from spans import Span, Target, summarize

#: Rule codes whose per-rule time is reported.  A code whose rule no
#: longer ships reads 0.
RULE_CODES = (
    "DET001", "DET002", "CACHE001", "CONC001", "TRACE001", "FLOAT001",
    "ASYNC001", "ASYNC002", "RES001", "RES002", "SCEN001", "SCEN002",
)

KERNELS = ("convolve", "mix", "decimate", "bincount", "stft")

#: The analog-chain kernels, by the names ``repro.batch.chain`` imports.
CHAIN_KERNELS = {
    "convolve": "batched_convolve_full",
    "mix": "batched_mix",
    "decimate": "batched_decimate",
    "bincount": "batched_bincount",
}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _mbytes(*arrays) -> float:
    return sum(int(a.nbytes) for a in arrays) / 1e6


def _kernel_mbytes(kernel: str):
    """Input array megabytes of one batched-kernel call."""

    def annotate(result, args, kwargs):
        if kernel == "bincount":
            indices = _arg(args, kwargs, 0, "indices")
            deposits = _arg(args, kwargs, 1, "deposits")
            return {"mbytes": _mbytes(*indices, *deposits)}
        if kernel == "convolve":
            return {
                "mbytes": _mbytes(
                    _arg(args, kwargs, 0, "stack"),
                    _arg(args, kwargs, 1, "kernel"),
                )
            }
        if kernel == "stft":
            return {"mbytes": _mbytes(_arg(args, kwargs, 0, "samples"))}
        return {"mbytes": _mbytes(_arg(args, kwargs, 0, "stack"))}

    return annotate


def _dedup(result, args, kwargs):
    return {
        "trials": float(len(result)),
        "distinct": float(len({id(r.capture) for r in result})),
    }


def _hit(result, args, kwargs):
    return {"hits": 0.0 if result is None else 1.0}


def targets() -> List[Target]:
    """Every wrapped call, as (module, attribute, span name, annotate)."""
    out: List[Target] = [
        ("repro.scenario.ports.sweeps", "run_sweep", "sweep.run", None),
        ("repro.scenario.ports.sweeps", "plan_sweep", "sweep.plan", None),
        ("repro.sweep.engine", "plan_sweep", "sweep.plan", None),
        ("repro.batch.runner", "render_captures_batched", "batch.chain",
         _dedup),
        ("repro.batch.runner", "batched_band_energy", "batch.kernel.stft",
         _kernel_mbytes("stft")),
        ("repro.batch.runner", "align_bits", "core.align", None),
        ("repro.exec.cache", "ChainCache.get", "exec.cache.get", _hit),
        ("repro.exec.cache", "ChainCache.put", "exec.cache.put", None),
        ("repro.power.pmu", "PMU.run", "power.pmu", None),
        ("repro.vrm.buck", "BuckConverter.simulate", "vrm.buck", None),
        ("repro.em.environment", "Scenario.apply", "em.propagation", None),
        ("repro.core.decoder", "BatchDecoder.decode_envelope", "core.decode",
         None),
        ("repro.mux.scheduler", "StreamMultiplexer.tick", "mux.tick", None),
        ("repro.mux.scheduler", "tick_group", "mux.tick_group", None),
        ("repro.mux.scheduler", "group_streams", "mux.group_streams", None),
        ("repro.mux.pool", "StreamQueue.push", "mux.pool.push", None),
        ("repro.mux.pool", "StreamQueue.pop", "mux.pool.pop", None),
        ("repro.stream.receiver", "StreamingReceiver.finalize",
         "stream.finalize", None),
        ("repro.stream.receiver", "StreamingKeystrokeDetector.finalize",
         "stream.finalize", None),
        ("repro.lint.engine", "parse_sources", "lint.parse", None),
    ]
    for kernel, attr in CHAIN_KERNELS.items():
        out.append(("repro.batch.chain", attr, f"batch.kernel.{kernel}",
                    _kernel_mbytes(kernel)))
    for module in ("async_safety", "cache_schema", "resources",
                   "scenario_contracts"):
        out.append((f"repro.lint.rules.{module}", "project_graph",
                    "lint.graph", None))
    out.extend(_rule_targets())
    return out


def _rule_targets() -> List[Target]:
    from repro.lint.rules import all_rules

    out: List[Target] = []
    for rule in all_rules():
        cls = type(rule)
        for method in ("check_file", "check_project"):
            out.append((cls.__module__, f"{cls.__qualname__}.{method}",
                        f"lint.rule.{rule.code}", None))
    return out


#: span name -> (self-time metric, call-count metric)
TIMED = {
    "experiments.run": ("scenario.self_s", "scenario.calls"),
    "sweep.plan": ("sweep.plan_s", "sweep.plan.calls"),
    "batch.chain": ("batch.chain_s", "batch.chain.calls"),
    "exec.cache.get": ("exec.cache.get_s", "exec.cache.get_calls"),
    "exec.cache.put": ("exec.cache.put_s", "exec.cache.put_calls"),
    "power.pmu": ("power.pmu_s", "power.pmu.calls"),
    "vrm.buck": ("vrm.buck_s", "vrm.buck.calls"),
    "em.propagation": ("em.propagation_s", "em.propagation.calls"),
    "core.decode": ("core.decode_s", "core.decode.calls"),
    "core.align": ("core.align_s", "core.align.calls"),
    "mux.tick_group": ("mux.tick_group_s", "mux.tick_group.calls"),
    "mux.tick": ("mux.scheduler_self_s", "mux.scheduler.calls"),
    "mux.pool.push": ("mux.pool.push_s", "mux.pool.push_calls"),
    "mux.pool.pop": ("mux.pool.pop_s", "mux.pool.pop_calls"),
    "stream.finalize": ("stream.finalize_s", "stream.finalize.calls"),
    "lint.parse": ("lint.parse_s", "lint.parse.calls"),
    "lint.graph": ("lint.graph_s", "lint.graph.calls"),
}
for _k in KERNELS:
    TIMED[f"batch.kernel.{_k}"] = (
        f"batch.kernel.{_k}_s", f"batch.kernel.{_k}.calls"
    )
for _code in RULE_CODES:
    TIMED[f"lint.rule.{_code}"] = (
        f"lint.rule.{_code}_s", f"lint.rule.{_code}.calls"
    )


def layer_metrics(spans: List[Span], extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    ``extra`` carries values read from the program after the run (the
    mux ledger and pool watermark); layers the workload never touches
    read 0.
    """
    summary = summarize(spans)
    out: Dict[str, float] = {}
    for name, (time_metric, calls_metric) in TIMED.items():
        entry = summary.get(name, {})
        out[time_metric] = entry.get("self_s", 0.0)
        out[calls_metric] = entry.get("calls", 0.0)
    for kernel in KERNELS:
        entry = summary.get(f"batch.kernel.{kernel}", {})
        out[f"batch.kernel.{kernel}.mbytes"] = entry.get("mbytes", 0.0)
    chain = summary.get("batch.chain", {})
    out["batch.dedup_ratio"] = (
        chain["distinct"] / chain["trials"] if chain.get("trials") else 0.0
    )
    gets = summary.get("exec.cache.get", {})
    out["exec.cache.hit_ratio"] = (
        gets["hits"] / gets["calls"] if gets.get("calls") else 0.0
    )
    for key in ("mux.pool.high_watermark", "mux.ledger.delivered_samples",
                "mux.ledger.dropped_chunks", "mux.ledger.shed_chunks"):
        out[key] = float(extra.get(key, 0.0))
    return out


def median_metrics(runs: List[Dict[str, float]]) -> Dict[str, float]:
    """Metric-wise median over several traced runs."""
    return {key: median(run[key] for run in runs) for key in runs[0]}
