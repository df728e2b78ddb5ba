"""Self-tests of the benchmark's trace wrappers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
from pathlib import Path

from layers import layer_metrics, targets
from spans import Span, Tracer, resolve, self_times

from repro.exec.cache import reset_chain_cache
from repro.mux import FleetStreamSpec, build_multiplexer, finalized_digests
from repro.sweep import receiver_grid, run_sweep

ROOT = Path(__file__).resolve().parents[2]


def _bindings():
    """Every target's owner, attribute, and what the owner holds now."""
    out = []
    for module, path, _, _ in targets():
        owner, attr = resolve(module, path)
        held = vars(owner).get(attr) if isinstance(owner, type) else getattr(
            owner, attr
        )
        out.append((owner, attr, held, getattr(owner, attr)))
    return out


def test_install_then_remove_restores_every_name():
    before = _bindings()
    tracer = Tracer(targets()).install()
    try:
        assert tracer.missing == []
        for owner, attr, _, original in before:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.remove()
    assert _bindings() == before
    for owner, attr, held, original in before:
        assert getattr(owner, attr) is original
        if isinstance(owner, type):
            # An inherited method must not stay shadowed on the subclass.
            assert vars(owner).get(attr) is held


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", 1, 0, 0.0, 10.0),
        Span("b", 2, 1, 1.0, 5.0),
        Span("c", 3, 2, 2.0, 3.0),
        Span("b", 4, 1, 6.0, 7.0),
    ]
    assert self_times(spans) == {1: 5.0, 2: 3.0, 3: 1.0, 4: 1.0}


def _sweep_digests():
    reset_chain_cache()
    outcome = run_sweep(receiver_grid(seed=0, quick=True).trials())
    return [
        (r["trial_id"], r["result"]["bits_sha"], r["result"]["rng"])
        for r in outcome.records
    ]


def test_traced_receiver_grid_matches_untraced():
    plain = _sweep_digests()
    with Tracer(targets()) as tracer:
        traced = _sweep_digests()
    assert traced == plain
    metrics = layer_metrics(tracer.spans, {})
    assert metrics["core.decode.calls"] == 8
    assert metrics["batch.kernel.stft.calls"] >= 1
    assert metrics["batch.dedup_ratio"] == 1 / 8


def _fleet_digests():
    reset_chain_cache()
    fleet = [
        FleetStreamSpec("stream-covert", count=4, duration_s=0.4),
        FleetStreamSpec("keylog", count=2, duration_s=0.4),
        FleetStreamSpec(
            "clockmod-fsk", count=2, duration_s=0.4, service_rate_factor=2.0
        ),
    ]
    mux, by_stream = build_multiplexer(fleet, chunk_size=512, tick_chunks=2)
    mux.run()
    mux.check_conservation()
    return finalized_digests(mux, by_stream)


def test_traced_fleet_matches_untraced():
    plain = _fleet_digests()
    with Tracer(targets()) as tracer:
        traced = _fleet_digests()
    assert len(plain) == 8 and traced == plain
    metrics = layer_metrics(tracer.spans, {})
    assert metrics["mux.tick_group.calls"] >= 1
    assert metrics["stream.finalize.calls"] == 8


def test_benchmark_json_and_manifest_name_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((ROOT / "perfbench" / "manifest.json").read_text())
    derived = set(layer_metrics([], {})) | {
        "mux.tick_p50_ms", "mux.tick_p90_ms", "obs.trace_overhead",
    }
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared == derived
    assert set(manifest["per_layer"]) == declared
    assert set(manifest["workloads"]) == {w["name"] for w in spec["workloads"]}
    assert set(manifest["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
