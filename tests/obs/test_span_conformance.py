"""Span-registry conformance: every name in ``REGISTERED_SPANS`` is
emitted by a real, test-exercised code path.

The registry (``repro.obs.trace.REGISTERED_SPANS``) is enforced at the
call: while tracing is on, ``span()`` raises for a name it does not
hold.  This module checks the other direction too: a registered name
that no workload emits is dead weight (or a span the tests silently
stopped covering), so the union of spans observed over one pass of each
subsystem's smallest workload must equal the registry exactly.
"""

import numpy as np
import pytest

from repro.exec.cache import reset_chain_cache
from repro.exec.context import execution_scope
from repro.exec.pool import parallel_map
from repro.mux.pool import ChunkPool
from repro.mux.scheduler import StreamMultiplexer
from repro.obs.trace import REGISTERED_SPANS, collect_events
from repro.scenario.component import Component
from repro.scenario.engine import run_components
from repro.stream import CaptureChunkSource, StreamingReceiver, StreamRunner
from repro.sweep.engine import run_sweep
from repro.sweep.presets import RECEIVER_GRID
from repro.sweep.spec import SweepSpec
from repro.types import IQCapture

SAMPLE_RATE = 24_000.0
VRM_HZ = 5_000.0


def _square(x):
    return x * x


def _noise_capture(n_samples, seed=0):
    rng = np.random.default_rng(seed)
    samples = (
        rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
    ).astype(np.complex64)
    return IQCapture(
        samples=samples, sample_rate=SAMPLE_RATE, center_frequency=0.0
    )


def _sweep_spec(name):
    """Two receiver trials with dithering on: the chain walks every
    analog stage span (pmu/vrm/dither/emission/propagation/sdr) and the
    planner/engine emit sweep.plan/trial."""
    return SweepSpec(
        name=name,
        base={"bits": 24, "dithering": {"spread_rel": 0.05}},
        zips=[{"receiver": [None, RECEIVER_GRID[0]]}],
    )


class _Probe(Component):
    slot = "transmitter"
    name = "probe"
    provides = ("probe.value",)

    def run(self, ctx):
        ctx.publish(self, "probe.value", 1.0)


def _span_names(events):
    return {e["name"] for e in events if e.get("event") == "span"}


@pytest.fixture(scope="module")
def observed_spans():
    """Union of span names over one tiny workload per subsystem."""
    names = set()

    # Sweep: planner, engine, the per-stage chain spans, and the
    # trial-major runner with its vector kernels.
    reset_chain_cache()
    with collect_events() as events:
        with execution_scope(cache_enabled=True):
            run_sweep(_sweep_spec("conf-sweep"), jobs=1)
    names |= _span_names(events)
    reset_chain_cache()

    # Fleet multiplexer: two synthetic streams through a shared pool.
    captures = [_noise_capture(4_096, seed=i) for i in range(2)]
    pool = ChunkPool(16, 256)
    mux = StreamMultiplexer(pool, tick_s=4 * 256 / SAMPLE_RATE)
    for i, capture in enumerate(captures):
        source = CaptureChunkSource(capture, 256)
        mux.add_stream(
            f"s{i}",
            source,
            StreamingReceiver(source.meta, VRM_HZ),
            capacity=8,
        )
    with collect_events() as events:
        mux.run()
    names |= _span_names(events)

    # Standalone stream runner: the per-chunk service span.
    source = CaptureChunkSource(_noise_capture(4_096), 512)
    runner = StreamRunner(source, StreamingReceiver(source.meta, VRM_HZ))
    with collect_events() as events:
        runner.run()
    names |= _span_names(events)

    # Trial fan-out: jobs=2 opens the parallel_map span whether the
    # host fans out for real or degrades to serial on one CPU (jobs=1
    # is the bare reference loop and intentionally spanless).
    with collect_events() as events:
        parallel_map(_square, [1, 2, 3], jobs=2)
    names |= _span_names(events)

    # Scenario lifecycle: setup -> run -> teardown over one component.
    with collect_events() as events:
        run_components("conf-scenario", [_Probe()])
    names |= _span_names(events)

    return names


def test_every_registered_span_is_emitted(observed_spans):
    missing = REGISTERED_SPANS - observed_spans
    assert not missing, (
        f"registered but never emitted by the conformance workloads: "
        f"{sorted(missing)}"
    )


def test_no_unregistered_span_is_emitted(observed_spans):
    # Workloads only open spans the registry knows about (span() would
    # have raised otherwise).
    unregistered = observed_spans - REGISTERED_SPANS
    assert not unregistered, f"unregistered spans: {sorted(unregistered)}"
